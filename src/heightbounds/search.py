"""Exhaustive desk-scale enumeration of integer polynomials: certified
minimum-height surveys, equality-case hunting for the sum-equals-N bound,
and resumable record files.

Enumeration order is deterministic (degree ascending, then the flat
coefficient index), chunks partition that order, and merging is a sorted
union, so record sets are independent of the worker count.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
from contextlib import nullcontext
from fractions import Fraction

from .algebraic import AlgebraicNumber, _isolated, _number
from .factor import factor_over_rationals
from .heights import weil_log_height
from .intervals import Interval, decimal_lower, decimal_upper
from .polys import IntPolynomial, count_real_roots
from .verify import EQUALITY, CorollaryInstance, verify_corollary

KNOWN_PREDICATES = ("totally-real", "algebraic-integer", "exclude-trivial", "irreducible")
RECORD_DIGITS = 30
CHUNK = 2048


class SearchError(ValueError):
    pass


class CursorError(ValueError):
    pass


class SearchSpace:
    """Finite coefficient box: degrees in a range, |coefficients| bounded,
    optionally monic, with a predicate set filtering the records."""

    __slots__ = ("degree_min", "degree_max", "coeff_bound", "monic", "predicates")

    def __init__(self, degree_min, degree_max, coeff_bound, monic=True,
                 predicates=KNOWN_PREDICATES):
        if degree_min < 1 or degree_max < degree_min:
            raise SearchError("degree range must satisfy 1 <= min <= max")
        if coeff_bound < 1:
            raise SearchError("coefficient bound must be >= 1")
        preds = []
        for p in predicates:
            if p not in KNOWN_PREDICATES:
                raise SearchError("unknown predicate %r" % p)
            if p not in preds:
                preds.append(p)
        object.__setattr__(self, "degree_min", int(degree_min))
        object.__setattr__(self, "degree_max", int(degree_max))
        object.__setattr__(self, "coeff_bound", int(coeff_bound))
        object.__setattr__(self, "monic", bool(monic))
        object.__setattr__(self, "predicates",
                           tuple(sorted(preds, key=KNOWN_PREDICATES.index)))

    def __setattr__(self, *a):
        raise AttributeError("SearchSpace is immutable")

    def __reduce__(self):
        return (SearchSpace, (self.degree_min, self.degree_max, self.coeff_bound,
                              self.monic, self.predicates))

    def to_json_dict(self) -> dict:
        return {
            "degrees": [self.degree_min, self.degree_max],
            "coeff_bound": self.coeff_bound,
            "monic": self.monic,
            "predicates": list(self.predicates),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SearchSpace":
        try:
            lo, hi = d["degrees"]
            return cls(lo, hi, d["coeff_bound"], d.get("monic", True),
                       d.get("predicates", KNOWN_PREDICATES))
        except (KeyError, TypeError, ValueError) as e:
            raise SearchError("bad search space document: %s" % e) from None

    def space_hash(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def degree_count(self, degree: int) -> int:
        base = (2 * self.coeff_bound + 1) ** degree
        return base if self.monic else self.coeff_bound * base

    def total_count(self) -> int:
        return sum(self.degree_count(d)
                   for d in range(self.degree_min, self.degree_max + 1))

    def poly_at(self, degree: int, index: int) -> IntPolynomial:
        """Candidate at a flat per-degree index; lower coefficients vary fastest."""
        radix = 2 * self.coeff_bound + 1
        if self.monic:
            lead = 1
        else:
            lead = 1 + index // (radix ** degree)
            index %= radix ** degree
        coeffs = []
        for _ in range(degree):
            coeffs.append(index % radix - self.coeff_bound)
            index //= radix
        coeffs.append(lead)
        return IntPolynomial(coeffs)


class SearchRecord:
    __slots__ = ("minpoly", "degree", "logh", "flags")

    def __init__(self, minpoly, degree, logh, flags):
        self.minpoly = minpoly
        self.degree = degree
        self.logh = logh
        self.flags = tuple(flags)

    def sort_key(self):
        return (self.logh.lo, self.degree, self.minpoly.coeffs)

    def to_json_dict(self) -> dict:
        # the schema holds nothing that depends on the run, so record files
        # are byte-identical across worker counts
        return {
            "minpoly": list(self.minpoly.coeffs),
            "deg": self.degree,
            "logh": {"lo": decimal_lower(self.logh.lo, RECORD_DIGITS),
                     "hi": decimal_upper(self.logh.hi, RECORD_DIGITS)},
            "flags": list(self.flags),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SearchRecord":
        logh = Interval(Fraction(d["logh"]["lo"]), Fraction(d["logh"]["hi"]))
        return cls(IntPolynomial(d["minpoly"]), d["deg"], logh, d["flags"])

    def __repr__(self):
        return "SearchRecord(%s, logh~%.10g)" % (self.minpoly, float(self.logh.mid))


def enumerate_space(space: SearchSpace):
    """Deterministic stream of (degree, index, polynomial)."""
    for degree in range(space.degree_min, space.degree_max + 1):
        for index in range(space.degree_count(degree)):
            yield degree, index, space.poly_at(degree, index)


# ---------------------------------------------------------------------------
# the filter pipeline


_TRIVIAL = {(0, 1), (-1, 1), (1, 1)}  # minpolys of 0, 1, -1


def _examine_candidate(space: SearchSpace, f: IntPolynomial, bits: int,
                       seen: dict, stats: dict):
    """Run one enumerated candidate through factorization and predicates."""
    stats["candidates"] += 1
    facs = [g for g, _ in factor_over_rationals(f) if g.degree >= 1]
    irreducible = len(facs) == 1 and facs[0].degree == f.degree
    if not irreducible:
        # reducible candidates decompose; their irreducible parts are
        # deduplicated against already-seen records
        stats["reducible"] += 1
    parts = []
    for g in facs:
        if g not in parts:
            parts.append(g)
    for g in parts:
        stats["parts"] += 1
        if "exclude-trivial" in space.predicates and g.coeffs in _TRIVIAL:
            stats["rejections"]["exclude-trivial"] += 1
            continue
        if "algebraic-integer" in space.predicates and not g.is_monic():
            stats["rejections"]["algebraic-integer"] += 1
            continue
        if "totally-real" in space.predicates and count_real_roots(g) != g.degree:
            stats["rejections"]["totally-real"] += 1
            continue
        if g.coeffs in seen:
            stats["duplicates"] += 1
            continue
        flags = list(space.predicates)
        if g.degree != f.degree or g != f:
            flags.append("from-decomposition")
        # g is an irreducible factor already, so conjugate 0 is named directly
        logh = weil_log_height(_number(g, g, 0), bits).log_height
        seen[g.coeffs] = SearchRecord(g, g.degree, logh, flags)


def _new_stats() -> dict:
    return {
        "candidates": 0,
        "reducible": 0,
        "parts": 0,
        "duplicates": 0,
        "rejections": {"exclude-trivial": 0,
                       "algebraic-integer": 0, "totally-real": 0},
    }


def _chunk_worker(args):
    space, degree, start, end, bits = args
    seen: dict = {}
    stats = _new_stats()
    for index in range(start, end):
        f = space.poly_at(degree, index)
        _examine_candidate(space, f, bits, seen, stats)
    return seen, stats


def _chunks(space: SearchSpace, resume_position=None):
    """Deterministic chunk list [(degree, start, end)], skipping finished ones."""
    out = []
    for degree in range(space.degree_min, space.degree_max + 1):
        count = space.degree_count(degree)
        start = 0
        if resume_position is not None:
            rdeg, rindex = resume_position
            if degree < rdeg:
                continue
            if degree == rdeg:
                start = rindex
                if start >= count:
                    continue
        for s in range(start, count, CHUNK):
            out.append((degree, s, min(s + CHUNK, count)))
    return out


class SurveyResult:
    __slots__ = ("records", "minimum", "tie_class", "strict", "stats", "bits")

    def __init__(self, records, minimum, tie_class, strict, stats, bits):
        self.records = records
        self.minimum = minimum
        self.tie_class = tie_class
        self.strict = strict
        self.stats = stats
        self.bits = bits

    def __repr__(self):
        head = None if self.minimum is None else float(self.minimum.logh.mid)
        return "SurveyResult(%d records, min~%s)" % (len(self.records), head)


def _negation_class_key(f: IntPolynomial):
    return min(f.coeffs, f.negate_variable().canonical().coeffs)


def min_height_survey(space: SearchSpace, bits: int = 64, jobs: int = 1,
                      records_path: str | None = None,
                      cursor_path: str | None = None) -> SurveyResult:
    """Every filtered candidate gets a certified height; returns the sorted
    records with the certified minimum and its symmetry-collapsed tie class."""
    seen: dict = {}
    stats = _new_stats()
    resume_position = None
    if cursor_path and os.path.exists(cursor_path):
        (rdeg, rindex, stats), prior = _load_cursor(space, cursor_path, records_path)
        for rec in prior:
            seen[rec.minpoly.coeffs] = rec
        resume_position = (rdeg, rindex)
    chunks = _chunks(space, resume_position)
    args = [(space, d, s, e, bits) for d, s, e in chunks]
    jobs = min(jobs, len(args))  # a worker per chunk at most
    with multiprocessing.Pool(jobs) if jobs > 1 else nullcontext() as pool:
        results = pool.imap(_chunk_worker, args) if pool else map(_chunk_worker, args)
        for (chunk_seen, chunk_stats), (degree, _s, end) in zip(results, chunks):
            _merge_chunk(seen, stats, chunk_seen, chunk_stats)
            if records_path and cursor_path:
                _write_checkpoint(space, records_path, cursor_path, seen, stats,
                                  (degree, end))
    records = sorted(seen.values(), key=lambda r: r.sort_key())
    if records_path:
        _atomic_write(records_path, _records_blob(records))
        if cursor_path:
            last = (space.degree_max, space.degree_count(space.degree_max))
            _atomic_write(cursor_path, _cursor_blob(space, stats, last))
    minimum = records[0] if records else None
    tie_class, strict = [], False
    if minimum is not None:
        key = _negation_class_key(minimum.minpoly)
        tie_class = [r for r in records
                     if r.logh.intersects(minimum.logh)]
        strict = all(r.logh.lo > minimum.logh.hi for r in records
                     if _negation_class_key(r.minpoly) != key)
    return SurveyResult(records, minimum, tie_class, strict, stats, bits)


def _merge_chunk(seen, stats, chunk_seen, chunk_stats):
    for key in ("candidates", "reducible", "parts"):
        stats[key] += chunk_stats[key]
    for key in stats["rejections"]:
        stats["rejections"][key] += chunk_stats["rejections"][key]
    stats["duplicates"] += chunk_stats["duplicates"]
    for coeffs, rec in sorted(chunk_seen.items()):
        if coeffs in seen:
            stats["duplicates"] += 1
        else:
            seen[coeffs] = rec


# ---------------------------------------------------------------------------
# checkpoint files


def _records_blob(records) -> str:
    lines = [json.dumps(r.to_json_dict(), sort_keys=True) for r in records]
    return "".join(line + "\n" for line in lines)


def _cursor_blob(space, stats, position) -> str:
    return json.dumps({
        "space_hash": space.space_hash(),
        "position": list(position),
        "stats": stats,
    }, sort_keys=True) + "\n"


def _atomic_write(path: str, blob: str):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def _write_checkpoint(space, records_path, cursor_path, seen, stats, position):
    records = sorted(seen.values(), key=lambda r: r.sort_key())
    _atomic_write(records_path, _records_blob(records))
    _atomic_write(cursor_path, _cursor_blob(space, stats, position))


def _load_cursor(space, cursor_path, records_path):
    try:
        with open(cursor_path) as fh:
            doc = json.load(fh)
        space_hash = doc["space_hash"]
        degree, index = doc["position"]
        stats = doc.get("stats", _new_stats())
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise CursorError("corrupted cursor file %s: %s" % (cursor_path, e)) from None
    if space_hash != space.space_hash():
        raise CursorError("cursor belongs to a different search space "
                          "(hash %s...)" % space_hash[:12])
    prior = []
    if records_path and os.path.exists(records_path):
        with open(records_path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    prior.append(SearchRecord.from_json_dict(json.loads(line)))
    return (int(degree), int(index), stats), prior


# ---------------------------------------------------------------------------
# equality hunting


def equality_hunt(r: int, space: SearchSpace, bits: int = 128,
                  survey: SurveyResult | None = None):
    """Instances of the sum-equals-N bound whose certified margin vanishes.

    r=1 instances are (alpha; N=alpha) over all real conjugates of survey
    records.  r=2 pairs are seeded with a unit first component (any two
    components of positive height already exceed the bound, so units are the
    only seeds that can reach equality).
    """
    if r not in (1, 2):
        raise SearchError("r must be 1 or 2")
    if survey is None:
        survey = min_height_survey(space, bits=max(64, bits // 2))
    found = []
    units = ((),) if r == 1 else ((1,), (-1,))
    for rec in survey.records:
        if count_real_roots(rec.minpoly) != rec.minpoly.degree:
            continue
        for box in _isolated(rec.minpoly):
            alpha = AlgebraicNumber(rec.minpoly, box)
            for unit in units:
                n_value = alpha._add_rational(Fraction(sum(unit)))
                try:
                    inst = CorollaryInstance([*unit, alpha], n_value)
                    verdict = verify_corollary(inst, bits)
                except ValueError:
                    continue
                if verdict.status == EQUALITY:
                    found.append((inst, verdict))
    return found
