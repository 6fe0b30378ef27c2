"""JSON encoding/decoding for every externally visible schema.

Rational endpoints travel as exact "p/q" strings; height-like quantities are
rendered as decimal strings with directed rounding at the stated precision,
so emitted digits are always certified.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebraic import AlgebraicNumber
from .bounds import BoundConstants
from .forms import ExceptionalSet, MultihomogeneousPolynomial
from .heights import HeightValue, MultiProjectivePoint
from .intervals import Interval, decimal_lower, decimal_upper, decimal_midpoint
from .polys import IntPolynomial
from .roots import RootBox
from .verify import CorollaryInstance, Verdict


class SchemaError(ValueError):
    """Input document does not match the expected schema."""

    def __init__(self, pointer, message):
        self.pointer = pointer
        super().__init__("%s: %s" % (pointer, message))


def _frac(value, pointer) -> Fraction:
    try:
        if isinstance(value, bool):
            raise ValueError("boolean")
        if isinstance(value, str) and ("e" in value or "E" in value):
            # Fraction would expand the exponent into an integer of that size
            raise ValueError("exponent notation")
        if isinstance(value, (int, str)):
            return Fraction(value)
    except (ValueError, ZeroDivisionError) as e:
        raise SchemaError(pointer, "bad rational %r (%s)" % (value, e)) from None
    raise SchemaError(pointer, "expected rational string or integer, got %r" % (value,))


def frac_str(q: Fraction) -> str:
    return str(Fraction(q))


# -- intervals / heights ------------------------------------------------------


def interval_to_json(iv: Interval, bits: int) -> dict:
    digits = max(8, min(60, bits * 30103 // 100000 + 2))
    return {"lo": decimal_lower(iv.lo, digits),
            "hi": decimal_upper(iv.hi, digits),
            "bits": bits}


def height_to_json(h: HeightValue) -> dict:
    return interval_to_json(h.log_height, h.bits)


# -- algebraic numbers ---------------------------------------------------------


def algnum_to_json(a: AlgebraicNumber) -> dict:
    box = a.box(Fraction(1, 1 << 48))
    return {
        "minpoly": list(a.minpoly.coeffs),
        "root": {
            "re": [frac_str(box.re.lo), frac_str(box.re.hi)],
            "im": [frac_str(box.im.lo), frac_str(box.im.hi)],
        },
    }


def _pair(d, key, pointer):
    v = d.get(key)
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise SchemaError(pointer + "." + key, "expected [lo, hi]")
    return (_frac(v[0], pointer + ".%s[0]" % key),
            _frac(v[1], pointer + ".%s[1]" % key))


def algnum_from_json(d, pointer="algnum") -> AlgebraicNumber:
    if isinstance(d, (int, str)):
        return AlgebraicNumber.from_rational(_frac(d, pointer))
    if not isinstance(d, dict) or "minpoly" not in d:
        raise SchemaError(pointer, "expected rational or {minpoly, root}")
    coeffs = d["minpoly"]
    if (not isinstance(coeffs, list) or not coeffs
            or not all(isinstance(c, int) and not isinstance(c, bool) for c in coeffs)):
        raise SchemaError(pointer + ".minpoly", "expected a nonempty integer list")
    poly = IntPolynomial(coeffs)
    if poly.degree < 1:
        raise SchemaError(pointer + ".minpoly", "degree must be >= 1")
    root = d.get("root")
    if not isinstance(root, dict):
        raise SchemaError(pointer + ".root", "expected {re, im}")
    re_lo, re_hi = _pair(root, "re", pointer + ".root")
    im_lo, im_hi = _pair(root, "im", pointer + ".root")
    try:
        box = RootBox(Interval(re_lo, re_hi),
                      None if im_lo == im_hi == 0 else Interval(im_lo, im_hi))
        return AlgebraicNumber.from_root(poly, box)
    except (ValueError, ArithmeticError) as e:
        raise SchemaError(pointer, "cannot select a root: %s" % e) from None


# -- points ---------------------------------------------------------------------


def point_to_json(p: MultiProjectivePoint) -> dict:
    return {"blocks": [[frac_str(c.as_fraction()) if c.is_rational() else algnum_to_json(c)
                        for c in block] for block in p.blocks]}


def point_from_json(d, pointer="point") -> MultiProjectivePoint:
    if not isinstance(d, dict) or not isinstance(d.get("blocks"), list):
        raise SchemaError(pointer, "expected {blocks: [[coord, ...], ...]}")
    blocks = []
    for bi, block in enumerate(d["blocks"]):
        if not isinstance(block, list) or not block:
            raise SchemaError("%s.blocks[%d]" % (pointer, bi), "expected a nonempty list")
        row = []
        for ci, c in enumerate(block):
            where = "%s.blocks[%d][%d]" % (pointer, bi, ci)
            if isinstance(c, dict):
                row.append(algnum_from_json(c, where))
            else:
                row.append(_frac(c, where))
        blocks.append(row)
    try:
        return MultiProjectivePoint(blocks)
    except ValueError as e:
        raise SchemaError(pointer, str(e)) from None


# -- multihomogeneous polynomials -------------------------------------------------


def form_to_json(F: MultihomogeneousPolynomial, E: ExceptionalSet) -> dict:
    mons = []
    for exp, coeff in sorted(F.monomials.items()):
        cj = int(coeff.as_fraction()) if coeff.is_integer() else algnum_to_json(coeff)
        mons.append({"exp": [list(row) for row in exp], "coeff": cj})
    return {"shape": list(F.shape), "degrees": list(F.degrees),
            "I": sorted(E.blocks), "monomials": mons}


def form_from_json(d, pointer="F") -> tuple[MultihomogeneousPolynomial, ExceptionalSet]:
    if not isinstance(d, dict):
        raise SchemaError(pointer, "expected an object")
    for key in ("shape", "degrees", "monomials"):
        if key not in d:
            raise SchemaError(pointer + "." + key, "missing")
    mons = []
    for k, m in enumerate(d["monomials"]):
        where = "%s.monomials[%d]" % (pointer, k)
        if not isinstance(m, dict) or "exp" not in m or "coeff" not in m:
            raise SchemaError(where, "expected {exp, coeff}")
        coeff = m["coeff"]
        if isinstance(coeff, dict):
            coeff = algnum_from_json(coeff, where + ".coeff")
        elif isinstance(coeff, str):
            coeff = _frac(coeff, where + ".coeff")
        elif not isinstance(coeff, int) or isinstance(coeff, bool):
            raise SchemaError(where + ".coeff", "expected integer or algebraic number")
        mons.append((m["exp"], coeff))
    try:
        F = MultihomogeneousPolynomial(d["shape"], d["degrees"], mons)
    except ValueError as e:
        raise SchemaError(pointer, str(e)) from None
    blocks = d.get("I", [])
    if not isinstance(blocks, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in blocks):
        raise SchemaError(pointer + ".I", "expected a list of block indices")
    return F, ExceptionalSet(blocks)


# -- corollary instances -----------------------------------------------------------


def instance_to_json(inst: CorollaryInstance) -> dict:
    return {"alphas": [algnum_to_json(a) for a in inst.alphas],
            "N": algnum_to_json(inst.n_value)}


def instance_from_json(d, pointer="instance") -> CorollaryInstance:
    if not isinstance(d, dict) or "alphas" not in d or "N" not in d:
        raise SchemaError(pointer, "expected {alphas, N}")
    alphas = [algnum_from_json(a, "%s.alphas[%d]" % (pointer, k))
              for k, a in enumerate(d["alphas"])]
    n_value = algnum_from_json(d["N"], pointer + ".N")
    try:
        return CorollaryInstance(alphas, n_value)
    except ValueError as e:
        raise SchemaError(pointer, str(e)) from None


# -- verdicts ------------------------------------------------------------------------


def verdict_to_json(v: Verdict) -> dict:
    out = {
        "status": v.status,
        "hypotheses": {h.name: {"passed": h.passed, "witness": h.witness}
                       for h in v.hypotheses},
        "lhs": None if v.lhs is None else height_to_json(v.lhs),
        "log_rho": None if v.log_rho is None else interval_to_json(v.log_rho, v.precision_bits),
        "margin": None if v.margin is None else interval_to_json(v.margin, v.precision_bits),
        "precision_bits": v.precision_bits,
    }
    return out


# -- constants report -------------------------------------------------------------------


def constants_to_json(bc: BoundConstants) -> dict:
    approx, pm = decimal_midpoint(bc.rho.box(Fraction(1, 1 << 64)).re, max_digits=12)
    return {
        "d_ij": [list(row) for row in bc.d_ij],
        "d_tilde": list(bc.d_tilde),
        "delta": frac_str(bc.delta),
        "c": {"%d,%d" % key: val for key, val in sorted(bc.c.items())},
        "C_F": bc.c_f,
        "rho": {"minpoly": list(bc.rho.minpoly.coeffs), "approx": approx, "pm": pm},
        "log_rho": interval_to_json(bc.log_rho, bc.bits),
    }


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)
