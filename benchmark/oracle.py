"""Checks of the program's outputs against computations made apart from it
(mpmath root finding, sympy factoring) and against the theorem.

Every check returns a list of problems; an empty list means the output
passed.  None of this runs inside a timed region.
"""

import functools
from fractions import Fraction

import mpmath
import sympy

DPS = 60
TOL = mpmath.mpf(10) ** -40
_X = sympy.Symbol("x")


def _precise(fn):
    """Run fn at DPS decimal digits (conversions included)."""
    @functools.wraps(fn)
    def run(*args, **kwargs):
        with mpmath.workdps(DPS):
            return fn(*args, **kwargs)
    return run


def _mp(text):
    q = Fraction(text)
    return mpmath.mpf(q.numerator) / q.denominator


def _roots(coeffs):
    """All complex roots of an integer polynomial (ascending coefficients)."""
    if len(coeffs) == 2:
        return [mpmath.mpf(-coeffs[0]) / coeffs[1]]
    return mpmath.polyroots(list(reversed(coeffs)), maxsteps=400, extraprec=2 * DPS)


@_precise
def log_height(coeffs):
    """log M(f) / deg f for an integer polynomial f."""
    m = abs(mpmath.mpf(coeffs[-1]))
    for r in _roots(coeffs):
        m *= max(mpmath.mpf(1), abs(r))
    return mpmath.log(m) / (len(coeffs) - 1)


@_precise
def value(doc):
    """Numeric value of an algebraic-number document: the root of its minimal
    polynomial nearest to the centre of its root box."""
    if isinstance(doc, (int, str)):
        return _mp(str(doc))
    re = [_mp(s) for s in doc["root"]["re"]]
    im = [_mp(s) for s in doc["root"]["im"]]
    centre = mpmath.mpc((re[0] + re[1]) / 2, (im[0] + im[1]) / 2)
    return min(_roots(doc["minpoly"]), key=lambda r: abs(r - centre))


def _in_box(v, doc):
    re = [_mp(s) for s in doc["root"]["re"]]
    im = [_mp(s) for s in doc["root"]["im"]]
    v = mpmath.mpc(v)
    return (re[0] - TOL <= v.real <= re[1] + TOL) and (im[0] - TOL <= v.imag <= im[1] + TOL)


def _inside(x, enclosure, tol=TOL):
    return _mp(enclosure["lo"]) - tol <= x <= _mp(enclosure["hi"]) + tol


@_precise
def half_log_phi():
    return mpmath.log((1 + mpmath.sqrt(5)) / 2) / 2


# -- corollary --------------------------------------------------------------


@_precise
def check_corollary(request, verdict):
    """Heights against mpmath, and the theorem on the verdict."""
    problems = []
    alphas = request["alphas"]
    hsum = sum(log_height(a["minpoly"]) if isinstance(a, dict) else
               log_height([-Fraction(a).numerator, Fraction(a).denominator])
               for a in alphas)
    inv_sum = sum(1 / value(a) for a in alphas)
    reciprocal_equal = abs(inv_sum - value(request["N"])) < TOL
    bound = half_log_phi()
    status = verdict["status"]
    passed = all(h["passed"] for h in verdict["hypotheses"].values())
    if verdict["lhs"] is not None and not _inside(hsum, verdict["lhs"]):
        problems.append("height sum %s outside %s" % (mpmath.nstr(hsum, 20), verdict["lhs"]))
    if verdict["log_rho"] is not None and not _inside(bound, verdict["log_rho"]):
        problems.append("(1/2) log phi outside log_rho %s" % verdict["log_rho"])
    if verdict["margin"] is not None and not _inside(hsum - bound, verdict["margin"]):
        problems.append("margin %s outside %s" % (mpmath.nstr(hsum - bound, 20), verdict["margin"]))
    if passed:
        if status not in ("holds", "equality-candidate"):
            problems.append("hypotheses pass but status is %s" % status)
        if reciprocal_equal:
            problems.append("sum 1/alpha_i = N but the reciprocal gate passed")
        if hsum < bound - TOL:
            problems.append("theorem violated: height sum below (1/2) log phi")
        at_bound = abs(hsum - bound) < TOL
        if status == "equality-candidate" and not at_bound:
            problems.append("equality-candidate but the height sum is not (1/2) log phi")
        if status == "holds" and at_bound:
            problems.append("height sum equals (1/2) log phi but status is holds")
    else:
        if status != "violated-hypotheses":
            problems.append("a hypothesis failed but status is %s" % status)
        if not reciprocal_equal:
            problems.append("violated-hypotheses without sum 1/alpha_i = N")
    return problems


# -- arith ----------------------------------------------------------------------


def _irreducible(coeffs):
    return sympy.Poly(list(reversed(coeffs)), _X).is_irreducible


@_precise
def check_arith(pair, out):
    problems = []
    for key in ("sum_back", "prod_back", "inv_back"):
        if out.get(key) is not True:
            problems.append("%s round trip failed" % key)
    va, vb = value(pair["a"]), value(pair["b"])
    for key, v in (("sum", va + vb), ("prod", va * vb)):
        doc = out[key]
        coeffs = doc["minpoly"]
        scale = sum(abs(c) * abs(v) ** i for i, c in enumerate(coeffs))
        if abs(mpmath.polyval(list(reversed(coeffs)), v)) > TOL * max(scale, 1):
            problems.append("%s value is not a root of its minimal polynomial" % key)
        if not _in_box(v, doc):
            problems.append("%s value lies outside its root box" % key)
        if not _irreducible(coeffs):
            problems.append("%s minimal polynomial is reducible" % key)
    return problems


# -- survey ---------------------------------------------------------------------


def _canonical(poly):
    coeffs = [int(c) for c in reversed(poly.all_coeffs())]
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    return tuple(coeffs)


def real_rooted(coeffs):
    return sympy.Poly(list(reversed(coeffs)), _X).count_roots() == len(coeffs) - 1


def expected_records(space):
    """The record set of a search space, enumerated with sympy."""
    lo, hi = space["degrees"]
    bound = space["coeff_bound"]
    preds = set(space["predicates"])
    if not space.get("monic", True):
        raise ValueError("only monic spaces are enumerated here")
    radix = 2 * bound + 1
    found = set()
    for degree in range(lo, hi + 1):
        for index in range(radix ** degree):
            coeffs, k = [], index
            for _ in range(degree):
                coeffs.append(k % radix - bound)
                k //= radix
            coeffs.append(1)
            _, factors = sympy.factor_list(sympy.Poly(list(reversed(coeffs)), _X))
            for g, _mult in factors:
                c = _canonical(g)
                if "exclude-trivial" in preds and c in ((0, 1), (-1, 1), (1, 1)):
                    continue
                if "algebraic-integer" in preds and c[-1] != 1:
                    continue
                if "totally-real" in preds and not real_rooted(list(c)):
                    continue
                found.add(c)
    return found


def _cyclotomic(max_degree):
    out = set()
    n = 1
    while n <= 6 * max_degree + 6:
        if sympy.totient(n) <= max_degree:
            out.add(_canonical(sympy.Poly(sympy.cyclotomic_poly(n, _X), _X)))
        n += 1
    return out


@_precise
def check_survey(space, records, out, first_box=False):
    """records: the parsed record file; out: the worker's summary."""
    problems = []
    got = {tuple(r["minpoly"]) for r in records}
    expected = expected_records(space)
    if got != expected:
        problems.append("record set differs from sympy: %d missing, %d extra"
                        % (len(expected - got), len(got - expected)))
    if out["records"] != len(records):
        problems.append("record file holds %d records, survey reported %d"
                        % (len(records), out["records"]))
    for r in records:
        if not _inside(log_height(r["minpoly"]), r["logh"], mpmath.mpf(10) ** -28):
            problems.append("record %s: height outside %s" % (r["minpoly"], r["logh"]))
    if first_box:
        if out["minimum"] not in ([-1, -1, 1], [-1, 1, 1]):
            problems.append("minimum is %s, not x^2-x-1" % out["minimum"])
        if sorted(map(tuple, out["tie_class"])) != [(-1, -1, 1), (-1, 1, 1)]:
            problems.append("tie class is %s" % out["tie_class"])
        m = [r for r in records if r["minpoly"] == out["minimum"]]
        if not m or not _inside(half_log_phi(), m[0]["logh"], mpmath.mpf(10) ** -28):
            problems.append("certified minimum is not (1/2) log phi")
    else:
        zero = {tuple(r["minpoly"]) for r in records
                if _mp(r["logh"]["hi"]) == 0}
        cyclo = _cyclotomic(space["degrees"][1]) & got
        if zero != cyclo:
            problems.append("height-zero records %s are not the cyclotomic ones %s"
                            % (sorted(zero), sorted(cyclo)))
    return problems
