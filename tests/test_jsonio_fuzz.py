"""Fuzz test of the JSON reader of algebraic numbers, `jsonio.algnum_from_json`.

Every generated document must give a number or a `SchemaError`, each within
PER_INPUT_S seconds; the whole run goes through `run_with_deadline`, so a
hang fails the test instead of stalling the suite.

The structured documents multiply powers of catalog factors, whose roots are
known to 60 digits, into "minpolys" that may be reducible, non-squarefree,
carry content, or reach the composite degree cap.  Their boxes hold 0, 1 or
2+ roots, sit on a rational root, have reversed or degenerate endpoints, or
meet the real axis.  The expected outcome is then exact: a box that holds
exactly one distinct root gives that root, and any other box a SchemaError.
The free-form documents (dense random polynomials, malformed fields) check
only the outcome type, the time bound, and that a number returned is a root
of the input whose box meets the input box.
"""

import math
import time
from fractions import Fraction
from pathlib import Path

import mpmath
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heightbounds import jsonio
from heightbounds.algebraic import DEFAULT_DEGREE_CAP, AlgebraicNumber
from heightbounds.polys import IntPolynomial, parse_polynomial

from conftest import LEHMER_TEXT, run_with_deadline

PER_INPUT_S = 5.0
EXAMPLES = 150

CATALOG = [parse_polynomial(t).canonical() for t in (
    "x", "x-1", "2*x+1", "3*x-2", "x^2-2", "x^2+1", "x^2-x-1", "x^2+x+1",
    "2*x^2-3", "x^3-x-1", "x^3-2", "x^4+1", "x^4-10*x^2+1",
    # roots 1 +- 1/(10^4 sqrt 2), closer than the first selection widths
    "200000000*x^2-400000000*x+199999999",
    LEHMER_TEXT)]


def _snap(x) -> Fraction:
    """60-digit value as a Fraction; exact when it is a small-denominator
    rational (catalog roots are either that or far from every such one)."""
    q = Fraction(mpmath.nstr(x, 60, strip_zeros=False, min_fixed=-1, max_fixed=1))
    r = q.limit_denominator(1000)
    return r if abs(q - r) < Fraction(1, 10**40) else q


def _roots(f: IntPolynomial) -> list[tuple[Fraction, Fraction]]:
    with mpmath.workdps(60):
        zs = mpmath.polyroots(list(reversed(f.coeffs)), maxsteps=500, extraprec=300)
        return [(_snap(mpmath.re(z)), _snap(mpmath.im(z))) for z in zs]


ROOTS = [_roots(f) for f in CATALOG]


def _exact(z) -> bool:
    return all(p.denominator <= 1000 for p in z)


def _expected(factors, re, im):
    """(factor, root) when the box holds exactly one distinct root of the
    product of `factors`, else None (a SchemaError is expected)."""
    (a, b), (c, d) = re, im
    if a > b or c > d or (c <= 0 <= d and not c == d == 0):
        return None  # reversed, or a non-real box that meets the real axis
    inside = [(CATALOG[k], z) for k in factors for z in ROOTS[k]
              if a <= z[0] <= b and c <= z[1] <= d]
    return inside[0] if len(inside) == 1 else None


def _doc(coeffs, re, im) -> dict:
    return {"minpoly": coeffs,
            "root": {"re": [str(re[0]), str(re[1])], "im": [str(im[0]), str(im[1])]}}


def _read(doc):
    """The reader's outcome, a number or None for SchemaError, in bounded time."""
    t0 = time.perf_counter()
    try:
        out = jsonio.algnum_from_json(doc)
    except jsonio.SchemaError:
        out = None
    elapsed = time.perf_counter() - t0
    assert elapsed < PER_INPUT_S, "%.1f s for %r" % (elapsed, doc)
    assert out is None or isinstance(out, AlgebraicNumber)
    return out


_small = st.fractions(min_value=-8, max_value=8, max_denominator=16)


@st.composite
def _catalog_documents(draw):
    factors = draw(st.lists(st.integers(0, len(CATALOG) - 1), min_size=1, max_size=4,
                            unique=True))
    mults = [draw(st.integers(1, 3)) for _ in factors]
    if draw(st.booleans()):
        # a power of the first factor brings the degree (at most 63 so far)
        # just below the cap
        degree = sum(m * CATALOG[k].degree for k, m in zip(factors, mults))
        mults[0] += (DEFAULT_DEGREE_CAP - degree) // CATALOG[factors[0]].degree
    poly = IntPolynomial([draw(st.sampled_from([1, -1, 2, -3]))])
    for k, m in zip(factors, mults):
        poly = poly * CATALOG[k] ** m
    roots = [z for k in factors for z in ROOTS[k]]
    kind = draw(st.sampled_from(["around", "point", "hull", "random"]))
    if kind == "around":
        z = draw(st.sampled_from(roots))
        grid = 1 << draw(st.integers(1, 48))
        lo = [Fraction(math.floor(p * grid) - 1, grid) for p in z]
        hi = [Fraction(math.ceil(p * grid) + 1, grid) for p in z]
        re, im = (lo[0], hi[0]), (lo[1], hi[1])
        if z[1] == 0:
            im = (Fraction(0), Fraction(0))
    elif kind == "point" and any(_exact(z) for z in roots):
        # a degenerate box on a root with rational parts
        z = draw(st.sampled_from([z for z in roots if _exact(z)]))
        re, im = (z[0], z[0]), (z[1], z[1])
    elif kind == "hull":
        z, w = draw(st.sampled_from(roots)), draw(st.sampled_from(roots))
        pad = Fraction(1, draw(st.sampled_from([1, 8, 1 << 20])))
        re = (min(z[0], w[0]) - pad, max(z[0], w[0]) + pad)
        im = (Fraction(0), Fraction(0))
        if z[1] or w[1]:
            im = (min(z[1], w[1]) - pad, max(z[1], w[1]) + pad)
    else:
        re = (draw(_small), draw(_small))
        im = draw(st.one_of(st.just((Fraction(0), Fraction(0))), st.tuples(_small, _small)))
    if draw(st.integers(0, 9)) == 0:
        re = re[::-1]
    return _doc(list(poly.coeffs), re, im), _expected(factors, re, im)


_field = st.one_of(st.integers(-40, 40), st.text("0123456789/-.e", max_size=5),
                   st.none(), st.booleans(), st.floats(allow_nan=False, width=16))


@st.composite
def _free_documents(draw):
    if draw(st.integers(0, 4)) == 0:  # malformed fields
        return {"minpoly": draw(st.one_of(st.lists(_field, max_size=4), _field)),
                "root": draw(st.one_of(
                    st.fixed_dictionaries({"re": st.lists(_field, max_size=3),
                                           "im": st.lists(_field, max_size=3)}),
                    st.fixed_dictionaries({"re": st.just(["0", "1"])}), _field))}
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=2, max_size=41))
    if any(coeffs[1:]) and draw(st.booleans()):
        # a box a few grid cells around a numerical root
        try:
            zs = mpmath.polyroots(IntPolynomial(coeffs).coeffs[::-1], maxsteps=200,
                                  extraprec=60)
        except mpmath.libmp.NoConvergence:
            zs = [mpmath.mpc(0)]
        z = draw(st.sampled_from(zs))
        grid = 1 << draw(st.integers(1, 40))
        re = [Fraction(math.floor(mpmath.re(z) * grid) + k, grid) for k in (-1, 1)]
        im = [Fraction(math.floor(mpmath.im(z) * grid) + k, grid) for k in (-1, 1)]
        if draw(st.booleans()):
            im = [0, 0]
        return _doc(coeffs, re, im)
    re = sorted([draw(_small), draw(_small)])
    im = draw(st.one_of(st.just([0, 0]), st.tuples(_small, _small).map(sorted)))
    return _doc(coeffs, re, im)


_SETTINGS = settings(max_examples=EXAMPLES, deadline=None, derandomize=True,
                     database=None, suppress_health_check=list(HealthCheck))


@_SETTINGS
@given(_catalog_documents())
def fuzz_catalog(case):
    doc, expected = case
    out = _read(doc)
    if expected is None:
        assert out is None, "accepted %r as %r" % (doc, out)
    else:
        factor, z = expected
        assert out is not None, "rejected %r" % (doc,)
        assert out.minpoly == factor
        assert abs(complex(out) - complex(float(z[0]), float(z[1]))) < 1e-9


@_SETTINGS
@given(_free_documents())
def fuzz_free(doc):
    out = _read(doc)
    if out is not None:
        poly = IntPolynomial(doc["minpoly"])
        assert out.minpoly.divides(poly)
        (a, b), (c, d) = [[Fraction(v) for v in doc["root"][k]] for k in ("re", "im")]
        box = out.box(Fraction(1, 1 << 60))
        assert box.re.lo <= b and a <= box.re.hi and box.im.lo <= d and c <= box.im.hi


def test_reader_fuzz():
    # 300 documents; about 5 s on a 2-core host
    run_with_deadline(
        "import sys\n"
        "sys.path.insert(0, %r)\n"
        "import test_jsonio_fuzz as t\n"
        "t.fuzz_catalog()\n"
        "t.fuzz_free()\n" % str(Path(__file__).resolve().parent), seconds=240)
