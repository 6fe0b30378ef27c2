import random
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import to_rational

from heightbounds.intervals import Interval, IntervalError, Rect
from heightbounds.polys import IntPolynomial, count_real_roots, parse_polynomial, squarefree_part
from heightbounds.roots import (IsolationError, RootBox, _aberth_seeds, _certify_upper_half,
                                _grid_bits, _round_out, _subdivide, isolate_real_roots,
                                isolate_roots, refine_box, refine_complex_box, refine_real_box)

from conftest import LEHMER_TEXT, run_with_deadline
from test_intervals import _fraction_rect_inverse, _fraction_rect_mul


def P(text):
    return parse_polynomial(text)


class TestRealIsolation:
    def test_sqrt2(self):
        boxes = isolate_real_roots(P("x^2-2"))
        assert len(boxes) == 2
        assert float(boxes[0].re.hi) < 0 < float(boxes[1].re.lo)

    def test_counts_match(self):
        rng = random.Random(99)
        for _ in range(20):
            cs = [rng.randint(-20, 20) for _ in range(rng.randint(2, 12))] + [rng.randint(1, 20)]
            f = squarefree_part(IntPolynomial(cs))
            if f.degree < 1:
                continue
            boxes = isolate_real_roots(f)
            assert len(boxes) == count_real_roots(f)
            for i in range(len(boxes) - 1):
                assert boxes[i].re.hi < boxes[i + 1].re.lo
            for b in boxes:
                if b.re.width == 0:
                    assert f.sign_at(b.re.lo) == 0
                else:
                    assert count_real_roots(f, b.re.lo, b.re.hi) == 1

    def test_rational_root_point_box(self):
        # the rational root 1/2 sits exactly on no dyadic midpoint issue
        f = P("2*x-1") * P("x^2-2")
        boxes = isolate_real_roots(f.canonical())
        assert len(boxes) == 3


class TestRefinement:
    def test_golden_digits(self):
        f = P("x^2-x-1")
        box = isolate_real_roots(f)[1]
        ref = refine_real_box(f, box, Fraction(1, 10**12))
        assert ref.re.width <= Fraction(1, 10**12)
        # quadratic formula oracle
        assert abs(float(ref.re.mid) - 1.618033988749895) < 1e-11

    def test_monotone_containment(self):
        f = P("x^3-x-1")
        box = isolate_real_roots(f)[0]
        ref = refine_real_box(f, box, Fraction(1, 10**6))
        assert box.re.contains_interval(ref.re)
        ref2 = refine_real_box(f, ref, Fraction(1, 10**9))
        assert ref.re.contains_interval(ref2.re)

    def test_eps_validation(self):
        f = P("x^2-2")
        box = isolate_real_roots(f)[1]
        with pytest.raises(IsolationError):
            refine_real_box(f, box, Fraction(0))

    def test_nonreal_box_meeting_axis_rejected(self):
        for im in (Interval(-1, 1), Interval(0, 1), Interval(-1, 0)):
            with pytest.raises(IsolationError):
                RootBox(Interval(1, 2), im)
        assert RootBox(Interval(1, 2), Interval(0)).is_real
        assert not RootBox(Interval(1, 2), Interval(Fraction(-1, 3), Fraction(-1, 7))).is_real

    def test_complex_refine(self):
        f = P("x^2+1")
        box = [b for b in isolate_roots(f) if not b.is_real and b.im.lo > 0][0]
        ref = refine_box(f, box, Fraction(1, 10**6))
        assert ref.width <= Fraction(1, 10**6)
        assert abs(float(ref.re.mid)) < 1e-6 and abs(float(ref.im.mid) - 1) < 1e-6
        assert box.re.contains_interval(ref.re) and box.im.contains_interval(ref.im)

    def test_endpoints_on_dyadic_grid(self):
        # moved endpoints lie on a dyadic grid about 2^-24 below eps, so
        # their denominators are powers of two bounded by eps alone
        eps = Fraction(1, 10**12)
        f = P("x^3-x-1")
        real = refine_real_box(f, isolate_real_roots(f)[0], eps)
        g = P("x^2+1")
        start = RootBox(Interval(Fraction(-1, 8), Fraction(1, 4)),
                        Interval(Fraction(7, 8), Fraction(5, 4)))
        cplx = refine_complex_box(g, start, eps)
        for box in (real, cplx):
            assert box.width <= eps
            for x in (box.re.lo, box.re.hi, box.im.lo, box.im.hi):
                d = x.denominator
                assert d & (d - 1) == 0 and d <= 2**25 / eps


# ---------------------------------------------------------------------------
# Frozen reference: both refiners as they were written in Fraction interval
# arithmetic, before their loops moved to integers.  The integer refiners
# must return the same endpoints wherever this returns.


def _ref_sign(f, x):
    v = f(x)
    return (v > 0) - (v < 0)


def _ref_interval_horner(coeffs, x: Interval) -> Interval:
    acc = Interval(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _ref_rect_horner(coeffs, z: Rect) -> Rect:
    acc = Rect(Interval(0), Interval(0))
    for c in reversed(coeffs):
        acc = _fraction_rect_mul(acc, z) + Rect(Interval(c), Interval(0))
    return acc


def _ref_point_horner(coeffs, zr, zi):
    ar, ai = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        ar, ai = ar * zr - ai * zi + c, ar * zi + ai * zr
    return ar, ai


def _ref_round_out(iv: Interval, bits: int) -> Interval:
    scale = 1 << bits
    return Interval(Fraction(iv.lo.numerator * scale // iv.lo.denominator, scale),
                    Fraction(-(-iv.hi.numerator * scale // iv.hi.denominator), scale))


def _ref_grid_point(x: Fraction, bits: int) -> Fraction:
    return Fraction((x.numerator << bits) // x.denominator, 1 << bits)


def _ref_refine_real(f, box, eps):
    lo, hi = box.re.lo, box.re.hi
    if lo == hi:
        return box
    s_lo = _ref_sign(f, lo)
    if s_lo == 0:
        return RootBox(Interval(lo, lo))
    bits = _grid_bits(eps)
    deriv = f.derivative().coeffs
    while hi - lo > eps:
        d_iv = _ref_interval_horner(deriv, Interval(lo, hi))
        stepped = False
        if not d_iv.contains(0):
            m = (lo + hi) / 2
            fm = Fraction(f(m))
            if fm == 0:
                return RootBox(Interval(m, m))
            n_iv = Interval(m) - Interval(fm) / d_iv
            nlo, nhi = max(n_iv.lo, lo), min(n_iv.hi, hi)
            if nlo <= nhi and (nhi - nlo) <= (hi - lo) * Fraction(3, 4):
                g = _ref_round_out(Interval(nlo, nhi), bits)
                nlo, nhi = max(g.lo, lo), min(g.hi, hi)
                s_nlo, s_nhi = _ref_sign(f, nlo), _ref_sign(f, nhi)
                if s_nlo == 0:
                    return RootBox(Interval(nlo, nlo))
                if s_nhi == 0:
                    return RootBox(Interval(nhi, nhi))
                if s_nlo * s_nhi < 0:
                    lo, hi, s_lo = nlo, nhi, s_nlo
                    stepped = True
        if not stepped:
            m = _ref_grid_point((lo + hi) / 2, bits)
            sm = _ref_sign(f, m)
            if sm == 0:
                return RootBox(Interval(m, m))
            if sm == s_lo:
                lo = m
            else:
                hi = m
    return RootBox(Interval(lo, hi))


def _ref_derivative_enclosure(f, x: Rect) -> Rect:
    deriv = f.derivative()
    raw = _ref_rect_horner(deriv.coeffs, x)
    if f.degree < 2:
        return raw
    mr, mi = x.mid()
    dr, di = _ref_point_horner(deriv.coeffs, mr, mi)
    d2 = _ref_rect_horner(deriv.derivative().coeffs, x)
    taylor = Rect(Interval(dr), Interval(di)) + _fraction_rect_mul(
        d2, x - Rect(Interval(mr), Interval(mi)))
    try:
        return Rect(taylor.re.intersect(raw.re), taylor.im.intersect(raw.im))
    except IntervalError:
        return taylor


def _ref_krawczyk(f, box):
    mr, mi = box.mid()
    fr, fi = _ref_point_horner(f.coeffs, mr, mi)
    dr, di = _ref_point_horner(f.derivative().coeffs, mr, mi)
    norm = dr * dr + di * di
    if norm == 0:
        return False
    c = Rect(Interval(dr / norm), Interval(-di / norm))
    mid = Rect(Interval(mr), Interval(mi))
    one_minus = Rect(Interval(1), Interval(0)) - _fraction_rect_mul(
        c, _ref_derivative_enclosure(f, box))
    k = (mid - _fraction_rect_mul(c, Rect(Interval(fr), Interval(fi)))
         + _fraction_rect_mul(one_minus, box - mid))
    return (box.re.lo < k.re.lo and k.re.hi < box.re.hi
            and box.im.lo < k.im.lo and k.im.hi < box.im.hi)


def _ref_quadrisect(f, box, bits):
    for off in (Fraction(1, 2), Fraction(17, 32), Fraction(15, 32),
                Fraction(9, 16), Fraction(7, 16)):
        cuts = [max(iv.lo, _ref_grid_point(iv.lo + (iv.hi - iv.lo) * off, bits))
                for iv in (box.re, box.im)]
        for r_part in (Interval(box.re.lo, cuts[0]), Interval(cuts[0], box.re.hi)):
            for i_part in (Interval(box.im.lo, cuts[1]), Interval(cuts[1], box.im.hi)):
                sub = RootBox(r_part, i_part)
                if not _ref_rect_horner(f.coeffs, sub).contains_zero():
                    continue
                if _ref_krawczyk(f, sub):
                    return sub
    raise IsolationError("quadrisection failed to re-certify a sub-box")


def _ref_refine_complex(f, box, eps):
    bits = _grid_bits(eps)
    cur = box
    while cur.width > eps:
        mr, mi = cur.mid()
        d_iv = _ref_derivative_enclosure(f, cur)
        stepped = False
        if not d_iv.contains_zero():
            fr, fi = _ref_point_horner(f.coeffs, mr, mi)
            n = Rect(Interval(mr), Interval(mi)) - _fraction_rect_mul(
                Rect(Interval(fr), Interval(fi)), _fraction_rect_inverse(d_iv))
            nre, nim = n.re.intersect(cur.re), n.im.intersect(cur.im)
            if max(nre.width, nim.width) <= cur.width * Fraction(3, 4):
                cur = RootBox(_ref_round_out(nre, bits).intersect(cur.re),
                              _ref_round_out(nim, bits).intersect(cur.im))
                stepped = True
        if not stepped:
            cur = _ref_quadrisect(f, cur, bits)
    return cur


def _corners(box):
    return box.re.lo, box.re.hi, box.im.lo, box.im.hi


class TestIntegerRefinement:
    """Both refiners run on integers over one common denominator; they must
    return the frozen Fraction reference's boxes, endpoint for endpoint."""

    # coarse widths stop after a step or two, before every path has
    # converged onto the same grid cells
    EPS = ([Fraction(1, 1 << k) for k in (16, 40, 64, 128, 256)]
           + [Fraction(1, 10**12), Fraction(1, 4), Fraction(2, 7)])

    def _check(self, f, box, eps):
        got = refine_box(f, box, eps)
        ref = (_ref_refine_real if box.is_real else _ref_refine_complex)(f, box, eps)
        assert _corners(got) == _corners(ref) and got.is_real == ref.is_real
        assert got.width <= eps
        return got

    def test_random_isolating_boxes(self):
        rng = random.Random(20161011)
        done = 0
        while done < 14:
            cs = [rng.randint(-30, 30) for _ in range(rng.randint(2, 12))] + [rng.randint(1, 30)]
            f = squarefree_part(IntPolynomial(cs))
            if f.degree < 2:
                continue
            done += 1
            boxes = isolate_roots(f)
            for box in boxes:
                if box.is_real or box.im.lo > 0:
                    self._check(f, box, rng.choice(self.EPS))

    def test_non_dyadic_real_endpoints(self):
        # root_bound is 1 + m/lead, so the outer isolating boxes have
        # non-dyadic endpoints
        f = P("3*x^3-7*x-5")
        outer = isolate_real_roots(f)
        assert any(x.denominator & (x.denominator - 1) for b in outer for x in (b.re.lo, b.re.hi))
        for eps in self.EPS:
            for box in outer:
                self._check(f, box, eps)
            # wide boxes with non-dyadic corners: weak derivative bounds, a
            # critical point, a complex box
            self._check(P("x^2-2"), RootBox(Interval(Fraction(1, 3), Fraction(17, 3))), eps)
            self._check(P("x^3-x-1"), RootBox(Interval(Fraction(1, 3), Fraction(7, 3))), eps)
            self._check(P("x^2+1"), RootBox(Interval(Fraction(-1, 3), Fraction(1, 5)),
                                            Interval(Fraction(2, 3), Fraction(9, 7))), eps)

    def test_complex_seeds_finer_than_grid(self):
        # roots near 10^-20: the 53-bit seeds have denominators near 2^120,
        # finer than the 2^-48 grid of eps = 2^-16
        for f in (IntPolynomial([1, 0, 10**40]), IntPolynomial([2, 2 * 10**20, 10**40]),
                  IntPolynomial([1, 0, 10**40]) * P("x^2+x+1")):
            for box in isolate_roots(f):
                if not box.is_real and box.im.lo > 0:
                    grid = 1 << _grid_bits(self.EPS[0])
                    assert max(x.denominator for x in _corners(box)) > grid
                    for eps in self.EPS:
                        self._check(f, box, eps)

    def test_rational_roots_on_grid(self):
        # a root at the midpoint, at a bisection point or at a Newton
        # endpoint ends refinement with a point box
        f = P("8*x-3") * P("2*x-1") * P("x^2-3")
        cases = [(f, Fraction(1, 3), Fraction(5, 12)),  # f(m) = 0
                 (f, Fraction(5, 16), Fraction(7, 16)),  # f' holds 0; bisection meets 3/8
                 (P("8*x-3"), Fraction(0), Fraction(1)),  # Newton lands on 3/8
                 (P("8*x-3"), Fraction(1, 4), Fraction(5, 12))]
        for g, lo, hi in cases:
            for eps in self.EPS[:6]:
                assert self._check(g, RootBox(Interval(lo, hi)), eps).re.width == 0

    def test_quadrisection_descends(self):
        # each box holds the root i alone, and the reference's Krawczyk test
        # certifies no sub-box of one split.  The first also holds the
        # critical point i sqrt(5/2) of (x^2+1)(x^2+4), so the Newton test
        # fails, and i sits on the centred cut re = 0
        cases = [(P("x^4+5*x^2+4"), RootBox(Interval(Fraction(-1, 2), Fraction(1, 2)),
                                            Interval(Fraction(1, 2), Fraction(17, 10)))),
                 (P("x^2+1"), RootBox(Interval(Fraction(-2, 3), Fraction(1, 5)),
                                      Interval(Fraction(1, 7), Fraction(9, 5))))]
        for f, box in cases:
            with pytest.raises(IsolationError):
                _ref_refine_complex(f, box, Fraction(1, 1 << 64))
            got = refine_complex_box(f, box, Fraction(1, 1 << 64))
            assert got.width <= Fraction(1, 1 << 64)
            assert got.re.contains(0) and got.im.contains(1)
            assert box.contains_rect(got)

    def test_round_out_contains(self):
        # [lo, hi] / (k D) widened onto the grid of step g / D, then met
        # with [a, b] / D
        rng = random.Random(5)
        for _ in range(200):
            g, k = rng.randint(1, 50), rng.randint(1, 10**6)
            a = rng.randint(-10**9, 10**9)
            b = a + rng.randint(0, 10**9)
            lo = rng.randint(a * k, b * k)
            hi = rng.randint(lo, b * k)
            nlo, nhi = _round_out(lo, hi, k, g, a, b)
            assert a <= nlo and nhi <= b
            assert Fraction(nlo) <= Fraction(lo, k) and Fraction(hi, k) <= Fraction(nhi)
            assert nlo == a or (nlo % g == 0 and Fraction(lo, k) - nlo < g)
            assert nhi == b or (nhi % g == 0 and nhi - Fraction(hi, k) < g)


class TestComplexIsolation:
    def test_primitive_cube_roots(self):
        boxes = isolate_roots(P("x^2+x+1"))
        assert len(boxes) == 2 and not any(b.is_real for b in boxes)
        ups = [b for b in boxes if b.im.lo > 0]
        assert len(ups) == 1
        b = refine_box(P("x^2+x+1"), ups[0], Fraction(1, 10**8))
        assert abs(float(b.re.mid) + 0.5) < 1e-7
        assert abs(float(b.im.mid) - 0.8660254037844386) < 1e-7

    def test_lehmer(self):
        f = P(LEHMER_TEXT)
        boxes = isolate_roots(f)
        assert len(boxes) == 10
        assert sum(b.is_real for b in boxes) == 2

    def test_mirror_pairs(self):
        rng = random.Random(17)
        for _ in range(10):
            cs = [rng.randint(-20, 20) for _ in range(rng.randint(2, 12))] + [rng.randint(1, 20)]
            f = squarefree_part(IntPolynomial(cs))
            if f.degree < 1:
                continue
            boxes = isolate_roots(f)
            assert len(boxes) == f.degree
            nonreal = [b for b in boxes if not b.is_real]
            for b in nonreal:
                assert any(b2.re == b.re and b2.im.lo == -b.im.hi
                           and b2.im.hi == -b.im.lo for b2 in nonreal)
            # pairwise disjoint
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    assert not boxes[i].intersects(boxes[j])

    def test_real_box_count_matches_sturm(self):
        rng = random.Random(23)
        for _ in range(10):
            cs = [rng.randint(-20, 20) for _ in range(rng.randint(2, 10))] + [rng.randint(1, 20)]
            f = squarefree_part(IntPolynomial(cs))
            if f.degree < 1:
                continue
            boxes = isolate_roots(f)
            assert sum(b.is_real for b in boxes) == count_real_roots(f)

    def test_close_real_roots_separate(self):
        # the sum resultant of roots of x^3+2x^2+2x-1 and 2x^2+4x+1: exact
        # Newton endpoints grew without bound while neighbouring boxes were
        # separated, unless refinement rounded them
        run_with_deadline(
            "from heightbounds.polys import IntPolynomial\n"
            "from heightbounds.roots import isolate_roots\n"
            "boxes = isolate_roots(IntPolynomial([-23, 332, 774, 704, 332, 80, 8]))\n"
            "assert len(boxes) == 6\n"
            "assert not any(a.intersects(b) for i, a in enumerate(boxes)"
            " for b in boxes[i + 1:])\n")

    def test_boxes_certified_against_mpmath(self):
        # every numeric root falls in exactly one certified box
        f = P(LEHMER_TEXT)
        boxes = isolate_roots(f)
        with mpmath.workdps(40):
            roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(f.coeffs)],
                                     maxsteps=100, extraprec=100)
        for z in roots:
            hits = 0
            for b in boxes:
                if (float(b.re.lo) - 1e-25 <= float(mpmath.re(z)) <= float(b.re.hi) + 1e-25
                        and float(b.im.lo) - 1e-25 <= float(mpmath.im(z)) <= float(b.im.hi) + 1e-25):
                    hits += 1
            assert hits == 1

    def test_clustered_roots_escalate(self):
        # 10^k (x^2+1)^2 + 1 has two pairs of roots 10^(-k/2) apart; 53-bit
        # seeds cannot tell them apart, so seeding escalates
        run_with_deadline(
            "from heightbounds.polys import IntPolynomial\n"
            "from heightbounds.roots import isolate_roots\n"
            "for k in (30, 60):\n"
            "    f = IntPolynomial([10**k + 1, 0, 2 * 10**k, 0, 10**k])\n"
            "    boxes = isolate_roots(f)\n"
            "    assert len(boxes) == 4 and not any(b.is_real for b in boxes)\n"
            "    assert not any(a.intersects(b) for i, a in enumerate(boxes)"
            " for b in boxes[i + 1:])\n", seconds=10)

    def test_degree_cap(self):
        # irreducible polynomials at the composite degree cap
        run_with_deadline(
            "from heightbounds.polys import count_real_roots, parse_polynomial\n"
            "from heightbounds.roots import isolate_roots\n"
            "for text in ('x^64-2', 'x^63-x-1', 'x^64+1', 'x^62+3*x^31+1'):\n"
            "    f = parse_polynomial(text)\n"
            "    boxes = isolate_roots(f)\n"
            "    assert len(boxes) == f.degree\n"
            "    assert sum(b.is_real for b in boxes) == count_real_roots(f)\n", seconds=20)


class TestWeierstrassCertificate:
    def test_refuses_coincident_or_moved_seeds(self):
        for text in (LEHMER_TEXT, "x^10-3*x^7+x^4+2*x+5", "x^8+x^3-1"):
            f = P(text)
            n_real = count_real_roots(f)
            seeds = _aberth_seeds(f, 53)
            assert _certify_upper_half(f, seeds, n_real) is not None
            for k in range(f.degree):
                twin = seeds[:k] + [seeds[k - 1]] + seeds[k + 1:]
                moved = seeds[:k] + [(seeds[k][0] + Fraction(1, 10), seeds[k][1])] + seeds[k + 1:]
                assert _certify_upper_half(f, twin, n_real) is None
                assert _certify_upper_half(f, moved, n_real) is None

    def test_each_box_holds_one_root(self):
        rng = random.Random(41)
        done = 0
        while done < 12:
            cs = [rng.randint(-20, 20) for _ in range(rng.randint(2, 16))] + [rng.randint(1, 20)]
            f = squarefree_part(IntPolynomial(cs))
            if f.degree < 2 or count_real_roots(f) == f.degree:
                continue
            done += 1
            upper = _certify_upper_half(f, _aberth_seeds(f, 53), count_real_roots(f))
            assert upper is not None and 2 * len(upper) == f.degree - count_real_roots(f)
            with mpmath.workdps(60):
                zs = mpmath.polyroots(list(reversed(f.coeffs)), maxsteps=500, extraprec=300)
                zs = [(Fraction(*to_rational(mpmath.mpf(z.real)._mpf_)),
                       Fraction(*to_rational(mpmath.mpf(z.imag)._mpf_))) for z in zs]
            for b in upper:
                assert b.im.lo > 0
                assert sum(b.re.lo <= x <= b.re.hi and b.im.lo <= y <= b.im.hi
                           for x, y in zs) == 1


# 20 seeded squarefree polynomials of degree 2-12, coefficients up to 30 and
# up to 10^12 in turn; for each, a box around one upper root that 60-digit
# mpmath roots show to hold that root alone, refined to 2^-64
WIDE_BOXES = """
import random
from fractions import Fraction
import mpmath
from mpmath.libmp import to_rational
from heightbounds.intervals import Interval
from heightbounds.polys import IntPolynomial, squarefree_part
from heightbounds.roots import RootBox, refine_complex_box

def exact(x):
    return Fraction(*to_rational(mpmath.mpf(x)._mpf_))

rng = random.Random(1)
eps = Fraction(1, 1 << 64)
done = 0
while done < 20:
    bound = 10**12 if done % 2 else 30
    cs = [rng.randint(-bound, bound) for _ in range(rng.randint(2, 12))]
    f = squarefree_part(IntPolynomial(cs + [rng.randint(1, bound)]))
    if f.degree < 2:
        continue
    with mpmath.workdps(60):
        zs = mpmath.polyroots(list(reversed(f.coeffs)), maxsteps=500, extraprec=300)
        k = rng.randrange(len(zs))
        if zs[k].imag <= 0:
            continue
        sep = min(abs(zs[k] - z) for j, z in enumerate(zs) if j != k)
        w = exact(sep * rng.uniform(0.2, 0.45))
        roots = [(exact(z.real), exact(z.imag)) for z in zs]
    x, y = roots[k]
    den = 10 ** max(3, 3 - int(mpmath.floor(mpmath.log10(w))))
    re_lo = Fraction(int((x - w * Fraction(rng.randint(1, 9), 10)) * den), den)
    im_lo = Fraction(int((y - w * Fraction(rng.randint(1, 9), 10)) * den), den)
    re, im = Interval(re_lo, re_lo + w), Interval(im_lo, im_lo + w)
    if [j for j, (u, v) in enumerate(roots) if re.contains(u) and im.contains(v)] != [k]:
        continue
    if im.lo <= 0:
        continue
    done += 1
    box = RootBox(re, im)
    got = refine_complex_box(f, box, eps)
    assert got.width <= eps and box.contains_rect(got)
    assert got.re.contains(x) and got.im.contains(y)
"""


class TestKrawczyk:
    """Randomised audit of the boxes `isolate_roots` returns. Non-real boxes
    are now certified by Weierstrass discs rather than a Krawczyk test; the
    audit checks them against 60-digit mpmath roots and refines each one."""

    def test_random_certificates(self):
        # spec-scale randomized audit: degree <= 12, |coeffs| <= 20
        rng = random.Random(31)
        eps = Fraction(1, 1 << 64)
        done = 0
        while done < 8:
            cs = [rng.randint(-20, 20) for _ in range(rng.randint(2, 12))] + [rng.randint(1, 20)]
            f = squarefree_part(IntPolynomial(cs))
            if f.degree < 2:
                continue
            done += 1
            with mpmath.workdps(60):
                zs = mpmath.polyroots(list(reversed(f.coeffs)), maxsteps=500, extraprec=300)
                zs = [(Fraction(*to_rational(mpmath.mpf(z.real)._mpf_)),
                       Fraction(*to_rational(mpmath.mpf(z.imag)._mpf_))) for z in zs]
            for b in isolate_roots(f):
                if b.is_real:
                    if b.re.width == 0:
                        assert f.sign_at(b.re.lo) == 0
                    else:
                        assert count_real_roots(f, b.re.lo, b.re.hi) == 1
                else:
                    inside = [(x, y) for x, y in zs
                              if b.re.lo <= x <= b.re.hi and b.im.lo <= y <= b.im.hi]
                    assert len(inside) == 1
                    got = refine_complex_box(f, b, eps)
                    assert got.width <= eps and b.contains_rect(got)


class TestRootBox:
    def test_nonreal_box_rejects_real_axis(self):
        with pytest.raises(IsolationError):
            RootBox(Interval(0, 1), Interval(Fraction(-1, 2), Fraction(1, 2)))


class TestSubdivision:
    """Where a Newton step does not contract, `refine_complex_box` cuts the
    box into quarters and keeps the ones that interval evaluation cannot
    exclude."""

    def test_wide_boxes_refine(self):
        # boxes 0.2-0.45 of the root separation wide around an upper root,
        # with decimal corners: the Newton test fails on nearly all of them
        # at first, so subdivision runs
        run_with_deadline(WIDE_BOXES, seconds=20)

    def test_rootless_box_raises(self):
        eps = Fraction(1, 1 << 64)
        f = P("x^2+1")
        # [2, 3] x [2, 3] holds no root: Newton's step finds that, and so
        # does subdivision, where no quarter survives
        with pytest.raises(IsolationError):
            refine_complex_box(f, RootBox(Interval(2, 3), Interval(2, 3)), eps)
        with pytest.raises(IsolationError):
            _subdivide(f.coeffs, 512, 768, 512, 768, 256, 1, 0)
        # a box around the critical point i sqrt(5/2) of (x^2+1)(x^2+4),
        # where the Newton test fails, but no root
        box = RootBox(Interval(Fraction(-1, 4), Fraction(1, 4)),
                      Interval(Fraction(3, 2), Fraction(7, 4)))
        with pytest.raises(IsolationError):
            refine_complex_box(P("x^4+5*x^2+4"), box, eps)


class TestLazyNumerics:
    def test_import_and_real_work_load_no_mpmath(self):
        # 53-bit seeds are Python floats, so mpmath is loaded only when
        # seeding escalates: importing the package, a totally real height,
        # and non-real roots that certify at once need none
        out = run_with_deadline(
            "import sys\n"
            "import heightbounds\n"
            "from heightbounds import AlgebraicNumber, isolate_roots, parse_polynomial\n"
            "from heightbounds import weil_log_height\n"
            "print('mpmath' in sys.modules)\n"
            "f = parse_polynomial('x^2-x-1')\n"
            "weil_log_height(AlgebraicNumber(f, isolate_roots(f)[1]), bits=64)\n"
            "print('mpmath' in sys.modules)\n"
            "isolate_roots(parse_polynomial('x^4+x+1'))\n"
            "f, g = parse_polynomial('x^3-2'), parse_polynomial('x^2+x+1')\n"
            "p = AlgebraicNumber(f, isolate_roots(f)[0]) * AlgebraicNumber(g, isolate_roots(g)[0])\n"
            "print(p.is_real(), 'mpmath' in sys.modules)\n", 30)
        assert out.split() == ["False", "False", "False", "False"]
