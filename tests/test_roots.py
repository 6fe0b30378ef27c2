import random
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import to_rational

from heightbounds.intervals import Interval
from heightbounds.polys import IntPolynomial, count_real_roots, parse_polynomial, squarefree_part
from heightbounds.roots import (IsolationError, RootBox, _aberth_seeds, _certify_upper_half,
                                isolate_real_roots, isolate_roots, krawczyk_passes,
                                refine_box, refine_complex_box, refine_real_box)

from conftest import LEHMER_TEXT, run_with_deadline


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
        assert krawczyk_passes(g, start)
        cplx = refine_complex_box(g, start, eps)
        for box in (real, cplx):
            assert box.width <= eps
            for x in (box.re.lo, box.re.hi, box.im.lo, box.im.hi):
                d = x.denominator
                assert d & (d - 1) == 0 and d <= 2**25 / eps


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


class TestKrawczyk:
    def test_passes_on_good_box(self):
        f = P("x^2+1")
        box = RootBox(Interval(Fraction(-1, 8), Fraction(1, 8)),
                      Interval(Fraction(7, 8), Fraction(9, 8)))
        assert krawczyk_passes(f, box)

    def test_fails_on_empty_box(self):
        f = P("x^2+1")
        box = RootBox(Interval(Fraction(2), Fraction(3)),
                      Interval(Fraction(2), Fraction(3)))
        assert not krawczyk_passes(f, box)

    def test_random_certificates(self):
        # spec-scale randomized audit: degree <= 12, |coeffs| <= 20
        rng = random.Random(31)
        done = 0
        while done < 8:
            cs = [rng.randint(-20, 20) for _ in range(rng.randint(2, 12))] + [rng.randint(1, 20)]
            f = squarefree_part(IntPolynomial(cs))
            if f.degree < 2:
                continue
            done += 1
            for b in isolate_roots(f):
                if b.is_real:
                    if b.re.width == 0:
                        assert f.sign_at(b.re.lo) == 0
                    else:
                        assert count_real_roots(f, b.re.lo, b.re.hi) == 1
                else:
                    assert krawczyk_passes(f, b)

    def test_nonreal_box_rejects_real_axis(self):
        with pytest.raises(IsolationError):
            RootBox(Interval(0, 1), Interval(Fraction(-1, 2), Fraction(1, 2)))


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
