import random
from fractions import Fraction

import pytest
import sympy

from heightbounds import algebraic, factor
from heightbounds.algebraic import (_WIDTHS, AlgebraicNumber, DegreeCapExceeded, SelectionError,
                                    _conjugates_in, _from_power_sums, _holds_root, _isolated,
                                    _power_sums, _resultant_product, _resultant_sum,
                                    as_algebraic, conjugate_box)
from heightbounds.factor import factor_over_rationals
from heightbounds.intervals import Interval, Rect, poly_eval_rect
from heightbounds.polys import IntPolynomial, parse_polynomial

from conftest import alg, run_with_deadline


def P(text):
    return parse_polynomial(text)


class TestConstruction:
    def test_from_rational(self):
        assert as_algebraic(2).minpoly == P("x-2")
        assert as_algebraic(Fraction(-1, 2)).minpoly == P("2*x+1")
        assert as_algebraic(0).minpoly == P("x")
        assert as_algebraic(0).is_zero()

    def test_from_root_reducible(self):
        from heightbounds.roots import refine_box
        f = P("x^2-1") * P("x^2-2")
        # isolate within the product: the box must exclude the nearby root 1
        box = refine_box(P("x^2-2"), _isolated(P("x^2-2"))[1], Fraction(1, 64))
        a = AlgebraicNumber.from_root(f, box)
        assert a.minpoly == P("x^2-2")

    def test_from_root_ambiguous_box_rejected(self):
        from heightbounds.algebraic import SelectionError
        f = P("x^2-1") * P("x^2-2")
        wide = _isolated(P("x^2-2"))[1]  # [3/4, 3/2] also holds the root 1
        if wide.re.lo <= 1 <= wide.re.hi:
            with pytest.raises(SelectionError):
                AlgebraicNumber.from_root(f, wide)

    def test_from_root_box_with_two_real_roots_rejected(self):
        run_with_deadline(
            "from heightbounds.algebraic import AlgebraicNumber, SelectionError\n"
            "from heightbounds.intervals import Interval\n"
            "from heightbounds.polys import parse_polynomial as P\n"
            "from heightbounds.roots import RootBox\n"
            "try:\n"
            "    AlgebraicNumber.from_root(P('x^2-2'), RootBox(Interval(-2, 2)))\n"
            "except SelectionError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('a box with two roots was accepted')\n", seconds=4)

    def test_box_without_root_rejected(self):
        from heightbounds.algebraic import SelectionError
        from heightbounds.intervals import Interval
        from heightbounds.roots import RootBox
        # the real root 0.7549 lies outside [-1, 0], which meets its
        # isolating box; the other two roots are non-real
        f = P("x^3+x^2-1")
        for make in (AlgebraicNumber.from_root, AlgebraicNumber):
            with pytest.raises(SelectionError):
                make(f, RootBox(Interval(-1, 0)))
        assert AlgebraicNumber.from_root(f, RootBox(Interval(0, 1))).sign() == 1

    def test_constructor_factors_the_polynomial(self, golden):
        from heightbounds.intervals import Interval
        from heightbounds.roots import RootBox
        from heightbounds.verify import CorollaryInstance, verify_corollary
        box = RootBox(Interval(Fraction(3, 2), 2))
        a = AlgebraicNumber(P("x^2-x-1") * P("x-5"), box)
        assert a.minpoly == P("x^2-x-1")
        assert a == golden
        assert a == AlgebraicNumber.from_root(P("x^2-x-1") * P("x-5"), box)
        assert verify_corollary(CorollaryInstance([a], a)).status == "equality-candidate"
        assert AlgebraicNumber(P("2*x^2-4"), RootBox(Interval(1, 2))).minpoly == P("x^2-2")

    def test_degree_one_rationals(self, sqrt2):
        from heightbounds.roots import RootBox
        made = [(as_algebraic(Fraction(7, 3)), Fraction(7, 3)),
                (AlgebraicNumber(P("3*x-7") * P("x^2-2"), RootBox(Interval(2, 3))),
                 Fraction(7, 3)),
                (as_algebraic(Fraction(7, 3)).neg(), Fraction(-7, 3)),
                (sqrt2 * sqrt2, Fraction(2))]
        for a, value in made:
            # every rational keeps its value, which as_fraction reads back
            assert a.is_rational() and a.as_fraction() == value
            assert a.as_fraction() is a.as_fraction()
            assert a.box() == RootBox(Interval(value)) and a.is_real()


class TestArithmetic:
    def test_sqrt2_plus_sqrt3(self, sqrt2, sqrt3):
        s = sqrt2 + sqrt3
        # oracle: Res_y(y^2-2, (x-y)^2-3) expanded by hand = x^4-10x^2+1
        assert s.minpoly == P("x^4-10*x^2+1")
        assert abs(float(s) - 3.1462643699419723) < 1e-12

    def test_cancellation_to_zero(self, sqrt2):
        assert (sqrt2 + sqrt2.neg()).is_zero()

    def test_inverse_golden(self, golden):
        # 1/phi = phi - 1; oracle: phi^2 = phi + 1
        inv = AlgebraicNumber.one() / golden
        assert inv.minpoly == P("x^2+x-1")
        assert abs(float(inv) - 0.6180339887498949) < 1e-12
        assert inv.equals(golden._add_rational(Fraction(-1)))

    def test_neg_reuses_mirrored_box(self, sqrt2):
        n = sqrt2.neg()
        assert n.minpoly == sqrt2.minpoly
        assert not n.equals(sqrt2)
        assert float(n) < 0

    def test_inv_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            as_algebraic(0).inv()

    def test_reversal_canonicalization(self, golden):
        # reversal of x^2-x-1 is -x^2-x+1, canonical x^2+x-1
        assert golden.inv().minpoly == P("x^2+x-1")

    def test_rational_fast_paths(self, sqrt2):
        a = sqrt2._add_rational(Fraction(3, 2))
        assert a.minpoly == P("4*x^2-12*x+1")
        b = sqrt2._mul_rational(Fraction(-2))
        assert b.minpoly == P("x^2-8")
        assert float(b) < 0
        assert sqrt2._add_rational(Fraction(0)) is sqrt2
        assert sqrt2._mul_rational(Fraction(1)) is sqrt2

    def test_pow(self, golden):
        sq = golden.pow(2)
        assert sq.equals(golden._add_rational(1))  # phi^2 = phi + 1

    def test_degree_cap(self, sqrt2, sqrt3):
        with pytest.raises(DegreeCapExceeded):
            sqrt2.add(sqrt3, cap=3)

    def test_complex_arithmetic(self):
        i = alg("x^2+1", 0)
        assert (i * i).as_fraction() == -1
        two_i = i + i
        assert two_i.minpoly == P("x^2+4")

    def test_minpoly_of_half_sqrt2(self, sqrt2):
        # oracle: inv(sqrt2) then times 1: minpoly 2x^2-1
        h = sqrt2.inv()
        assert h.minpoly == P("2*x^2-1")
        assert not h.is_algebraic_integer()


class TestEquality:
    def test_same_and_conjugate(self, sqrt2):
        other = alg("x^2-2", 1)
        assert sqrt2.equals(other)
        assert not sqrt2.equals(alg("x^2-2", 0))

    def test_other_types_compare_unequal(self, golden):
        assert not golden == 1 and not 1 == golden and not golden == None  # noqa: E711
        assert golden != 1 and golden != "golden"
        assert golden == alg("x^2-x-1", 1) and golden != alg("x^2-x-1", 0)

    def test_arithmetic_round_trip(self, sqrt2, sqrt3):
        assert ((sqrt2 + sqrt3) - sqrt3).equals(sqrt2)

    def test_equivalence_on_triples(self, golden, sqrt2):
        xs = [golden, alg("x^2-x-1", 1), AlgebraicNumber.one() / golden.inv(), sqrt2]
        for a in xs:
            assert a.equals(a)
            for b in xs:
                assert a.equals(b) == b.equals(a)
        assert xs[0].equals(xs[1]) and xs[1].equals(xs[2]) and xs[0].equals(xs[2])


class TestPredicates:
    def test_totally_real(self, sqrt2):
        assert sqrt2.is_totally_real()
        assert not alg("x^2+1", 0).is_totally_real()
        # discriminant of x^3-x-1 is negative: one real root only
        assert not alg("x^3-x-1", 0).is_totally_real()

    def test_algebraic_integer(self, golden):
        assert golden.is_algebraic_integer()
        assert not as_algebraic(Fraction(1, 2)).is_algebraic_integer()

    def test_sign(self, sqrt2):
        assert sqrt2.sign() == 1
        assert sqrt2.neg().sign() == -1
        assert as_algebraic(0).sign() == 0

    def test_approximate(self, golden):
        box = golden.approximate(Fraction(1, 10**9))
        assert box.width <= Fraction(1, 10**9)
        assert box.re.lo <= Fraction("1.618033988749894848") <= box.re.hi
        with pytest.raises(ValueError):
            golden.approximate(0)

    def test_conjugate_count(self, sqrt2, golden):
        for a in (sqrt2, golden, alg("x^3-x-1", 0)):
            cs = a.conjugate_boxes(Fraction(1, 1 << 16))
            assert len(cs) == a.degree
            assert all(b.width <= Fraction(1, 1 << 16) for b in cs)

    def test_box_refined_only_past_eps(self):
        from heightbounds.algebraic import conjugate_box
        for f in (P("x^3-x-1"), P("x^2+x+1"), P("3*x^2-7")):
            for i in range(f.degree):
                box = conjugate_box(f, i)
                assert conjugate_box(f, i, box.width) is box
                eps = box.width * Fraction(2, 3)
                assert conjugate_box(f, i, eps).width <= eps

    def test_totally_real_closed_under_addition(self):
        rng = random.Random(55)
        pool = ["x^2-2", "x^2-3", "x^2-x-1", "x^2-5", "x^2-2*x-1"]
        for _ in range(8):
            a = alg(rng.choice(pool), rng.randrange(2))
            b = alg(rng.choice(pool), rng.randrange(2))
            assert a.is_totally_real() and b.is_totally_real()
            assert (a + b).is_totally_real()


class TestRealFirst:
    def test_real_arithmetic_certifies_no_nonreal_root(self, monkeypatch):
        # the composed sum and product of x^3-2 and x^3-3 have non-real roots;
        # real values are selected among the real conjugates alone
        from heightbounds import algebraic as algebraic_mod
        from heightbounds import roots as roots_mod

        def refuse(*args):
            raise AssertionError("a non-real root was certified")

        for cache in (algebraic_mod._isolated, algebraic_mod._isolated_real,
                      algebraic_mod.conjugate_box):
            cache.cache_clear()
        monkeypatch.setattr(roots_mod, "_certify_upper_half", refuse)
        a = AlgebraicNumber(P("x^3-2"), Rect(Interval(1, 2), Interval(0)))
        b = AlgebraicNumber(P("x^3-3"), Rect(Interval(1, 2), Interval(0)))
        s, p = a + b, a * b
        assert s.degree == 9 and s.is_real() and abs(float(s) - 2.7021706) < 1e-6
        assert p.minpoly == P("x^3-6") and p.is_real()
        assert (a * b) / b == a
        assert a.sign() == 1 and (a - b).sign() == -1


class TestRepr:
    def test_digits_are_certified(self, sqrt2, golden):
        assert repr(sqrt2) == "AlgebraicNumber(x^2 - 2 @ ~1.41421)"
        assert repr(as_algebraic(3) - golden) == "AlgebraicNumber(x^2 - 5*x + 5 @ ~1.38197)"
        assert ({repr(alg("x^2+x+1", i)) for i in range(2)}
                == {"AlgebraicNumber(x^2 + x + 1 @ ~-0.5+0.866025i)",
                    "AlgebraicNumber(x^2 + x + 1 @ ~-0.5-0.866025i)"})


class TestAgainstSympyMinpoly:
    def test_random_sums_products(self):
        x = sympy.Symbol("x")
        rng = random.Random(2718)
        pool = ["x^2-2", "x^2-3", "x^2-x-1", "x^3-x-1", "x^2+1"]
        for _ in range(6):
            ta, tb = rng.choice(pool), rng.choice(pool)
            a_poly, b_poly = P(ta), P(tb)
            ia, ib = rng.randrange(a_poly.degree), rng.randrange(b_poly.degree)
            a, b = alg(ta, ia), alg(tb, ib)
            s = a + b
            za = sympy.CRootOf(sum(c * x ** i for i, c in enumerate(a_poly.coeffs)), ia)
            zb = sympy.CRootOf(sum(c * x ** i for i, c in enumerate(b_poly.coeffs)), ib)
            expected = sympy.minimal_polynomial(za + zb, x)
            got = sum(c * x ** i for i, c in enumerate(s.minpoly.coeffs))
            q = sympy.simplify(expected / got)
            assert q.is_number and q != 0


class TestComposedAgainstSympyResultant:
    """The composed sum, product and n-th power equal sympy's resultants up to
    a rational constant, so their canonical forms agree."""

    @staticmethod
    def _canonical(expr, x):
        return IntPolynomial(int(c) for c in reversed(sympy.Poly(expr, x).all_coeffs())).canonical()

    def test_random_non_monic_pairs(self):
        x, y = sympy.symbols("x y")
        rng = random.Random(4711)
        for _ in range(60):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            f, g = ([rng.randint(-6, 6) for _ in range(k)] + [rng.choice((-3, -2, 2, 3, 5))]
                    for k in (m, n))
            fy = sum(c * y ** i for i, c in enumerate(f))
            F, G = IntPolynomial(f), IntPolynomial(g)
            summed = sympy.resultant(fy, sum(c * (x - y) ** i for i, c in enumerate(g)), y)
            assert _resultant_sum(F, G).canonical() == self._canonical(summed, x)
            product = sympy.resultant(fy, sum(c * x ** i * y ** (n - i) for i, c in enumerate(g)), y)
            assert _resultant_product(F, G).canonical() == self._canonical(product, x)
            k = rng.randint(2, 4)
            powered = _from_power_sums(_power_sums(F, m * k)[::k], F.lead ** k)
            assert powered.canonical() == self._canonical(sympy.resultant(fy, x - y ** k, y), x)

    def test_degree_cap_inputs_finish(self):
        run_with_deadline(
            "import random\n"
            "from heightbounds.algebraic import _resultant_product, _resultant_sum\n"
            "from heightbounds.polys import IntPolynomial\n"
            "rng = random.Random(64)\n"
            "f, g = (IntPolynomial([rng.randint(-10**6, 10**6) for _ in range(8)] + [999983])\n"
            "        for _ in range(2))\n"
            "assert _resultant_sum(f, g).degree == _resultant_product(f, g).degree == 64\n",
            seconds=5)


class TestFieldLawsRandom:
    def test_spot(self):
        rng = random.Random(777)
        count = 0
        while count < 30:
            deg = rng.randint(1, 3)
            cs = [rng.randint(-4, 4) for _ in range(deg)] + [rng.randint(1, 4)]
            f = IntPolynomial(cs)
            facs = [g for g, _ in factor_over_rationals(f) if g.degree >= 1]
            if not facs:
                continue
            g = rng.choice(facs)
            a = AlgebraicNumber(g, rng.choice(_isolated(g)))
            cs2 = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 4)]
            f2 = IntPolynomial(cs2)
            facs2 = [h for h, _ in factor_over_rationals(f2) if h.degree >= 1]
            if not facs2:
                continue
            h = rng.choice(facs2)
            b = AlgebraicNumber(h, rng.choice(_isolated(h)))
            count += 1
            assert ((a + b) - b).equals(a)
            if not b.is_zero():
                assert ((a * b) / b).equals(a)
                assert b.inv().inv().equals(b)


class TestCloseRoots:
    def test_sum_round_trip_with_close_resultant_roots(self):
        # isolating the sum resultant 8x^6+80x^5+332x^4+704x^3+774x^2+332x-23
        # needs bounded endpoints while neighbouring boxes are separated
        run_with_deadline(
            "from heightbounds.algebraic import AlgebraicNumber, _isolated\n"
            "from heightbounds.polys import parse_polynomial as P\n"
            "f, g = P('x^3+2x^2+2x-1'), P('2x^2+4x+1')\n"
            "a = AlgebraicNumber(f, _isolated(f)[0])\n"
            "b = AlgebraicNumber(g, _isolated(g)[0])\n"
            "s = a.add(b)\n"
            "assert s.minpoly == P('8x^6+80x^5+332x^4+704x^3+774x^2+332x-23')\n"
            "assert s.sub(b).equals(a)\n")


def eager_select(f, value, encloses=True, irreducible=False):
    """`algebraic._select` as it was before squarefree parts were filtered,
    frozen: every irreducible factor of f first, then the same schedule.
    Returns (minimal polynomial, root index)."""
    factors = [f] if irreducible else [g for g, _ in factor_over_rationals(f)]
    hits = []
    for eps in _WIDTHS:
        rect = value(eps)
        if len(factors) > 1:
            factors = [g for g in factors if poly_eval_rect(g.coeffs, rect).contains_zero()]
        if len(factors) < 2 or not encloses or eps is _WIDTHS[-1]:
            hits = [(g, i) for g in factors for i in _conjugates_in(
                g, rect, encloses and len(factors) == 1 or _holds_root(g, rect))]
            if len(hits) < 2 or not encloses:
                break
    if len(hits) != 1:
        raise SelectionError("the enclosure can hold %d roots, not one" % len(hits))
    return hits[0]


class TestSelectBeforeFactoring:
    """`_select` drops the squarefree parts whose enclosure excludes 0 and
    factors only what is left; it selects what factoring everything first
    selected."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """Routes every `_select` call through both paths and compares them;
        the list it returns collects each polynomial selected from."""
        real, calls = algebraic._select, []

        def both(f, value, encloses=True, irreducible=False):
            calls.append(f)
            try:
                ref = eager_select(f, value, encloses, irreducible)
            except SelectionError:
                with pytest.raises(SelectionError):
                    real(f, value, encloses, irreducible)
                raise
            got = real(f, value, encloses, irreducible)
            assert (got.minpoly, got._index) == ref, f
            return got
        monkeypatch.setattr(algebraic, "_select", both)
        return calls

    def test_round_trip_factors_no_composite_part(self, monkeypatch):
        # (a+b)-b for cubics: the composed sum has degree 27, minpoly(a)^3
        # times a degree-18 part with roots a_k + b_i - b_j (i != j), which
        # the enclosure of the value excludes before it would be factored
        real = factor.factor_squarefree_primitive

        def small_only(f):
            if f.degree > 9:
                raise AssertionError("factored a part of degree %d" % f.degree)
            return real(f)
        monkeypatch.setattr(factor, "factor_squarefree_primitive", small_only)
        factor._factorization.cache_clear()
        a, b = alg("x^3+2*x^2-x+5", 0), alg("x^3-4*x+1", 2)
        s = a + b
        assert _resultant_sum(s.minpoly, b.neg().minpoly).degree == 27
        assert (s - b).equals(a)

    def test_round_trips_finish(self):
        run_with_deadline(
            "import random\n"
            "from heightbounds.algebraic import AlgebraicNumber, _isolated\n"
            "from heightbounds.factor import is_irreducible\n"
            "from heightbounds.polys import IntPolynomial\n"
            "rng = random.Random(27)\n"
            "done = 0\n"
            "while done < 12:\n"
            "    a, b = (IntPolynomial([rng.randint(-5, 5) for _ in range(3)] + [1])\n"
            "            for _ in range(2))\n"
            "    if not (is_irreducible(a) and is_irreducible(b)):\n"
            "        continue\n"
            "    x, y = (AlgebraicNumber(f, rng.choice(_isolated(f))) for f in (a, b))\n"
            "    assert ((x + y) - y).equals(x) and ((x * y) / y).equals(x)\n"
            "    done += 1\n", seconds=15)

    def test_matches_eager_on_seeded_operands(self, checked):
        rng = random.Random(2210)
        numbers = []
        while len(numbers) < 12:
            f = IntPolynomial([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
                              + [rng.randint(1, 3)])
            g = rng.choice([g for g, _ in factor_over_rationals(f)] or [P("x-1")])
            if g.degree >= 2:
                numbers.append(AlgebraicNumber(g, rng.choice(_isolated(g))))
        for a, b in zip(numbers[::2], numbers[1::2]):
            assert ((a + b) - b).equals(a)
            assert ((a * b) / b).equals(a)
            assert a.pow(3).equals(a.pow(2) * a)
            assert b.inv().inv().equals(b)
        assert len(checked) > 30

    def test_matches_eager_on_repeated_parts(self, checked, sqrt2):
        other = alg("x^2-2", 0)
        assert sqrt2.pow(2).as_fraction() == 2               # (x-2)^2
        assert (sqrt2 * other).as_fraction() == -2           # (x+2)^2 (x-2)^2
        assert (sqrt2 + sqrt2).minpoly == P("x^2-8")         # x^2 (x^2-8)
        assert (sqrt2 + other).is_zero()                     # the x^2 part itself
        i = alg("x^2+1", 1)
        assert (i * i).as_fraction() == -1                   # (x+1)^2 (x-1)^2
        assert P("x^4-8*x^2") in checked

    @pytest.mark.parametrize("parts, lo, hi, minpoly", [
        ((("x^2-x-1", 2), ("x-5", 1)), "3/2", "2", "x^2-x-1"),
        ((("x", 3), ("x^2-2", 1)), "1", "3/2", "x^2-2"),
        ((("x", 3), ("x^2-2", 1)), "-1/4", "1/4", "x"),
        ((("x^2-2", 2), ("x^2-3", 1), ("x^3-x-1", 1)), "13/10", "27/20", "x^3-x-1"),
    ])
    def test_matches_eager_on_constructor_inputs(self, checked, parts, lo, hi, minpoly):
        f = IntPolynomial([1])
        for text, m in parts:
            f = f * P(text) ** m
        box = Rect(Interval(Fraction(lo), Fraction(hi)), Interval(0))
        assert AlgebraicNumber(f, box).minpoly == P(minpoly)
        assert len(checked) == 1

    def test_matches_eager_on_seeded_constructor_inputs(self, checked):
        rng = random.Random(5)
        for _ in range(40):
            parts = [IntPolynomial([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] + [1])
                     for _ in range(rng.randint(1, 3))]
            f = IntPolynomial([0, 1]) ** rng.randint(0, 2)
            for g in parts:
                f = f * g ** rng.randint(1, 2)
            g = rng.choice([g for g, _ in factor_over_rationals(f)])
            box = conjugate_box(g, rng.randrange(g.degree), Fraction(1, 1 << rng.randint(0, 12)))
            assert AlgebraicNumber(f, box).minpoly == g
        assert len(checked) == 40
