import random
from fractions import Fraction
from math import ceil, isqrt

import pytest

from heightbounds.algebraic import AlgebraicNumber, as_algebraic, conjugate_box
from heightbounds.factor import factor_over_rationals
from heightbounds.heights import (HeightError, HeightValue, MultiProjectivePoint,
                                  UnsupportedBlockShape, block_log_height,
                                  mahler_measure, point_log_height,
                                  rational_block_log_height, weil_log_height)
from heightbounds.intervals import Interval, sqrt_fraction_down, sqrt_fraction_up
from heightbounds.polys import IntPolynomial, cyclotomic_polynomial, is_cyclotomic, parse_polynomial

from conftest import (HALF_LN_PHI, LN_2, LN_PHI, M_LEHMER, PHI, SMYTH, alg)


def P(text):
    return parse_polynomial(text)


EPS9 = Fraction(1, 10**9)

# frozen oracle decimals carry ~40 digits; allow their rounding slack
SLACK = Fraction(1, 10**38)


def contains_const(iv, const):
    return iv.lo - SLACK <= const <= iv.hi + SLACK


class TestMahler:
    def test_linear(self):
        m = mahler_measure(P("x-2"), EPS9)
        assert m.lo <= 2 <= m.hi and m.width <= EPS9

    def test_golden(self):
        m = mahler_measure(P("x^2-x-1"), Fraction(1, 10**12))
        assert m.lo - SLACK <= PHI <= m.hi + SLACK

    def test_lehmer(self, lehmer_poly):
        m = mahler_measure(lehmer_poly, Fraction(1, 10**12))
        assert m.lo - SLACK <= M_LEHMER <= m.hi + SLACK

    def test_multiplicativity_on_products(self):
        f, g = P("x^2-x-1"), P("x-2")
        mf = mahler_measure(f, Fraction(1, 10**12))
        mg = mahler_measure(g, Fraction(1, 10**12))
        mfg = mahler_measure(f * g, Fraction(1, 10**12))
        prod = mf * mg
        assert prod.lo - Fraction(1, 10**10) <= mfg.hi
        assert mfg.lo <= prod.hi + Fraction(1, 10**10)

    def test_lower_bounds(self):
        rng = random.Random(12)
        for _ in range(15):
            cs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [rng.randint(1, 9)]
            f = IntPolynomial(cs)
            m = mahler_measure(f, EPS9)
            assert m.hi >= abs(f.lead) - EPS9
            if f.is_monic():
                assert m.hi >= 1 - EPS9

    def test_kronecker_factors_exact(self):
        # roots of unity and 0 contribute exactly 1, with no root isolation
        f = cyclotomic_polynomial(17) * cyclotomic_polynomial(19) * P("x^2") * P("x-2")
        m = mahler_measure(f, EPS9)
        assert m.lo == m.hi == 2

    def test_width_with_large_measure(self):
        # the first pass's box width is sized from eps and ||f||_2
        f = P("x^2-1000*x+1") ** 2 * P("x^2+x+5")
        eps = Fraction(1, 10**30)
        m = mahler_measure(f, eps)
        assert m.width <= eps and 10**5 < m.lo

    def test_zero_rejected(self):
        with pytest.raises(HeightError):
            mahler_measure(IntPolynomial(()), EPS9)
        with pytest.raises(HeightError):
            mahler_measure(P("x-1"), 0)


# ---------------------------------------------------------------------------
# Frozen reference: `_measure_of_parts` as it was written in Fraction
# interval arithmetic, before its products moved to integers.  The integer
# version must return the same interval.


def _ref_abs_interval(box, bits):
    if box.is_real:
        return box.re.abs()
    a2 = box.re.pow_int(2) + box.im.pow_int(2)
    return Interval(sqrt_fraction_down(max(a2.lo, Fraction(0)), bits),
                    sqrt_fraction_up(a2.hi, bits))


def _ref_measure_of_parts(f, parts, eps):
    parts = [(g, mult) for g, mult in parts
             if g.coeffs != (0, 1) and not is_cyclotomic(g)]
    n = f.degree
    landau = isqrt(sum(c * c for c in f.coeffs)) + 1
    k = max(ceil(4 * n * landau / eps).bit_length(), (4 * n).bit_length())
    while True:
        w = Fraction(1, 1 << k)
        total = Interval(abs(f.lead))
        for g, mult in parts:
            acc = Interval(1)
            for i in range(g.degree):
                b = conjugate_box(g, i)
                if (b.re.pow_int(2) + b.im.pow_int(2)).hi > 1:
                    a = _ref_abs_interval(conjugate_box(g, i, w), k + 4)
                    acc = acc * Interval(max(a.lo, 1), max(a.hi, 1))
            total = total * acc.pow_int(mult)
        if total.width <= eps:
            return total
        k += 16


class TestMahlerFractionReference:
    def test_equals_fraction_reference(self):
        rng = random.Random(20140612)
        extras = [P("x"), P("x^2"), cyclotomic_polynomial(3), cyclotomic_polynomial(8),
                  P("3*x-5"), P("7*x+2"), P("x^2+x+5"), P("2*x^2-3*x+7")]
        kinds = set()
        for _ in range(60):
            f = IntPolynomial([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
                              + [rng.randint(1, 4)])
            if f.degree < 1:
                continue
            f = f ** rng.choice((1, 1, 2))
            for g in rng.sample(extras, rng.randint(0, 2)):
                f = f * g ** rng.randint(1, 2)
            parts = factor_over_rationals(f)
            kinds.update(("multiple" for _, m in parts if m > 1))
            kinds.update(("x-or-cyclotomic" for g, _ in parts if is_cyclotomic(g) or g == P("x")))
            kinds.update(("non-real" for g, _ in parts
                          for i in range(g.degree) if not conjugate_box(g, i).is_real))
            kinds.update(("non-dyadic" for g, _ in parts
                          if g.degree == 1 and g.lead & (g.lead - 1)))
            eps = rng.choice((Fraction(1, 10**9), Fraction(1, 3), Fraction(1, 1 << 80)))
            assert mahler_measure(f, eps) == _ref_measure_of_parts(f, parts, eps), f
        assert kinds == {"multiple", "x-or-cyclotomic", "non-real", "non-dyadic"}


class TestWeilHeight:
    def test_kronecker_cases(self):
        assert weil_log_height(as_algebraic(1), 64).is_exact_zero()
        assert weil_log_height(as_algebraic(0), 64).is_exact_zero()
        assert weil_log_height(as_algebraic(-1), 64).is_exact_zero()

    def test_cyclotomics_up_to_conductor_20(self):
        from heightbounds.algebraic import _isolated
        for n in range(1, 21):
            f = cyclotomic_polynomial(n)
            a = AlgebraicNumber(f, _isolated(f)[0])
            assert weil_log_height(a, 64).is_exact_zero()

    def test_golden_half_log_phi(self, golden):
        h = weil_log_height(golden, 128)
        assert contains_const(h.log_height, HALF_LN_PHI)
        assert h.log_height.width <= Fraction(1, 1 << 120)

    def test_minimal_polynomial_not_factored(self, golden, monkeypatch):
        import heightbounds.heights as heights_mod

        def refuse(*_args):
            raise AssertionError("minimal polynomial factored")

        monkeypatch.setattr(heights_mod, "factor_over_rationals", refuse)
        h = weil_log_height(golden, 128)
        assert contains_const(h.log_height, HALF_LN_PHI)
        assert h.log_height.width <= Fraction(1, 1 << 120)

    def test_two(self):
        h = weil_log_height(as_algebraic(2), 128)
        assert contains_const(h.log_height, LN_2)

    def test_strictly_positive_for_noncyclotomic(self, golden, lehmer_poly):
        from heightbounds.algebraic import _isolated
        leh = AlgebraicNumber(lehmer_poly, _isolated(lehmer_poly)[0])
        for a in (golden, as_algebraic(2), leh):
            assert weil_log_height(a, 80).log_height.lo > 0

    def test_smyth_root_modulus(self):
        a = alg("x^3-x-1", 0)
        box = a.approximate(Fraction(1, 10**10))
        assert box.re.lo - SLACK <= SMYTH <= box.re.hi + SLACK

    def test_galois_invariance(self):
        h0 = weil_log_height(alg("x^3-x-1", 0), 96)
        h1 = weil_log_height(alg("x^3-x-1", 1), 96)
        assert h0.log_height == h1.log_height

    def test_square_multiplicativity(self):
        rng = random.Random(8)
        tol = Fraction(1, 10**9)
        pool = ["x^2-x-1", "x^2-2", "x^2-3", "x^2-x-3"]
        for text in pool:
            a = alg(text, rng.randrange(2))
            sq = a * a
            ha = weil_log_height(a, 96).log_height
            hsq = weil_log_height(sq, 96).log_height
            assert hsq.lo <= 2 * ha.hi + tol


class TestRationalBlocks:
    def test_basic(self):
        h = rational_block_log_height([1, 2], 96)
        assert contains_const(h.log_height, LN_2)

    def test_scale_invariance_exact(self):
        h1 = rational_block_log_height([1, 2], 96)
        h2 = rational_block_log_height([2, 4], 96)
        h3 = rational_block_log_height([Fraction(-1, 3), Fraction(-2, 3)], 96)
        assert h1.log_height == h2.log_height == h3.log_height

    def test_clearing_denominators(self):
        # (1/2, 1/3) ~ (3, 2): height log 3
        h = rational_block_log_height([Fraction(1, 2), Fraction(1, 3)], 96)
        ln3 = Fraction("1.098612288668109691395245236922525704647")
        assert contains_const(h.log_height, ln3)

    def test_unit_block_exact_zero(self):
        assert rational_block_log_height([1, -1, 0], 96).is_exact_zero()

    def test_all_zero_rejected(self):
        with pytest.raises(HeightError):
            rational_block_log_height([0, 0], 96)


class TestPointHeights:
    def test_single_golden_block(self, golden):
        p = MultiProjectivePoint([[1, golden]])
        h = point_log_height(p, 128)
        assert contains_const(h.log_height, LN_PHI)

    def test_equality_case_r2(self, golden):
        # blocks (1,1) and (1, phi-1): total 2 * (1/2) log phi
        p = MultiProjectivePoint([[1, 1], [1, golden._add_rational(-1)]])
        h = point_log_height(p, 128)
        assert contains_const(h.log_height, LN_PHI)

    def test_weighted_rational_block(self):
        p = MultiProjectivePoint([[3, 4, 5]])
        h = point_log_height(p, 96)
        three_ln5 = Fraction("4.828313737302301123802277999678562918577")
        assert contains_const(h.log_height, three_ln5)

    def test_scale_invariance_of_algebraic_block(self, golden):
        p1 = MultiProjectivePoint([[1, golden]])
        p2 = MultiProjectivePoint([[2, golden._mul_rational(2)]])
        h1, h2 = point_log_height(p1, 96), point_log_height(p2, 96)
        assert h1.log_height.intersects(h2.log_height)

    def test_zero_coordinate_block(self, golden):
        p = MultiProjectivePoint([[0, golden]])
        assert point_log_height(p, 64).is_exact_zero()

    def test_unsupported_shape(self, golden):
        p = MultiProjectivePoint([[1, 2, golden]])
        with pytest.raises(UnsupportedBlockShape):
            point_log_height(p, 64)

    def test_coordinates_stored_as_algebraic_numbers(self):
        p = MultiProjectivePoint([[1, Fraction(-3, 4)], [0, 2, Fraction(5, 2)]])
        assert all(isinstance(c, AlgebraicNumber) for block in p.blocks for c in block)
        assert ([[c.as_fraction() for c in block] for block in p.blocks]
                == [[1, Fraction(-3, 4)], [0, 2, Fraction(5, 2)]])

    def test_empty_block_rejected(self, golden):
        with pytest.raises(HeightError):
            MultiProjectivePoint([[0, 0]])

    def test_both_algebraic_normalization(self, golden, sqrt2):
        # block (sqrt2, sqrt2*phi) ~ (1, phi)
        p = MultiProjectivePoint([[sqrt2, sqrt2 * golden]])
        h = point_log_height(p, 96)
        assert contains_const(h.log_height, LN_PHI)


class TestHeightValueInvariants:
    def test_nonnegative_clamp(self):
        from heightbounds.intervals import Interval
        h = HeightValue(Interval(Fraction(-1, 10**30), Fraction(1, 10**20)), 64)
        assert h.log_height.lo >= 0
