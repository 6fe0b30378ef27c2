import random
from fractions import Fraction

import mpmath
import pytest

from heightbounds.polys import (IntPolynomial, PolynomialError, count_real_roots,
                                cyclotomic_polynomial, euler_phi, is_cyclotomic,
                                parse_polynomial, poly_gcd, poly_to_text,
                                root_bound, squarefree_part)


def P(text):
    return parse_polynomial(text)


def _roots(f):
    """Floating-point oracle: all complex roots of f."""
    return mpmath.polyroots(list(reversed(f.coeffs)), maxsteps=200, extraprec=64)


class TestArithmetic:
    def test_gcd_common_factor(self):
        assert poly_gcd(P("x^2-1"), P("x-1")) == P("x-1")

    def test_mul_difference_of_squares(self):
        assert P("x-2") * P("x+2") == P("x^2-4")

    def test_content(self):
        assert P("6*x^2+9").content() == 3
        assert IntPolynomial(()).content() == 0

    def test_add_sub(self):
        f, g = P("x^3-2*x+1"), P("x^2+5")
        assert (f + g) - g == f

    def test_pseudo_divrem(self):
        f, g = P("x^3+2*x+7"), P("2*x-1")
        q, r, k = f.pseudo_divmod(g)
        lead = g.lead ** k
        assert f.scale(lead) == q * g + r
        assert r.degree < g.degree

    def test_pseudo_divrem_monic_is_true_division(self):
        f, g = P("3*x^5-x^3+2*x+7"), P("x^2+4*x-1")
        q, r, k = f.pseudo_divmod(g)
        assert k == 4 and f == q * g + r and r.degree < g.degree

    def test_coefficient_types(self):
        assert IntPolynomial([True, Fraction(4, 2), 3]).coeffs == (1, 2, 3)
        for bad in (Fraction(1, 2), 1.0, "1", None):
            with pytest.raises(PolynomialError):
                IntPolynomial([1, bad])

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            P("x").pseudo_divmod(IntPolynomial(()))

    def test_canonical_idempotent(self):
        f = P("-4*x^2+2")
        c = f.canonical()
        assert c == c.canonical()
        assert c.lead > 0 and c.content() == 1

    def test_power_and_derivative(self):
        assert P("x+1") ** 3 == P("x^3+3*x^2+3*x+1")
        assert P("x^3+3*x").derivative() == P("3*x^2+3")


class TestSquarefree:
    def test_square(self):
        assert squarefree_part(P("x^2-2*x+1")) == P("x-1")

    def test_already_squarefree(self):
        assert squarefree_part(P("x^3-x")) == P("x^3-x")

    def test_biquadratic(self):
        # gcd(f, f') oracle by hand: f = (x^2-1)^2
        assert squarefree_part(P("x^4-2*x^2+1")) == P("x^2-1")

    def test_zero_rejected(self):
        with pytest.raises(PolynomialError):
            squarefree_part(IntPolynomial(()))


class TestRealRootCount:
    def test_basic(self):
        assert count_real_roots(P("x^2-2")) == 2
        assert count_real_roots(P("x^2+1")) == 0

    def test_one_real_root_by_discriminant(self):
        # discriminant of x^3-x-1 is -23 < 0: one real root
        assert count_real_roots(P("x^3-x-1")) == 1

    def test_interval_counts(self):
        f = P("x^2-2")
        assert count_real_roots(f, Fraction(0), Fraction(2)) == 1
        assert count_real_roots(f, Fraction(-2), Fraction(2)) == 2
        assert count_real_roots(f, Fraction(2), Fraction(3)) == 0

    def test_requires_squarefree(self):
        with pytest.raises(PolynomialError):
            count_real_roots(P("x^2-2*x+1"))

    def test_random_agrees_with_mpmath(self):
        rng = random.Random(42)
        for _ in range(25):
            cs = [rng.randint(-20, 20) for _ in range(rng.randint(1, 8))] + [rng.randint(1, 20)]
            f = squarefree_part(IntPolynomial(cs))
            if f.degree < 1:
                continue
            roots = map(complex, _roots(f))
            expected = sum(1 for z in roots if abs(z.imag) < 1e-9)
            assert count_real_roots(f) == expected


class TestRootBound:
    def test_all_roots_inside(self):
        rng = random.Random(3)
        for _ in range(20):
            cs = [rng.randint(-9, 9) for _ in range(5)] + [rng.randint(1, 9)]
            f = IntPolynomial(cs)
            bound = float(root_bound(f))
            assert all(abs(complex(z)) < bound for z in _roots(f))


class TestCyclotomic:
    def test_phi_function(self):
        assert [euler_phi(n) for n in (1, 2, 3, 4, 6, 12)] == [1, 1, 2, 2, 2, 4]

    def test_known_polynomials(self):
        assert cyclotomic_polynomial(1) == P("x-1")
        assert cyclotomic_polynomial(4) == P("x^2+1")
        assert cyclotomic_polynomial(6) == P("x^2-x+1")

    def test_recognition(self):
        for n in range(1, 21):
            assert is_cyclotomic(cyclotomic_polynomial(n))
        assert not is_cyclotomic(P("x^2-x-1"))
        assert not is_cyclotomic(P("x^2-2"))


class TestTextForm:
    def test_parse_terms(self):
        assert P("x^2 - x - 1").coeffs == (-1, -1, 1)
        assert P("3*x^4+2").coeffs == (2, 0, 0, 0, 3)
        assert P("-x").coeffs == (0, -1)
        assert P("7").coeffs == (7,)

    def test_parse_list(self):
        assert P("[ -1, -1, 1 ]").coeffs == (-1, -1, 1)

    def test_parse_rejects_garbage(self):
        for bad in ("", "x^", "2**x", "x + + 1", "[1, a]"):
            with pytest.raises(PolynomialError):
                parse_polynomial(bad)

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(30):
            cs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [rng.randint(1, 9)]
            f = IntPolynomial(cs)
            assert parse_polynomial(poly_to_text(f)) == f
