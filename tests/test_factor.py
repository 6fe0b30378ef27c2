import random

import mpmath
import pytest
import sympy

from heightbounds.factor import (_odd_primes, factor_over_rationals, is_irreducible,
                                 squarefree_decomposition)
from heightbounds.polys import IntPolynomial, PolynomialError, parse_polynomial

from conftest import run_with_deadline


def P(text):
    return parse_polynomial(text)


class TestKnownFactorizations:
    def test_difference_of_squares(self):
        assert factor_over_rationals(P("x^2-1")) == [(P("x-1"), 1), (P("x+1"), 1)]

    def test_fourth_power_minus_one(self):
        assert factor_over_rationals(P("x^4-1")) == [
            (P("x-1"), 1), (P("x+1"), 1), (P("x^2+1"), 1)]

    def test_sqrt2_plus_sqrt3_minpoly_irreducible(self):
        facs = factor_over_rationals(P("x^4-10*x^2+1"))
        assert facs == [(P("x^4-10*x^2+1"), 1)]

    def test_multiplicities(self):
        f = P("x-1") ** 2 * P("x+2") ** 3
        assert factor_over_rationals(f) == [(P("x-1"), 2), (P("x+2"), 3)]

    def test_content_dropped(self):
        assert factor_over_rationals(P("6*x^2-6")) == [(P("x-1"), 1), (P("x+1"), 1)]

    def test_power_of_x(self):
        assert factor_over_rationals(P("x^3+x^2")) == [(P("x"), 2), (P("x+1"), 1)]

    def test_zero_rejected(self):
        with pytest.raises(PolynomialError):
            factor_over_rationals(IntPolynomial(()))


class TestAgainstSympy:
    def test_random_round_trip_and_oracle(self):
        x = sympy.Symbol("x")
        rng = random.Random(20240)
        for _ in range(40):
            deg = rng.randint(1, 9)
            cs = [rng.randint(-12, 12) for _ in range(deg)] + [rng.randint(1, 12)]
            f = IntPolynomial(cs)
            facs = factor_over_rationals(f)
            # round trip up to content
            prod = IntPolynomial([1])
            for g, mult in facs:
                prod = prod * g ** mult
            assert prod.canonical() == f.canonical()
            # factor count agrees with sympy
            expr = sum(c * x ** i for i, c in enumerate(f.coeffs))
            _, sym_facs = sympy.factor_list(expr)
            sym_count = sum(m for p, m in sym_facs if p.as_poly(x).degree() >= 1)
            assert sum(m for _, m in facs) == sym_count

    def test_irreducibility_oracle(self):
        x = sympy.Symbol("x")
        rng = random.Random(5)
        for _ in range(25):
            deg = rng.randint(2, 8)
            cs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
            f = IntPolynomial(cs)
            if f.coeffs[0] == 0:
                continue
            expr = sum(c * x ** i for i, c in enumerate(f.coeffs))
            assert is_irreducible(f) == bool(sympy.Poly(expr, x).is_irreducible)


class TestSquarefreeDecomposition:
    def test_yun(self):
        f = P("x-1") ** 3 * P("x^2-2")
        parts = squarefree_decomposition(f.canonical())
        assert (P("x^2-2"), 1) in parts
        assert (P("x-1"), 3) in parts

    def test_big_lift_coefficients(self):
        # coefficients large enough to force several Hensel doublings
        f = P("x^4-50000*x^2+1") * P("x^2-99991")
        facs = factor_over_rationals(f)
        prod = IntPolynomial([1])
        for g, m in facs:
            prod = prod * g ** m
        assert prod.canonical() == f.canonical()


# minimal polynomial of sqrt2 + sqrt3 + sqrt5 + sqrt7 (degree 16); it has at
# least eight factors modulo every prime
FOUR_ROOTS = [46225, 0, -5596840, 0, 13950764, 0, -7453176, 0, 1513334, 0,
              -141912, 0, 6476, 0, -136, 0, 1]


class TestPrimeStream:
    def test_odd_primes_in_order_below_the_bound(self):
        ref = [n for n in range(3, 100000, 2) if sympy.isprime(n)]
        assert list(_odd_primes()) == ref
        assert list(_odd_primes(64)) == [p for p in ref if p < 64]
        assert list(_odd_primes(3)) == []


class TestManyModularFactors:
    def test_four_square_roots_minpoly_irreducible(self):
        with mpmath.workdps(50):
            x = sum(mpmath.sqrt(k) for k in (2, 3, 5, 7))
            assert abs(mpmath.polyval(list(reversed(FOUR_ROOTS)), x)) < mpmath.mpf(10) ** -30
        run_with_deadline(
            "from heightbounds.factor import factor_over_rationals\n"
            "from heightbounds.polys import IntPolynomial\n"
            "f = IntPolynomial(%r)\n"
            "assert factor_over_rationals(f) == [(f, 1)]\n" % FOUR_ROOTS)
