import json
import random

import mpmath
import pytest
import sympy

from heightbounds import factor
from heightbounds.factor import (_berlekamp_matrix, _hensel_lift, _nullspace_mod,
                                 _odd_primes, factor_over_rationals, gf_factor_squarefree,
                                 gf_from_poly, gf_is_squarefree, gf_monic, gf_mul,
                                 gf_pow_mod, is_irreducible, squarefree_decomposition)
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


def sympy_factors(f):
    """factor_over_rationals's answer, computed by sympy."""
    x = sympy.Symbol("x")
    _, facs = sympy.factor_list(sympy.Poly(list(reversed(f.coeffs)), x))
    out = [(IntPolynomial([int(c) for c in reversed(g.all_coeffs())]).canonical(), m)
           for g, m in facs]
    return sorted(out, key=lambda t: (t[0].degree, t[0].coeffs))


def random_irreducible(rng, deg):
    x = sympy.Symbol("x")
    while True:
        cs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 4)]
        if cs[0] and sympy.Poly(list(reversed(cs)), x).is_irreducible:
            return IntPolynomial(cs)


class TestCompositeDegrees:
    def test_products_of_irreducibles_match_sympy(self):
        rng = random.Random(1213)
        degrees = set()
        for _ in range(12):
            f = IntPolynomial([1])
            while f.degree < 12:
                f = IntPolynomial([1])
                for _ in range(rng.randint(2, 3)):
                    f = f * random_irreducible(rng, rng.randint(3, 9))
            degrees.add(f.degree)
            assert factor_over_rationals(f) == sympy_factors(f)
        assert min(degrees) >= 12 and max(degrees) <= 27

    def test_round_trip_resultant_matches_sympy(self):
        # the polynomial (a+b)-b meets for a, b of degree 3: its roots are
        # a_i + b_j - b_k, so it is minpoly(a)^3 times a degree-18 part
        x, y = sympy.symbols("x y")
        a = x ** 3 + 2 * x ** 2 + 2 * x - 1
        b = y ** 3 - y - 1
        s = sympy.resultant(a.subs(x, x - y), b, y)
        back = sympy.Poly(sympy.resultant(s.subs(x, x + y), b, y), x)
        f = IntPolynomial([int(c) for c in reversed(back.all_coeffs())])
        facs = factor_over_rationals(f)
        assert f.degree == 27
        assert (IntPolynomial([-1, 2, 2, 1]), 3) in facs
        assert sum(g.degree * m for g, m in facs) == 27
        assert facs == sympy_factors(f)


def modular_factors(f, p):
    fp = gf_from_poly(f, p)
    assert gf_is_squarefree(fp, p)
    fp = gf_monic(fp, p)
    return gf_factor_squarefree(fp, p, _nullspace_mod(_berlekamp_matrix(fp, p), p))


def assert_lift(f, p, l, modular):
    """The monic lifted factors multiply to f mod p^l and reduce to the
    modular factors, which determines them."""
    pl = p ** l
    lifted = _hensel_lift(p, f.coeffs, modular, l)
    prod = [f.lead % pl]
    for g in lifted:
        assert all(0 <= c < pl for c in g)
        prod = gf_mul(prod, g, pl)
    assert prod == [c % pl for c in f.coeffs]
    assert len(lifted) == len(modular)
    for g, mf in zip(lifted, modular):
        assert g[-1] == 1
        assert [c % p for c in g] == mf


class TestHenselLift:
    def test_lifted_factors_multiply_to_f_and_reduce_to_modular(self):
        f = IntPolynomial(FOUR_ROOTS) * P("3*x^2-x-5")
        p, l = 13, 6
        modular = modular_factors(f, p)
        assert len(modular) >= 8
        assert_lift(f, p, l, modular)

    @pytest.mark.parametrize("l", [2, 3, 5, 9, 17])
    def test_exponents_between_powers_of_two(self, l):
        # the chain l, ceil(l/2), ..., 1 meets exponents that are not powers
        # of two; the lift must land on p^l itself, not past it
        for f, p in ((IntPolynomial(FOUR_ROOTS) * P("3*x^2-x-5"), 13),
                     (P("x^3-x+2") * P("2*x^4+x-7") * P("x^2+1") * P("x-4"), 3)):
            modular = modular_factors(f, p)
            assert len(modular) >= 3
            assert_lift(f, p, l, modular)


class TestBerlekampRows:
    @staticmethod
    def reference_rows(f, p):
        n = len(f) - 1
        rows = []
        for i in range(n):
            r = gf_pow_mod([0, 1], i * p, f, p)
            rows.append(r + [0] * (n - len(r)))
        return rows

    def test_rows_are_powers_of_x_to_the_p(self):
        # p shifts per row: primes below 2n and far above it, for every
        # degree drawn
        rng = random.Random(4242)
        primes = list(_odd_primes(1100))
        small = large = 0
        for _ in range(60):
            n = rng.randint(2, 40)
            below = rng.random() < 0.6
            p = rng.choice([q for q in primes if (q < 2 * n) == below])
            f = [rng.randrange(p) for _ in range(n)] + [1]
            small += p < 2 * n
            large += p >= 2 * n
            assert _berlekamp_matrix(f, p) == self.reference_rows(f, p)
        assert small >= 20 and large >= 15

    @pytest.mark.parametrize("n,p", [(6, 11), (6, 13), (20, 37), (20, 41), (40, 3), (40, 1009)])
    def test_rows_at_the_line(self, n, p):
        rng = random.Random(n * p)
        f = [rng.randrange(p) for _ in range(n)] + [1]
        assert _berlekamp_matrix(f, p) == self.reference_rows(f, p)

    def test_lead_divisible_by_every_small_prime_factors_in_bounded_time(self):
        # every odd prime below 300 divides the lead, so the squarefree test
        # and the Zassenhaus loop both pass over 61 primes and split at p > 2n
        lead = 1
        for p in _odd_primes(300):
            lead *= p
        rng = random.Random(300)
        x = sympy.Symbol("x")
        while True:
            g = [rng.randint(-9, 9) for _ in range(10)] + [lead]
            if g[0] and sympy.Poly(list(reversed(g)), x).is_irreducible:
                break
        f = (IntPolynomial(g) * random_irreducible(rng, 10) * random_irreducible(rng, 9)
             * P("x+1"))
        assert f.degree == 30
        out = run_with_deadline(
            "import json\n"
            "from heightbounds.factor import factor_over_rationals\n"
            "from heightbounds.polys import IntPolynomial\n"
            "facs = factor_over_rationals(IntPolynomial(%r))\n"
            "print(json.dumps([[g.coeffs, m] for g, m in facs]))\n" % list(f.coeffs),
            seconds=30)
        got = [(IntPolynomial(cs), m) for cs, m in json.loads(out)]
        assert got == sympy_factors(f)
        assert [g.degree for g, _ in got] == [1, 9, 10, 10]


class TestSquarefreeDecomposition:
    def test_yun(self):
        f = P("x-1") ** 3 * P("x^2-2")
        parts = squarefree_decomposition(f.canonical())
        assert (P("x^2-2"), 1) in parts
        assert (P("x-1"), 3) in parts

    @pytest.mark.parametrize("parts", [
        [("x^2-x-3", 2), ("2*x^3+x+5", 1)],     # g^2 h
        [("x", 4), ("x^2+x+1", 3)],             # x^k g^3
        [("x^2+x+1", 1)],                       # squarefree, (x-1)^2 mod 3
        [("x^6+x^3+1", 1)],                     # derivative 0 mod 3
        [("3*x^2+5*x+1", 1)],                   # 3 divides the lead: tested mod 5
        [("3*x-1", 2), ("x^2+1", 1)],           # squarefree mod 3 only at degree 2
    ])
    def test_multiplicities_match_sympy(self, parts):
        f = IntPolynomial([1])
        for text, m in parts:
            f = f * P(text) ** m
        assert factor_over_rationals(f) == sympy_factors(f)

    def test_squarefree_mod_p_skips_yun(self, monkeypatch):
        # squarefree mod the first prime not dividing the lead: no gcd over Z
        def no_gcd(*args):
            raise AssertionError("Yun's gcd called")
        monkeypatch.setattr(factor, "poly_gcd", no_gcd)
        for text in ("x^2-2", "3*x^2+5*x+1", "x^3-x+2"):
            f = P(text)
            assert squarefree_decomposition(f) == [(f, 1)]

    @pytest.mark.parametrize("parts", [
        [("x^2+x+1", 1)],
        [("x^6+x^3+1", 1)],
        [("2*x^3+x+5", 1), ("x^2-x-3", 2)],
    ])
    def test_not_squarefree_mod_p_goes_to_yun(self, parts, monkeypatch):
        calls = []
        real = factor.poly_gcd

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(factor, "poly_gcd", counted)
        f = IntPolynomial([1])
        for text, m in parts:
            f = f * P(text) ** m
        assert squarefree_decomposition(f) == [(P(a), m) for a, m in parts]
        assert calls

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

# minimal polynomial of sqrt2 + sqrt3 + sqrt5 + sqrt7 + sqrt11 (degree 32);
# it has at least sixteen factors modulo every prime
FIVE_ROOTS = [2000989041197056, 0, -44660812492570624, 0, 183876928237731840, 0,
              -255690851718529024, 0, 172580952324702208, 0, -65892492886671360, 0,
              15459151516270592, 0, -2349014746136576, 0, 239210760462336, 0,
              -16665641517056, 0, 801918722048, 0, -26625650688, 0, 602397952, 0,
              -9028096, 0, 84864, 0, -448, 0, 1]


class TestFactorizationCache:
    def test_mutating_the_returned_list_changes_nothing(self):
        f = P("x^4-1")
        want = sympy_factors(f)
        facs = factor_over_rationals(f)
        assert facs == want
        facs.append((P("x-7"), 1))
        facs[0] = (P("x+5"), 3)
        del facs[1]
        assert factor_over_rationals(f) == want
        assert factor_over_rationals(f) is not factor_over_rationals(f)
        g = P("x^4-10*x^2+1")
        factor_over_rationals(g).clear()
        assert is_irreducible(g)
        assert not is_irreducible(f)


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

    def test_five_square_roots_minpoly_irreducible(self):
        with mpmath.workdps(100):
            x = sum(mpmath.sqrt(k) for k in (2, 3, 5, 7, 11))
            assert abs(mpmath.polyval(list(reversed(FIVE_ROOTS)), x)) < mpmath.mpf(10) ** -30
        run_with_deadline(
            "from heightbounds.factor import factor_over_rationals\n"
            "from heightbounds.polys import IntPolynomial\n"
            "f = IntPolynomial(%r)\n"
            "assert factor_over_rationals(f) == [(f, 1)]\n" % FIVE_ROOTS)
