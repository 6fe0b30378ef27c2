import random
from fractions import Fraction
from math import lcm

import pytest

from heightbounds.bounds import (ThresholdError, bound_constants, lambda_bound,
                                 optimal_b, rho, segment_min, threshold_root,
                                 xi_peak)
from heightbounds.forms import ExceptionalSet
from heightbounds.intervals import Interval, exp_interval, ln_fraction, log_interval
from heightbounds.polys import IntPolynomial, parse_polynomial
from heightbounds.roots import RootBox, refine_real_box
from heightbounds.verify import build_sum_form

from conftest import LN_PHI, PHI, run_with_deadline

TOL9 = Fraction(1, 10**9)
SLACK = Fraction(1, 10**38)


class TestRho:
    def test_golden_case(self):
        value, log_rho = rho(1, 1)
        assert value.minpoly == parse_polynomial("x^2-x-1")
        box = value.box(Fraction(1, 10**12))
        assert box.re.lo - SLACK <= PHI <= box.re.hi + SLACK
        assert log_rho.lo - SLACK <= LN_PHI <= log_rho.hi + SLACK

    def test_sqrt2_case(self):
        value, _ = rho(1, 2)
        assert value.minpoly == parse_polynomial("x^2-2")

    def test_cf_two(self):
        # root > 1 of 2w^2 + w - 2 inverted: rho = (1 + sqrt 17)/4
        value, _ = rho(2, 1)
        assert value.minpoly == parse_polynomial("2*x^2-x-2")
        expect = Fraction("1.280776406404415137455352463993519256287")
        box = value.box(Fraction(1, 10**12))
        assert box.re.lo - SLACK <= expect <= box.re.hi + SLACK

    def test_fractional_delta(self):
        from heightbounds.algebraic import AlgebraicNumber
        value, _ = rho(1, Fraction(1, 2))
        assert value.sub(AlgebraicNumber.one()).sign() == 1  # rho > 1
        # defining equation x^-2 + x^-1/2 = 1 on the refined midpoint
        x = float(value.interval(Fraction(1, 1 << 80)).mid)
        assert abs(x ** -2 + x ** -0.5 - 1) < 1e-12

    def test_large_delta(self):
        # delta > 2 exercises the long tail of the cleared equation
        value, _ = rho(1, 3)
        x = float(value.interval(Fraction(1, 1 << 70)).mid)
        assert abs(x ** -2 + x ** -3 - 1) < 1e-12
        value, _ = rho(2, Fraction(7, 2))
        x = float(value.interval(Fraction(1, 1 << 70)).mid)
        assert abs(x ** -2 + 0.5 * x ** -3.5 - 1) < 1e-12

    def test_delta_zero_requires_cf(self):
        with pytest.raises(ThresholdError):
            rho(1, 0)
        value, _ = rho(2, 0)
        # x^-2 + 1/2 = 1 -> rho = sqrt 2
        assert value.minpoly == parse_polynomial("x^2-2")

    def test_invalid_inputs(self):
        with pytest.raises(ThresholdError):
            rho(0, 1)
        with pytest.raises(ThresholdError):
            rho(1, Fraction(-1, 2))

    def test_cached_result_shared(self):
        first = rho(1, 1, 128)
        assert rho(1, 1, 128) is first
        assert rho(1, Fraction(1), 128) is first

    def test_invalid_inputs_raise_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ThresholdError):
                rho(0, 1, 128)
            with pytest.raises(ThresholdError):
                rho(1, 0, 128)


class TestSegmentMin:
    def test_golden(self):
        sol = segment_min(1, 2, 1, bits=56)
        gap = sol.exp_neg_value - sol.root
        assert max(abs(gap.lo), abs(gap.hi)) <= TOL9
        assert sol.root.lo - SLACK <= PHI <= sol.root.hi + SLACK

    def test_symmetric_sqrt2(self):
        sol = segment_min(2, 2, 1, bits=56)
        # u = v on the constraint 2u + 2v = 1; e^-l = sqrt 2
        sq2 = Fraction("1.41421356237309504880168872420969807857")
        assert sol.root.lo - SLACK <= sq2 <= sol.root.hi + SLACK
        gap = sol.exp_neg_value - sol.root
        assert max(abs(gap.lo), abs(gap.hi)) <= TOL9

    def test_endpoint_objective_zero(self):
        # at u = 0 the objective is v log(v/v) = 0; the minimum is <= 0
        sol = segment_min(1, 2, 1, bits=48)
        assert sol.value.lo <= 0

    def test_positive_parameters_required(self):
        with pytest.raises(ThresholdError):
            segment_min(0, 1, 1)
        with pytest.raises(ThresholdError):
            segment_min(1, 1, 0)

    def test_grid_duality(self):
        # acceptance-scale grid, smaller here for unit-test speed
        for alpha in (Fraction(1, 2), 2):
            for gamma in (1, 5):
                sol = segment_min(alpha, 2, gamma, bits=48)
                gap = sol.exp_neg_value - sol.root
                assert max(abs(gap.lo), abs(gap.hi)) <= TOL9


class TestLambdaBound:
    def test_endpoint_zero(self):
        iv = lambda_bound(0, 1, 1)
        assert iv.contains(0) and iv.width < Fraction(1, 1 << 40)

    def test_upper_endpoint_log_c(self):
        # at b = 1/delta the value is (1/delta) log C
        iv = lambda_bound(Fraction(1, 2), 2, 3, bits=64)
        expect = ln_fraction(Fraction(3), 96) * Fraction(1, 2)
        assert iv.intersects(expect)

    def test_domain_enforced(self):
        with pytest.raises(ThresholdError):
            lambda_bound(2, 1, 1)
        with pytest.raises(ThresholdError):
            lambda_bound(-1, 1, 1)

    def test_optimal_matches_rho(self):
        ob = optimal_b(1, 1, bits=60)
        total = ob.bound + ln_fraction(PHI, 80)
        # the frozen PHI is itself 1e-38-accurate
        assert max(abs(total.lo), abs(total.hi)) < Fraction(1, 10**10)

    def test_optimal_sqrt2(self):
        ob = optimal_b(2, 1, bits=60)
        half_ln2 = Fraction("0.3465735902799726547086160607290882840378")
        assert abs(ob.bound.mid + half_ln2) < Fraction(1, 10**10)

    def test_stationarity(self):
        # central difference at the certified argmin
        h = Fraction(1, 10**4)
        for dlt, cf in ((1, 1), (2, 3), (Fraction(1, 2), 2)):
            ob = optimal_b(dlt, cf, bits=60)
            assert ob.interior
            up = lambda_bound(ob.b + h, dlt, cf, bits=90)
            dn = lambda_bound(ob.b - h, dlt, cf, bits=90)
            diff = (up - dn) * (Fraction(1, 2) / h)
            assert max(abs(diff.lo), abs(diff.hi)) <= Fraction(1, 10**6)


# optimal_b(delta, C, bits=56) as computed when the b-weight bound had its own
# x log x pieces and derivative: (b, bracket lo, bracket hi)
FROZEN_OPTIMA = {
    (1, 1): ("240095971/536870912", "240095969/536870912", "120047987/268435456"),
    (Fraction(1, 2), 2): ("43141479/134217728", "21570739/67108864", "43141481/134217728"),
    (Fraction(3, 2), 5): ("12162783/134217728", "72976697/805306368", "18244175/201326592"),
    (2, 3): ("1/8", "134217727/1073741824", "67108865/536870912"),
    (0, 2): ("1/2", "67108863/134217728", "67108865/134217728"),
    (0, 5): ("1/8", "131071/1048576", "67108865/536870912"),
}


class TestSharedObjective:
    """The b-weight bound is the segment objective at alpha = delta, beta = 2,
    gamma = C, with u = b and v = (1 - delta b)/2."""

    @pytest.mark.parametrize("dlt, cf", list(FROZEN_OPTIMA))
    def test_optimum_frozen(self, dlt, cf):
        ob = optimal_b(dlt, cf, bits=56)
        b, lo, hi = (Fraction(x) for x in FROZEN_OPTIMA[dlt, cf])
        assert ob.b == b
        assert (ob.bracket.lo, ob.bracket.hi) == (lo, hi)
        assert ob.interior

    @pytest.mark.parametrize("cf", (2, 3, 5))
    def test_delta_zero_optimum(self, cf):
        # R'(b) = ln(2bC/(1 + 2b)) vanishes at b = 1/(2(C-1)), where
        # R = -(1/2) ln(C/(C-1)) = -log rho(C, 0)
        ob = optimal_b(0, cf, bits=56)
        assert ob.bracket.contains(Fraction(1, 2 * (cf - 1)))
        _, log_rho = rho(cf, 0)
        assert ob.bound.intersects(-log_rho)

    def test_delta_zero_needs_cf_above_one(self):
        # with C = 1 the objective decreases without bound, as rho(1, 0) has
        # no root > 1
        with pytest.raises(ThresholdError):
            optimal_b(0, 1)

    @pytest.mark.parametrize("dlt, cf", ((1, 1), (Fraction(1, 2), 3), (2, 5)))
    def test_optimum_meets_segment_min(self, dlt, cf):
        ob = optimal_b(dlt, cf, bits=48)
        assert ob.bound.intersects(segment_min(dlt, 2, cf, bits=48).value)


class TestXiPeak:
    def test_formula(self):
        xi0, _ = xi_peak(1, 1, 1)
        assert xi0 == Fraction(1, 3)

    def test_boundary(self):
        xi0, val = xi_peak(1, 0, 1)
        assert xi0 == 1 and val.contains(0)

    def test_substitution(self):
        xi0, val = xi_peak(Fraction(1, 2), 1, 1)
        assert xi0 == Fraction(1, 5)
        expect = Fraction("-0.625503029422734849416484923616381413256")
        assert val.lo - SLACK <= expect <= val.hi + SLACK

    def test_maximality(self):
        # the objective psi(xi) = b log(c(1-xi)) + (a/2) log xi peaks at xi0
        import random
        rng = random.Random(5)
        for _ in range(10):
            a = Fraction(rng.randint(1, 8), rng.randint(1, 4))
            b = Fraction(rng.randint(1, 8), rng.randint(1, 4))
            c = Fraction(rng.randint(1, 6))
            xi0, val = xi_peak(a, b, c)

            def psi(xi):
                return (Interval(b) * ln_fraction(c * (1 - xi), 80)
                        + Interval(a / 2) * ln_fraction(xi, 80))

            dx = Fraction(1, 1000)
            for probe in (xi0 - dx, xi0 + dx):
                if 0 < probe < 1:
                    assert psi(probe).lo < val.hi + Fraction(1, 1 << 40)

    def test_degenerate_rejected(self):
        with pytest.raises(ThresholdError):
            xi_peak(0, 0, 1)


class TestBoundConstants:
    def test_corollary_assembly(self, golden):
        F, E = build_sum_form(golden, 2)
        bc = bound_constants(F, E, bits=96)
        assert bc.delta == 1
        assert bc.c_f == 1
        assert bc.rho.minpoly == parse_polynomial("x^2-x-1")
        assert bc.c == {(0, 1): 1, (1, 1): 1}
        assert bc.d_tilde == (1, 1)

    def test_rejects_invalid(self, golden):
        F, _ = build_sum_form(golden, 1)
        from heightbounds.forms import FormError
        with pytest.raises(FormError):
            bound_constants(F, ExceptionalSet([]), bits=64)


class TestExactDeterminism:
    def test_bit_identical_repeated_calls(self, golden):
        from heightbounds.forms import (c_value, delta, weight_scheme)
        F, E = build_sum_form(golden, 2)
        assert delta(F, E) == delta(F, E)
        assert c_value(F, 0, 1, E) == c_value(F, 0, 1, E)
        w1 = weight_scheme(F, E, Fraction(1, 3))
        w2 = weight_scheme(F, E, Fraction(1, 3))
        assert w1.a == w2.a and w1.block_weights == w2.block_weights
        a1 = optimal_b(1, 1, bits=48)
        a2 = optimal_b(1, 1, bits=48)
        assert a1.b == a2.b and a1.bound == a2.bound


def reference_threshold_root(alpha, beta, gamma, bits):
    """The cleared-polynomial method, kept as a reference: with Q the lcm of
    the exponents' denominators, clear gamma^-1 x^-alpha + x^-beta = 1 in
    w = x^(-1/Q) to an integer polynomial and refine its root in (0, 1)."""
    big_q = lcm(alpha.denominator, beta.denominator)
    a = alpha.numerator * (big_q // alpha.denominator)
    b = beta.numerator * (big_q // beta.denominator)
    coeffs = [0] * (max(a, b) + 1)
    coeffs[0] -= gamma.numerator
    coeffs[a] += gamma.denominator
    coeffs[b] += gamma.numerator
    eps = Fraction(1, 1 << (bits + max(a, b).bit_length() + 8))
    unit = RootBox(Interval(Fraction(0), Fraction(1)))
    w = refine_real_box(IntPolynomial(coeffs), unit, eps).re
    return w.inverse().pow_int(big_q)


class TestThresholdRoot:
    def test_matches_alg_rho(self):
        for dlt, cf in ((1, 1), (2, 1), (1, 2), (Fraction(1, 5), 1), (Fraction(3, 7), 1)):
            iv = threshold_root(Fraction(dlt), Fraction(2), Fraction(cf), bits=80)
            value, _ = rho(cf, dlt, bits=80)
            box = value.box(Fraction(1, 1 << 80))
            assert iv.intersects(Interval(box.re.lo - TOL9, box.re.hi + TOL9))

    def test_large_denominator_deltas_finish(self):
        # w^q and its inverse have degree 2q with mostly non-real roots, which
        # selecting the real threshold never certifies
        for dlt in ("13/32", "1/20"):
            out = run_with_deadline(
                "from fractions import Fraction\n"
                "from heightbounds.bounds import rho, threshold_root\n"
                "from heightbounds.intervals import log_interval\n"
                "d = Fraction('%s')\n"
                "iv = threshold_root(d, Fraction(2), Fraction(2), bits=80)\n"
                "_, log_rho = rho(2, d)\n"
                "print(log_rho.intersects(log_interval(iv, 80)),\n"
                "      log_rho.width < Fraction(1, 1 << 100))\n" % dlt, 5)
            assert out.split() == ["True", "True"], dlt

    def test_high_degree_cleared_equation(self):
        # x^-1 + x^-301 = 1, whose cleared form w + w^301 = 1 has degree 301:
        # the root is found in t = ln x, with no polynomial built
        iv = threshold_root(Fraction(1), Fraction(301), Fraction(1), bits=64)
        assert iv.width < Fraction(1, 1 << 60)
        inv = iv.inverse()
        assert (inv + inv.pow_int(301)).contains(1)

    def test_meets_cleared_reference(self):
        rng = random.Random(20261021)
        for _ in range(100):
            alpha = Fraction(rng.randint(1, 12), rng.randint(1, 7))
            beta = Fraction(rng.randint(1, 12), rng.randint(1, 7))
            gamma = Fraction(rng.randint(1, 9), rng.randint(1, 3))
            bits = rng.choice((48, 64, 96, 128))
            iv = threshold_root(alpha, beta, gamma, bits)
            case = (alpha, beta, gamma, bits)
            assert iv.intersects(reference_threshold_root(alpha, beta, gamma, bits)), case
            assert iv.width <= iv.lo / (1 << bits), case

    def test_small_delta_finishes(self):
        # delta = 1/1000 clears to degree 2001
        out = run_with_deadline(
            "from fractions import Fraction\n"
            "from heightbounds.bounds import threshold_root\n"
            "iv = threshold_root(Fraction(1, 1000), Fraction(2), Fraction(1), bits=80)\n"
            "print(iv.lo, iv.hi)\n", 5)
        iv = Interval(*(Fraction(x) for x in out.split()))
        assert iv.width <= iv.lo / (1 << 80)
        x_delta = exp_interval(-log_interval(iv, 100) / 1000, 100)  # x^(-1/1000)
        assert (x_delta + iv.pow_int(-2) - 1).contains(0)
