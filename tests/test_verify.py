import random
from fractions import Fraction

import pytest

from heightbounds.algebraic import AlgebraicNumber, _isolated, as_algebraic
from heightbounds.factor import factor_over_rationals
from heightbounds.forms import (ExceptionalSet, MultihomogeneousPolynomial,
                                reciprocal_transform)
from heightbounds.heights import MultiProjectivePoint
from heightbounds.intervals import Interval, Rect
from heightbounds.polys import IntPolynomial, parse_polynomial
from heightbounds.verify import (CorollaryInstance, InstanceError, build_sum_form,
                                 check_hypotheses, evaluate, evaluate_interval,
                                 point_inverse,
                                 schinzel_check, verify_corollary,
                                 verify_corollary_batch, verify_theorem)

from conftest import HALF_LN_PHI, LN_2, LN_PHI, alg, run_with_deadline
from test_intervals import _fraction_rect_mul

SLACK = Fraction(1, 10**38)


def P(text):
    return parse_polynomial(text)


class TestEvaluate:
    def test_zero_at_equality_point(self, golden):
        F, _ = build_sum_form(golden, 1)
        point = MultiProjectivePoint([(1, golden)])
        v = evaluate(F, point)
        assert isinstance(v, AlgebraicNumber) and v.is_zero()

    def test_nonzero_value(self, golden):
        F, _ = build_sum_form(golden, 1)
        point = MultiProjectivePoint([(1, 2)])
        v = evaluate(F, point)
        # 2 - phi ~ 0.382
        assert isinstance(v, AlgebraicNumber) and not v.is_zero()
        assert abs(float(v) - 0.3819660112501051) < 1e-12

    def test_zero_coordinate(self):
        F = MultihomogeneousPolynomial((1,), (2,), {((1, 1),): 1})
        point = MultiProjectivePoint([(0, 1)])
        v = evaluate(F, point)
        assert v.is_zero()

    def test_interval_fallback_on_tiny_cap(self, golden, sqrt2, sqrt3):
        F, _ = build_sum_form(golden, 2)
        point = MultiProjectivePoint([(1, sqrt2), (1, sqrt3)])
        v = evaluate(F, point, cap=2)
        assert isinstance(v, Rect)
        assert not v.contains_zero()

    def test_zero_builds_no_last_composed_sum(self, golden, sqrt2, monkeypatch):
        # sqrt2 + (phi - sqrt2) - phi: the head sqrt2 + (phi - sqrt2) is one
        # composed sum, and comparing it with phi decides the zero
        import heightbounds.algebraic as algebraic_mod
        F, _ = build_sum_form(golden, 2)
        point = MultiProjectivePoint([(1, sqrt2), (1, golden - sqrt2)])
        built = []
        resultant_sum = algebraic_mod._resultant_sum

        def counted(f, g):
            built.append((f, g))
            return resultant_sum(f, g)

        monkeypatch.setattr(algebraic_mod, "_resultant_sum", counted)
        assert evaluate(F, point).is_zero()
        assert len(built) == 1


# ---------------------------------------------------------------------------
# Frozen reference: evaluate_interval as it was written in Fraction rectangle
# arithmetic, before it moved to integers.  The integer version must return
# the same rectangle wherever this returns.


def _ref_evaluate_interval(F, point, bits):
    eps = Fraction(1, 1 << bits)
    total = Rect(Interval(0), Interval(0))
    for exp, coeff in sorted(F.monomials.items()):
        term = coeff.box(eps)
        for i, row in enumerate(exp):
            for j, m in enumerate(row):
                if m:
                    base = point.blocks[i][j].box(eps)
                    for _ in range(m):
                        term = _fraction_rect_mul(term, base)
        total = total + term
    return total


def _number_pool():
    """Rationals with non-dyadic denominators, irrational reals and
    non-real numbers."""
    rationals = [as_algebraic(Fraction(p, q)) for p, q in
                 ((1, 3), (-5, 7), (2, 9), (7, 1), (-1, 6), (10, 3))]
    reals = [alg("x^2-2", 1), alg("x^3-3", 0), alg("x^2-x-1", 0)]
    nonreal = [alg("x^2+1", 1), alg("x^2+x+1", 0), alg("x^3-2", 1)]
    return rationals, reals, nonreal


def _exponent_row(rng, n, d):
    """A random row of n + 1 exponents summing to d."""
    row = [0] * (n + 1)
    for _ in range(d):
        row[rng.randrange(n + 1)] += 1
    return tuple(row)


class TestIntegerEvaluation:
    """evaluate_interval on integers against the frozen Fraction reference."""

    BITS = (64, 128, 4096)

    def test_random_forms_equal_reference(self):
        rng = random.Random(2024)
        rationals, reals, nonreal = _number_pool()
        numbers = rationals + reals + nonreal
        # an irrational -N coefficient, N = 1 + sqrt2
        minus_n = reals[0]._add_rational(1).neg()
        for case in range(30):
            shape = rng.choice(((2,), (2, 1), (1, 2), (2, 2), (2, 1, 1)))
            degrees = tuple(rng.randint(1, 3) for _ in shape)
            mons = {}
            for _ in range(rng.randint(1, 5)):
                exp = tuple(_exponent_row(rng, n, d) for n, d in zip(shape, degrees))
                mons[exp] = rng.choice(numbers + [minus_n])
            blocks = []
            for n in shape:
                block = [as_algebraic(0) if rng.random() < 0.2 else rng.choice(numbers)
                         for _ in range(n + 1)]
                if all(c.is_zero() for c in block):
                    block[0] = rng.choice(numbers)
                blocks.append(block)
            F = MultihomogeneousPolynomial(shape, degrees, mons)
            point = MultiProjectivePoint(blocks)
            for bits in self.BITS:
                assert evaluate_interval(F, point, bits) == \
                    _ref_evaluate_interval(F, point, bits), (case, bits)

    def test_sum_forms_equal_reference(self):
        rng = random.Random(77)
        rationals, reals, nonreal = _number_pool()
        numbers = rationals + reals + nonreal
        ns = [as_algebraic(3), reals[2], reals[0]._add_rational(1)]
        for r in range(1, 6):
            for n_value in ns:
                F, _ = build_sum_form(n_value, r)
                alphas = [rng.choice(numbers) for _ in range(r - 1)]
                # for r <= 2 the point lies on the zero set: the rectangle holds 0
                alphas.append(n_value.sub(sum(alphas, as_algebraic(0))) if r <= 2
                              else rng.choice(numbers))
                point = MultiProjectivePoint([(1, a) for a in alphas])
                for G in (F, reciprocal_transform(F)):
                    for bits in self.BITS:
                        assert evaluate_interval(G, point, bits) == \
                            _ref_evaluate_interval(G, point, bits), (r, bits)


class TestHypotheses:
    def test_equality_point_passes_all(self, golden):
        F, E = build_sum_form(golden, 1)
        point = MultiProjectivePoint([(1, golden)])
        results = check_hypotheses(F, E, point)
        assert all(h.passed for h in results)

    def test_reciprocal_failure(self):
        one = as_algebraic(1)
        F, E = build_sum_form(one, 1)
        point = MultiProjectivePoint([(1, 1)])
        results = check_hypotheses(F, E, point)
        table = {h.name: h for h in results}
        assert table["zero-set"].passed
        assert table["coordinates-nonzero"].passed
        assert not table["reciprocal-nonzero"].passed
        assert table["reciprocal-nonzero"].witness == "F(x^-1) = 0"

    def test_zero_coordinate_witness(self, golden):
        F, E = build_sum_form(golden, 2)
        point = MultiProjectivePoint([(1, golden), (1, 0)])
        # the sum no longer matches N, but hypothesis checking is independent
        results = check_hypotheses(F, E, point)
        table = {h.name: h for h in results}
        assert not table["coordinates-nonzero"].passed
        assert "x_11" in table["coordinates-nonzero"].witness

    def test_point_inverse(self, golden):
        point = MultiProjectivePoint([(Fraction(1, 2), golden)])
        inv = point_inverse(point)
        assert inv.blocks[0][0].as_fraction() == 2
        assert inv.blocks[0][1].equals(golden.inv())


def _is_zero(value) -> bool:
    # evaluate() returns a rectangle only when it excludes zero
    return isinstance(value, AlgebraicNumber) and value.is_zero()


class TestHypothesisGate:
    def test_golden_gates_need_no_resultant(self, golden, monkeypatch):
        import heightbounds.algebraic as algebraic_mod

        def refuse(*_args):
            raise AssertionError("resultant computed")

        monkeypatch.setattr(algebraic_mod, "_resultant_sum", refuse)
        monkeypatch.setattr(algebraic_mod, "_resultant_product", refuse)
        F, E = build_sum_form(golden, 1)
        point = MultiProjectivePoint([(1, golden)])
        results = check_hypotheses(F, E, point)
        assert [h.name for h in results] == [
            "zero-set", "coordinates-nonzero", "reciprocal-nonzero"]
        assert all(h.passed for h in results)

    def test_gates_build_no_rect_product(self, golden, sqrt2, sqrt3, monkeypatch):
        # golden r = 1, and r = 3 with irrational N = phi and alpha_3 of degree 8
        cases = [(golden, [golden]), (golden, [sqrt2, sqrt3, golden - sqrt2 - sqrt3])]

        def refuse(*_args):
            raise AssertionError("Fraction rectangle product built")

        monkeypatch.setattr(Rect, "__mul__", refuse)
        monkeypatch.setattr(Rect, "__rmul__", refuse)
        for n_value, alphas in cases:
            F, E = build_sum_form(n_value, len(alphas))
            point = MultiProjectivePoint([(1, a) for a in alphas])
            assert all(h.passed for h in check_hypotheses(F, E, point))

    def test_past_cap_gates_through_ladder_and_doubled_cap(self, sqrt2, sqrt3, monkeypatch):
        # sqrt2 + sqrt3 = N is degree 4 > cap 2: no rung of the interval
        # ladder separates the zero from 0, and the doubled cap decides it
        import heightbounds.verify as verify_mod
        alphas = [sqrt2, sqrt3]
        F, E = build_sum_form(sqrt2 + sqrt3, 2)
        point = MultiProjectivePoint([(1, a) for a in alphas])
        rungs = []

        def recorded(F, point, bits):
            rungs.append(bits)
            return evaluate_interval(F, point, bits)

        monkeypatch.setattr(verify_mod, "evaluate_interval", recorded)
        results = check_hypotheses(F, E, point, cap=2)
        assert [h.name for h in results if h.passed] == [
            "zero-set", "coordinates-nonzero", "reciprocal-nonzero"]
        # the ladder starts at 128: the 64-bit rung is `_vanishes`'s own
        # test, and the reciprocal gate is decided by it
        assert rungs == [64, 128, 256, 512, 1024, 2048, 4096, 64]

    def test_near_miss_reciprocal_decided_exactly(self):
        # alpha = sqrt(1 + 2^-100): F(x^-1) = 1/alpha - alpha = -2^-100/alpha
        # is nonzero, yet the 64-bit rectangle around it still holds 0
        f = IntPolynomial([-(2 ** 100 + 1), 0, 2 ** 100])
        alpha = AlgebraicNumber(f, _isolated(f)[1])
        F = MultihomogeneousPolynomial((1,), (1,), {((0, 1),): 1, ((1, 0),): alpha.neg()})
        point = MultiProjectivePoint([(1, alpha)])
        assert evaluate_interval(reciprocal_transform(F), point, 64).contains_zero()
        table = {h.name: h for h in check_hypotheses(F, ExceptionalSet([0]), point)}
        assert table["zero-set"].passed
        assert table["coordinates-nonzero"].passed
        assert table["reciprocal-nonzero"].passed
        assert not _is_zero(evaluate(F, point_inverse(point)))

    def test_r2_matches_reference_evaluation(self):
        rng = random.Random(5150)
        cases = []
        # unit pairs alpha_1 * alpha_2 = 1 with alpha_1 + alpha_2 = N
        for n in (-3, -1, 0, 1, 3):
            f = IntPolynomial([1, -n, 1])
            for box in _isolated(f):
                a1 = AlgebraicNumber(f, box)
                cases.append((n, a1, a1.inv()))
        while len(cases) < 40:
            n = rng.choice((0, 0, -2, -1, 1, 2))
            cs = [rng.randint(-3, 3) for _ in range(rng.randint(1, 2))] + [rng.randint(1, 2)]
            facs = [g for g, _ in factor_over_rationals(IntPolynomial(cs)) if g.degree >= 1]
            if not facs:
                continue
            g = rng.choice(facs)
            a1 = AlgebraicNumber(g, rng.choice(_isolated(g)))
            a2 = a1.neg()._add_rational(n)
            if rng.random() < 0.3:  # off the zero set
                a2 = a2._add_rational(Fraction(1, rng.randint(1, 3)))
            if a1.is_zero() or a2.is_zero():
                continue
            cases.append((n, a1, a2))
        verdicts = set()
        for n, a1, a2 in cases:
            F, E = build_sum_form(as_algebraic(n), 2)
            point = MultiProjectivePoint([(1, a1), (1, a2)])
            table = {h.name: h.passed for h in check_hypotheses(F, E, point)}
            expect = (_is_zero(evaluate(F, point)),
                      not _is_zero(evaluate(F, point_inverse(point))))
            assert (table["zero-set"], table["reciprocal-nonzero"]) == expect, (n, a1, a2)
            verdicts.add(expect)
        assert verdicts == {(True, True), (True, False), (False, True)}


class TestVerifyTheorem:
    def test_equality_candidate(self, golden):
        F, E = build_sum_form(golden, 1)
        point = MultiProjectivePoint([(1, golden)])
        v = verify_theorem(F, E, point, 128)
        assert v.status == "equality-candidate"
        assert v.margin.contains(0)
        assert -Fraction(1, 10**9) <= v.margin.lo and v.margin.hi <= Fraction(1, 10**9)

    def test_holds_with_margin(self):
        two = as_algebraic(2)
        F, E = build_sum_form(two, 1)
        point = MultiProjectivePoint([(1, 2)])
        v = verify_theorem(F, E, point, 128)
        assert v.status == "holds"
        expect = 2 * LN_2 - LN_PHI
        assert v.margin.lo - SLACK <= expect <= v.margin.hi + SLACK

    def test_hypothesis_gate_blocks_margin(self):
        one = as_algebraic(1)
        F, E = build_sum_form(one, 1)
        point = MultiProjectivePoint([(1, 1)])
        v = verify_theorem(F, E, point, 128)
        assert v.status == "violated-hypotheses"
        assert v.margin is None and v.lhs is None


class TestVerifyCorollary:
    def test_r1_equality(self, golden):
        v = verify_corollary(CorollaryInstance([golden], golden), 128)
        assert v.status == "equality-candidate"
        assert v.lhs.log_height.lo - SLACK <= HALF_LN_PHI <= v.lhs.log_height.hi + SLACK

    def test_r2_equality(self, golden):
        inst = CorollaryInstance([as_algebraic(1), golden._add_rational(-1)], golden)
        v = verify_corollary(inst, 128)
        assert v.status == "equality-candidate"

    def test_holds(self):
        v = verify_corollary(CorollaryInstance([as_algebraic(2)], as_algebraic(2)), 128)
        assert v.status == "holds"
        expect = LN_2 - HALF_LN_PHI
        assert v.margin.lo - SLACK <= expect <= v.margin.hi + SLACK

    def test_not_an_instance(self, golden, sqrt2):
        with pytest.raises(InstanceError):
            verify_corollary(CorollaryInstance([sqrt2], golden), 64)

    def test_r2_sum_not_n(self, golden, sqrt2):
        with pytest.raises(InstanceError, match="sum of the alphas is not N"):
            verify_corollary(CorollaryInstance([sqrt2, golden], as_algebraic(2)), 64)

    def test_n_must_be_totally_real_integer(self, sqrt2):
        i_num = alg("x^2+1", 0)
        with pytest.raises(InstanceError):
            verify_corollary(CorollaryInstance([i_num], i_num), 64)
        half = as_algebraic(Fraction(1, 2))
        with pytest.raises(InstanceError):
            verify_corollary(CorollaryInstance([half], half), 64)

    def test_zero_alpha_rejected(self, golden):
        with pytest.raises(InstanceError):
            CorollaryInstance([as_algebraic(0)], golden)

    def test_reciprocal_violation_is_verdict(self):
        one = as_algebraic(1)
        v = verify_corollary(CorollaryInstance([one], one), 64)
        assert v.status == "violated-hypotheses"


class TestSchinzel:
    def test_golden_equality(self, golden):
        res = schinzel_check(golden, 128)
        assert res.applicable and res.verdict.status == "equality-candidate"

    def test_sqrt2_holds(self, sqrt2):
        res = schinzel_check(sqrt2, 128)
        assert res.applicable and res.verdict.status == "holds"
        # log h(sqrt2) = (1/2) log 2 ~ 0.3466 > 0.2406
        assert float(res.verdict.margin.mid) == pytest.approx(0.10596767750017091, abs=1e-9)

    def test_not_applicable_cases(self):
        for bad, why in ((alg("x^2+1", 0), "totally real"),
                         (as_algebraic(1), "unit"),
                         (as_algebraic(0), "0"),
                         (as_algebraic(Fraction(1, 2)), "integer")):
            res = schinzel_check(bad, 64)
            assert not res.applicable
            assert any(why in r for r in res.reasons), (why, res.reasons)

    def test_soundness_sample(self):
        # 200 randomized totally real algebraic integers of degree <= 4 with
        # coefficients in [-5, 5]: the floor never fails
        rng = random.Random(424242)
        threshold = HALF_LN_PHI - Fraction(1, 10**9)
        checked = 0
        while checked < 200:
            deg = rng.randint(1, 4)
            cs = [rng.randint(-5, 5) for _ in range(deg)] + [1]
            f = IntPolynomial(cs)
            facs = [g for g, _ in factor_over_rationals(f)
                    if g.degree >= 1 and g.is_monic()]
            if not facs:
                continue
            g = rng.choice(facs)
            if g.coeffs in ((0, 1), (-1, 1), (1, 1)):
                continue
            from heightbounds.polys import count_real_roots
            if count_real_roots(g) != g.degree:
                continue
            a = AlgebraicNumber(g, rng.choice(_isolated(g)))
            res = schinzel_check(a, 64)
            assert res.applicable
            assert res.verdict.status in ("holds", "equality-candidate")
            assert res.verdict.lhs.log_height.hi >= threshold
            checked += 1


class TestZhangZagierSample:
    def test_valid_instances_hold(self):
        rng = random.Random(31415)
        checked = 0
        while checked < 12:
            deg = rng.randint(1, 3)
            cs = [rng.randint(-5, 5) for _ in range(deg)] + [rng.randint(1, 5)]
            f = IntPolynomial(cs)
            facs = [g for g, _ in factor_over_rationals(f) if g.degree >= 1]
            if not facs:
                continue
            g = rng.choice(facs)
            if g.coeffs in ((0, 1), (-1, 1), (1, -1, 1)):
                continue
            alpha = AlgebraicNumber(g, rng.choice(_isolated(g)))
            one_minus = alpha.neg()._add_rational(1)
            inst = CorollaryInstance([alpha, one_minus], as_algebraic(1))
            v = verify_corollary(inst, 128)
            assert v.status in ("holds", "equality-candidate")
            checked += 1


class TestBatch:
    def test_deterministic_across_jobs(self, golden):
        insts = [CorollaryInstance([golden], golden),
                 CorollaryInstance([as_algebraic(2)], as_algebraic(2)),
                 CorollaryInstance([as_algebraic(1)], as_algebraic(1))]
        seq = verify_corollary_batch(insts, 128, jobs=1)
        par = verify_corollary_batch(insts, 128, jobs=3)
        assert [v.status for v in seq] == [v.status for v in par]
        for a, b in zip(seq, par):
            if a.margin is not None:
                assert a.margin.lo == b.margin.lo and a.margin.hi == b.margin.hi

    def test_workers_bounded_by_instances(self, golden, recording_pool):
        insts = [CorollaryInstance([golden], golden),
                 CorollaryInstance([as_algebraic(2)], as_algebraic(2))]
        par = verify_corollary_batch(insts, 128, jobs=100000)
        assert recording_pool == [2]
        assert verify_corollary_batch(insts[:1], 128, jobs=100000)[0].status == par[0].status
        assert recording_pool == [2]  # a single instance runs in this process

    def test_generator_input(self, golden, recording_pool):
        insts = [CorollaryInstance([golden], golden),
                 CorollaryInstance([as_algebraic(2)], as_algebraic(2))]
        expect = [v.status for v in verify_corollary_batch(insts, 128)]
        par = verify_corollary_batch((inst for inst in insts), 128, jobs=4)
        assert [v.status for v in par] == expect
        assert recording_pool == [2]


class TestManyModularFactors:
    def test_r3_hypotheses_finish(self):
        # F(x^-1) meets 1/alpha_1 + 1/alpha_2 + 1/alpha_3, a degree-16
        # resultant with many factors modulo every prime
        run_with_deadline(
            "from heightbounds.algebraic import AlgebraicNumber, _isolated, as_algebraic\n"
            "from heightbounds.heights import MultiProjectivePoint\n"
            "from heightbounds.polys import parse_polynomial as P\n"
            "from heightbounds.verify import build_sum_form, check_hypotheses\n"
            "f, g = P('x^2+5x-5'), P('2x^2-x-5')\n"
            "a1 = AlgebraicNumber(f, _isolated(f)[0])\n"
            "a2 = AlgebraicNumber(g, _isolated(g)[0])\n"
            "two = as_algebraic(2)\n"
            "F, E = build_sum_form(two, 3)\n"
            "point = MultiProjectivePoint([(1, a) for a in (a1, a2, two - a1 - a2)])\n"
            "assert all(h.passed for h in check_hypotheses(F, E, point))\n")
