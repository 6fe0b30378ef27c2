from fractions import Fraction

import pytest

from heightbounds.forms import (ExceptionalSet, FormError, InfeasibleWeight,
                                MultihomogeneousPolynomial, c_max, c_value,
                                degree_data, delta, is_regular_monomial,
                                reciprocal_transform, validate, weight_scheme)
from heightbounds.verify import build_sum_form

from conftest import alg


def sum_form(r, n_alg=None):
    n_value = n_alg if n_alg is not None else alg("x^2-x-1", 1)
    return build_sum_form(n_value, r)


class TestStructure:
    def test_rows_must_sum_to_degree(self):
        with pytest.raises(FormError):
            MultihomogeneousPolynomial((1,), (2,), {((1, 0),): 1})

    def test_negative_exponent(self):
        with pytest.raises(FormError):
            MultihomogeneousPolynomial((1,), (0,), {((-1, 1),): 1})

    def test_duplicate_monomial(self):
        with pytest.raises(FormError):
            MultihomogeneousPolynomial((1,), (1,), [(((1, 0),), 1), (((1, 0),), 2)])

    def test_exceptional_set_legality(self):
        F = MultihomogeneousPolynomial((1, 2), (1, 1),
                                       {((1, 0), (1, 0, 0)): 1,
                                        ((0, 1), (0, 0, 1)): 2})
        rep = validate(F, ExceptionalSet([1]))
        assert not rep.ok and "n_i" in rep.issues[0]


class TestValidation:
    def test_corollary_form_valid(self, golden):
        F, E = build_sum_form(golden, 1)
        assert validate(F, E).ok

    def test_property_ii_violation(self, golden):
        F, _ = build_sum_form(golden, 1)
        rep = validate(F, ExceptionalSet([]))
        assert not rep.ok
        assert any("non-integer coefficient" in issue for issue in rep.issues)

    def test_all_integer_form(self):
        F = MultihomogeneousPolynomial((1,), (2,),
                                       {((0, 2),): 1, ((1, 1),): -2})
        assert validate(F, ExceptionalSet([])).ok

    def test_not_totally_real_coefficient(self):
        bad = alg("x^2+1", 0)
        F = MultihomogeneousPolynomial((1,), (1,), {((1, 0),): bad, ((0, 1),): 1})
        rep = validate(F, ExceptionalSet([0]))
        assert not rep.ok
        assert any("totally real" in i for i in rep.issues)

    def test_non_integer_rational_coefficient(self):
        F = MultihomogeneousPolynomial((1,), (1,),
                                       {((1, 0),): Fraction(1, 2), ((0, 1),): 1})
        rep = validate(F, ExceptionalSet([0]))
        assert not rep.ok
        assert any("algebraic integer" in i for i in rep.issues)


class TestDegreeData:
    def test_corollary_r2(self, golden):
        F, _ = build_sum_form(golden, 2)
        d_ij, d_tilde = degree_data(F)
        assert d_ij == ((1, 1), (1, 1))
        assert d_tilde == (1, 1)

    def test_product_form(self):
        F = MultihomogeneousPolynomial((1,), (2,), {((1, 1),): 1})
        d_ij, d_tilde = degree_data(F)
        assert d_ij == ((1, 1),) and d_tilde == (0,)

    def test_pure_power(self):
        F = MultihomogeneousPolynomial((1,), (2,), {((0, 2),): 1})
        d_ij, d_tilde = degree_data(F)
        assert d_ij == ((0, 2),) and d_tilde == (0,)


class TestDelta:
    def test_corollary_delta_one(self, golden):
        F, E = build_sum_form(golden, 2)
        assert delta(F, E) == 1

    def test_zero_for_balanced_product(self):
        F = MultihomogeneousPolynomial((1,), (2,), {((1, 1),): 1})
        assert delta(F, ExceptionalSet([])) == 0

    def test_mixed_blocks(self):
        # blocks n=(1,2), d_tilde=(1,3), d_11=1, I={0}: max(2/2, 3/3) = 1
        F = MultihomogeneousPolynomial(
            (1, 2), (1, 1),
            {((1, 0), (1, 0, 0)): 1,
             ((0, 1), (0, 1, 0)): 2,
             ((1, 0), (0, 0, 1)): 3,
             ((0, 1), (1, 0, 0)): 4})
        d_ij, d_tilde = degree_data(F)
        assert d_tilde == (1, 2)
        val = delta(F, ExceptionalSet([0]))
        assert val == max(Fraction(1 + 1, 2), Fraction(2, 3))


class TestCValues:
    def test_corollary_all_ones(self, golden):
        F, E = build_sum_form(golden, 3)
        for i in range(3):
            assert c_value(F, i, 1, E) == 1
        assert c_max(F, E) == 1

    def test_weighted_sum(self):
        # 3*x11^2 - 2*x10*x11: c(0,1) = 2*3 + 1*2 = 8
        F = MultihomogeneousPolynomial((1,), (2,),
                                       {((0, 2),): 3, ((1, 1),): -2})
        assert c_value(F, 0, 1, ExceptionalSet([])) == 8

    def test_single_monomial(self):
        F = MultihomogeneousPolynomial((1,), (2,), {((0, 2),): 1})
        assert c_value(F, 0, 1, ExceptionalSet([])) == 2

    def test_exceptional_pair_with_irrational_coeff_refused(self, golden):
        F, E = build_sum_form(golden, 1)
        with pytest.raises(FormError):
            c_value(F, 0, 0, E)

    def test_no_regular_pairs(self):
        F = MultihomogeneousPolynomial((1,), (1,), {((1, 0),): 1})
        # all pairs of x_00-only polynomial: (0,0) exceptional, (0,1) regular with c=0
        assert c_max(F, ExceptionalSet([0])) == 0


class TestReciprocalTransform:
    def test_corollary_r1(self, golden):
        F, _ = build_sum_form(golden, 1)
        Ft = reciprocal_transform(F)
        # F = x01 - N x00 -> Ft = x00 - N x01
        assert Ft.monomials[((1, 0),)].as_fraction() == 1
        coeff = Ft.monomials[((0, 1),)]
        assert coeff.neg().equals(golden)

    def test_balanced_product_becomes_constant(self):
        F = MultihomogeneousPolynomial((1,), (2,), {((1, 1),): 1})
        Ft = reciprocal_transform(F)
        assert Ft.degrees == (0,)
        assert list(Ft.monomials) == [((0, 0),)]

    def test_symmetric_fixed_point(self):
        F = MultihomogeneousPolynomial((1,), (2,), {((2, 0),): 1, ((0, 2),): 1})
        Ft = reciprocal_transform(F)
        assert Ft.monomials == F.monomials

    def test_degree_law_and_involution(self, golden):
        F, _ = build_sum_form(golden, 2)
        Ft = reciprocal_transform(F)
        _, d_tilde = degree_data(F)
        assert Ft.degrees == d_tilde
        # full support: transforming twice comes back
        Ftt = reciprocal_transform(Ft)
        assert Ftt.degrees == F.degrees
        assert set(Ftt.monomials) == set(F.monomials)


class TestWeightScheme:
    def test_b_zero_all_ones(self, golden):
        F, E = build_sum_form(golden, 2)
        ws = weight_scheme(F, E, 0)
        assert all(v == 1 for v in ws.a.values())
        assert ws.block_weights == (2, 2)

    def test_exceptional_split(self, golden):
        # proof-consistent convention: j=0 carries (d~ - d1), j=1 carries (d~ + d1)
        F, E = build_sum_form(golden, 1)
        ws = weight_scheme(F, E, Fraction(1, 2))
        assert ws.a[(0, 0)] == 1
        assert ws.a[(0, 1)] == Fraction(1, 2)

    def test_boundary_zero_weight(self):
        # i not exceptional with d_tilde = 2, n = 1, b = 1: a = 0
        F = MultihomogeneousPolynomial(
            (1,), (2,), {((2, 0),): 1, ((0, 2),): 1, ((1, 1),): 1})
        d_ij, d_tilde = degree_data(F)
        assert d_tilde == (2,)
        ws = weight_scheme(F, ExceptionalSet([]), 1)
        assert ws.a[(0, 0)] == 0 and ws.a[(0, 1)] == 0

    def test_identity_holds_for_sampled_b(self, golden):
        F, E = build_sum_form(golden, 2)
        for b in (0, Fraction(1, 7), Fraction(1, 3), Fraction(999, 1000)):
            ws = weight_scheme(F, E, b)
            _, d_tilde = degree_data(F)
            for i in range(F.r):
                total = sum(ws.a[(i, j)] for j in range(2)) + Fraction(b) * d_tilde[i]
                assert total == 2

    def test_infeasible_rejected(self, golden):
        F, E = build_sum_form(golden, 1)
        with pytest.raises(InfeasibleWeight):
            weight_scheme(F, E, 2)
        with pytest.raises(InfeasibleWeight):
            weight_scheme(F, E, -1)


class TestRegularMonomials:
    def test_classification(self, golden):
        F, E = build_sum_form(golden, 1)
        assert is_regular_monomial(F, E, ((0, 1),))
        assert not is_regular_monomial(F, E, ((1, 0),))
