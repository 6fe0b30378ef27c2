import json
from fractions import Fraction

import pytest

from heightbounds import jsonio
from heightbounds.algebraic import AlgebraicNumber, as_algebraic
from heightbounds.bounds import bound_constants
from heightbounds.heights import MultiProjectivePoint
from heightbounds.intervals import Interval
from heightbounds.verify import CorollaryInstance, build_sum_form, verify_corollary

from conftest import alg, run_with_deadline


class TestAlgnum:
    def test_round_trip(self, golden, sqrt2):
        for a in (golden, sqrt2, as_algebraic(Fraction(-7, 3)), alg("x^2+1", 0)):
            doc = jsonio.algnum_to_json(a)
            back = jsonio.algnum_from_json(doc)
            assert back.equals(a)

    def test_accepts_plain_rational(self):
        assert jsonio.algnum_from_json("3/4").as_fraction() == Fraction(3, 4)
        assert jsonio.algnum_from_json(5).as_fraction() == 5

    def test_schema_errors_carry_pointer(self):
        with pytest.raises(jsonio.SchemaError) as err:
            jsonio.algnum_from_json({"minpoly": [1, "x"]}, "root")
        assert "root.minpoly" in str(err.value)
        with pytest.raises(jsonio.SchemaError):
            jsonio.algnum_from_json({"minpoly": [1]})
        with pytest.raises(jsonio.SchemaError):
            jsonio.algnum_from_json({"minpoly": [-2, 0, 1], "root": {"re": [0], "im": [0, 0]}})
        # no root in the box: the only real root of 1 - x^2 - x^3 is 0.7549
        with pytest.raises(jsonio.SchemaError):
            jsonio.algnum_from_json({"minpoly": [1, 0, -1, -1],
                                     "root": {"re": ["-1", "0"], "im": ["0", "0"]}})

    def test_exponent_strings_rejected(self):
        # Fraction("1e10000000") builds a 33-million-bit integer first
        run_with_deadline(
            "from heightbounds import jsonio\n"
            "for doc in ('1e10000000', {'minpoly': [-2, 0, 1], "
            "'root': {'re': ['1', '2E9999999'], 'im': ['0', '0']}}):\n"
            "    try:\n"
            "        jsonio.algnum_from_json(doc)\n"
            "    except jsonio.SchemaError as e:\n"
            "        assert e.pointer.startswith('algnum'), e.pointer\n"
            "    else:\n"
            "        raise AssertionError('an exponent string was accepted')\n", seconds=2)
        assert jsonio.algnum_from_json("-1.25").as_fraction() == Fraction(-5, 4)

    def test_root_far_from_one_accepted(self):
        # the roots of x^2 + 10^200 are +-10^100 i, far from the unit circle
        run_with_deadline(
            "from heightbounds import jsonio\n"
            "doc = {'minpoly': [10**200, 0, 1], 'root': {'re': ['-1', '1'],"
            " 'im': ['1', str(10**201)]}}\n"
            "a = jsonio.algnum_from_json(doc)\n"
            "assert a.minpoly.coeffs == (10**200, 0, 1)\n"
            "assert abs(complex(a) - 1e100j) < 1e86\n", seconds=10)

    def test_box_with_two_roots_rejected(self):
        # the box holds both roots of x^4+1 in the upper half-plane
        run_with_deadline(
            "from heightbounds import jsonio\n"
            "doc = {'minpoly': [1, 0, 0, 0, 1], 'root': {'re': ['-1', '1'], 'im': ['1/2', '1']}}\n"
            "try:\n"
            "    jsonio.algnum_from_json(doc)\n"
            "except jsonio.SchemaError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('a box with two roots was accepted')\n", seconds=4)


class TestPoint:
    def test_round_trip(self, golden):
        p = MultiProjectivePoint([[1, golden], [Fraction(1, 2), Fraction(3, 4)]])
        doc = jsonio.point_to_json(p)
        back = jsonio.point_from_json(doc)
        assert back.shape == p.shape
        assert back.blocks[1][0].as_fraction() == Fraction(1, 2)
        assert back.blocks[0][1].equals(golden)

    def test_bad_block(self):
        with pytest.raises(jsonio.SchemaError):
            jsonio.point_from_json({"blocks": [[]]})


class TestForm:
    def test_round_trip(self, golden):
        F, E = build_sum_form(golden, 2)
        doc = jsonio.form_to_json(F, E)
        F2, E2 = jsonio.form_from_json(doc)
        assert F2.shape == F.shape and F2.degrees == F.degrees
        assert E2.blocks == E.blocks
        assert set(F2.monomials) == set(F.monomials)
        # coefficients equal (mixing ints and algebraic numbers)
        for exp, c in F.monomials.items():
            c2 = F2.monomials[exp]
            if isinstance(c, AlgebraicNumber):
                assert c2.equals(c)
            else:
                assert c2 == c

    def test_rejects_malformed(self):
        with pytest.raises(jsonio.SchemaError):
            jsonio.form_from_json({"shape": [1], "degrees": [1]})
        with pytest.raises(jsonio.SchemaError) as err:
            jsonio.form_from_json({"shape": [1], "degrees": [1],
                                   "monomials": [{"exp": [[1, 1]], "coeff": 1}]})
        assert "F" in str(err.value)


class TestVerdictAndConstants:
    def test_verdict_document(self, golden):
        v = verify_corollary(CorollaryInstance([golden], golden), 128)
        doc = jsonio.verdict_to_json(v)
        assert doc["status"] == "equality-candidate"
        assert set(doc["hypotheses"]) == {"zero-set", "coordinates-nonzero",
                                          "reciprocal-nonzero"}
        assert doc["margin"]["lo"].startswith("-0.0000")
        assert doc["precision_bits"] == 128
        json.dumps(doc)  # serializable

    def test_constants_document(self, golden):
        F, E = build_sum_form(golden, 1)
        bc = bound_constants(F, E, 96)
        doc = jsonio.constants_to_json(bc)
        assert doc["delta"] == "1"
        assert doc["C_F"] == 1
        assert doc["rho"]["minpoly"] == [-1, -1, 1]
        assert doc["rho"]["approx"].startswith("1.6180339887")
        assert doc["d_tilde"] == [1]
        json.dumps(doc)

    def test_interval_rendering_is_directed(self):
        iv = Interval(Fraction(1, 3), Fraction(1, 3))
        doc = jsonio.interval_to_json(iv, 64)
        assert Fraction(doc["lo"]) <= Fraction(1, 3) <= Fraction(doc["hi"])


class TestInstance:
    def test_round_trip(self, golden):
        inst = CorollaryInstance([as_algebraic(1), golden._add_rational(-1)], golden)
        doc = jsonio.instance_to_json(inst)
        back = jsonio.instance_from_json(doc)
        assert back.r == 2
        assert back.n_value.equals(golden)

    def test_zero_alpha_flagged(self, golden):
        doc = {"alphas": ["0"], "N": jsonio.algnum_to_json(golden)}
        with pytest.raises(jsonio.SchemaError):
            jsonio.instance_from_json(doc)
