"""Each output check of oracle.py must fail on a corrupted output.

Run:  python3 -m pytest benchmark/test_oracle.py -q
"""

import copy
import os
import sys

import mpmath

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402

GOLDEN = {"minpoly": [-1, -1, 1], "root": {"re": ["3/2", "2"], "im": ["0", "0"]}}
TWO = {"minpoly": [-2, 1], "root": {"re": ["2", "2"], "im": ["0", "0"]}}
MINUS_TWO = {"minpoly": [2, 1], "root": {"re": ["-2", "-2"], "im": ["0", "0"]}}


def enclosure(x, halfwidth=mpmath.mpf(10) ** -45):
    with mpmath.workdps(oracle.DPS):
        return {"lo": mpmath.nstr(x - halfwidth, 60, min_fixed=-1, max_fixed=1),
                "hi": mpmath.nstr(x + halfwidth, 60, min_fixed=-1, max_fixed=1),
                "bits": 128}


def hyps(reciprocal=True):
    return {"zero-set": {"passed": True, "witness": ""},
            "coordinates-nonzero": {"passed": True, "witness": ""},
            "reciprocal-nonzero": {"passed": reciprocal, "witness": ""}}


def verdict(status, hsum, reciprocal=True):
    if not reciprocal:
        return {"status": status, "hypotheses": hyps(False), "lhs": None,
                "log_rho": None, "margin": None, "precision_bits": 128}
    with mpmath.workdps(oracle.DPS):
        b = oracle.half_log_phi()
        return {"status": status, "hypotheses": hyps(), "lhs": enclosure(hsum),
                "log_rho": enclosure(b), "margin": enclosure(hsum - b), "precision_bits": 128}


# -- corollary ------------------------------------------------------------------


def golden_case():
    return {"alphas": [GOLDEN], "N": GOLDEN}, verdict("equality-candidate", oracle.half_log_phi())


def holds_case():
    return {"alphas": [TWO], "N": TWO}, verdict("holds", oracle.log_height([-2, 1]))


def violated_case():
    return {"alphas": [TWO, MINUS_TWO], "N": "0"}, verdict("violated-hypotheses", 0, False)


def test_correct_verdicts_pass():
    for request, v in (golden_case(), holds_case(), violated_case()):
        assert oracle.check_corollary(request, v) == []


def test_height_enclosure_corrupted():
    request, v = holds_case()
    with mpmath.workdps(oracle.DPS):
        v["lhs"] = enclosure(oracle.log_height([-2, 1]) + mpmath.mpf(10) ** -30)
    assert any("outside" in p for p in oracle.check_corollary(request, v))


def test_log_rho_corrupted():
    request, v = holds_case()
    v["log_rho"] = enclosure(oracle.half_log_phi() * 2)
    assert any("log_rho" in p for p in oracle.check_corollary(request, v))


def test_equality_claimed_off_the_bound():
    request, v = holds_case()
    v["status"] = "equality-candidate"
    assert any("equality-candidate" in p for p in oracle.check_corollary(request, v))


def test_holds_claimed_at_the_bound():
    request, v = golden_case()
    v["status"] = "holds"
    assert any("status is holds" in p for p in oracle.check_corollary(request, v))


def test_violated_claimed_without_reciprocal_equality():
    request, _ = holds_case()
    v = verdict("violated-hypotheses", 0, False)
    assert any("without sum 1/alpha_i = N" in p for p in oracle.check_corollary(request, v))


def test_reciprocal_gate_passed_wrongly():
    request, _ = violated_case()
    v = verdict("holds", 2 * oracle.log_height([-2, 1]))
    assert any("reciprocal gate passed" in p for p in oracle.check_corollary(request, v))


def test_undecided_status_rejected():
    request, v = holds_case()
    v["status"] = "undecided-at-precision"
    assert any("status is undecided" in p for p in oracle.check_corollary(request, v))


# -- arith ------------------------------------------------------------------------


SQRT2 = {"minpoly": [-2, 0, 1], "root": {"re": ["1", "3/2"], "im": ["0", "0"]}}
SQRT3 = {"minpoly": [-3, 0, 1], "root": {"re": ["3/2", "2"], "im": ["0", "0"]}}


def arith_case():
    pair = {"a": SQRT2, "b": SQRT3}
    out = {"sum": {"minpoly": [1, 0, -10, 0, 1], "root": {"re": ["3", "13/4"], "im": ["0", "0"]}},
           "prod": {"minpoly": [-6, 0, 1], "root": {"re": ["2", "5/2"], "im": ["0", "0"]}},
           "sum_back": True, "prod_back": True, "inv_back": True}
    return pair, out


def test_correct_arith_passes():
    assert oracle.check_arith(*arith_case()) == []


def test_wrong_minimal_polynomial():
    pair, out = arith_case()
    out["sum"]["minpoly"] = [1, 0, -9, 0, 1]
    assert any("not a root" in p for p in oracle.check_arith(pair, out))


def test_reducible_minimal_polynomial():
    pair, out = arith_case()
    out["prod"]["minpoly"] = [6, -6, -1, 1]       # (x^2 - 6)(x - 1)
    problems = oracle.check_arith(pair, out)
    assert any("reducible" in p for p in problems)
    assert not any("not a root" in p for p in problems)


def test_root_box_misplaced():
    pair, out = arith_case()
    out["prod"]["root"]["re"] = ["-5/2", "-2"]
    assert any("outside its root box" in p for p in oracle.check_arith(pair, out))


def test_round_trip_flag():
    pair, out = arith_case()
    out["inv_back"] = False
    assert any("inv_back" in p for p in oracle.check_arith(pair, out))


# -- survey -----------------------------------------------------------------------


REAL_BOX = {"degrees": [1, 2], "coeff_bound": 1, "monic": True,
            "predicates": ["totally-real", "algebraic-integer", "exclude-trivial", "irreducible"]}
COMPLEX_BOX = {"degrees": [1, 2], "coeff_bound": 1, "monic": True,
               "predicates": ["algebraic-integer", "exclude-trivial", "irreducible"]}


def record(coeffs):
    h = oracle.log_height(coeffs)
    logh = {"lo": "0", "hi": "0"} if abs(h) < mpmath.mpf(10) ** -40 else enclosure(h)
    return {"minpoly": coeffs, "deg": len(coeffs) - 1, "logh": logh, "flags": []}


def survey_case(space):
    records = sorted((record(list(c)) for c in oracle.expected_records(space)),
                     key=lambda r: (r["minpoly"]))
    out = {"records": len(records), "minimum": [-1, -1, 1],
           "tie_class": [[-1, -1, 1], [-1, 1, 1]], "strict": True}
    return records, out


def test_correct_surveys_pass():
    records, out = survey_case(REAL_BOX)
    assert {tuple(r["minpoly"]) for r in records} == {(-1, -1, 1), (-1, 1, 1)}
    assert oracle.check_survey(REAL_BOX, records, out, first_box=True) == []
    records, out = survey_case(COMPLEX_BOX)
    assert len(records) == 5
    assert oracle.check_survey(COMPLEX_BOX, records, out) == []


def test_missing_record():
    records, out = survey_case(REAL_BOX)
    problems = oracle.check_survey(REAL_BOX, records[:1], dict(out, records=1), first_box=True)
    assert any("differs from sympy" in p for p in problems)


def test_record_height_corrupted():
    records, out = survey_case(REAL_BOX)
    records = copy.deepcopy(records)
    with mpmath.workdps(oracle.DPS):
        records[0]["logh"] = enclosure(oracle.half_log_phi() + mpmath.mpf(10) ** -20)
    problems = oracle.check_survey(REAL_BOX, records, out, first_box=True)
    assert any("height outside" in p for p in problems)


def test_wrong_minimum_and_tie_class():
    records, out = survey_case(REAL_BOX)
    problems = oracle.check_survey(REAL_BOX, records, dict(out, minimum=[1, 1, 1],
                                                           tie_class=[[1, 1, 1]]), first_box=True)
    assert any("minimum is" in p for p in problems)
    assert any("tie class" in p for p in problems)


def test_height_zero_record_not_cyclotomic():
    records, out = survey_case(COMPLEX_BOX)
    records = copy.deepcopy(records)
    for r in records:
        if r["minpoly"] == [1, 0, 1]:               # x^2 + 1 loses its zero height
            r["logh"] = enclosure(mpmath.mpf(10) ** -3)
    problems = oracle.check_survey(COMPLEX_BOX, records, out)
    assert any("cyclotomic" in p for p in problems)
