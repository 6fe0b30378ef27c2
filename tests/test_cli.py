import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from heightbounds import jsonio
from heightbounds.cli import main, parse_algnum
from heightbounds.search import SearchSpace
from heightbounds.verify import build_sum_form

from conftest import alg


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParseAlgnum:
    def test_rational(self):
        assert parse_algnum("3/4").as_fraction() == Fraction(3, 4)
        assert parse_algnum("-2").as_fraction() == -2

    def test_poly_with_decimal_selector(self):
        a = parse_algnum("x^2-x-1@1.618")
        assert abs(float(a) - 1.618033988749895) < 1e-9

    def test_poly_with_imaginary_selector(self):
        a = parse_algnum("x^2+1@i")
        assert a.minpoly.coeffs == (1, 0, 1)
        assert float(a.box().im.lo) > 0

    def test_index_selector(self):
        a = parse_algnum("x^2-2@#0")
        assert float(a) < 0

    def test_single_root_needs_no_selector(self):
        a = parse_algnum("x-5")
        assert a.as_fraction() == 5

    def test_ambiguity_and_garbage(self):
        from heightbounds.cli import CliError
        with pytest.raises(CliError):
            parse_algnum("x^2-2")  # two roots, no selector
        with pytest.raises(CliError):
            parse_algnum("x^2-2@#7")
        with pytest.raises(CliError):
            parse_algnum("x^2-2@zzz")


class TestSubcommands:
    def test_rho_golden(self, capsys):
        code, out, _ = run_cli(["rho", "--cf", "1", "--delta", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["minpoly"] == [-1, -1, 1]
        assert abs(float(doc["approx"]) - 1.6180339887498949) < 1e-9

    def test_rho_error_exit(self, capsys):
        code, _, err = run_cli(["rho", "--cf", "1", "--delta", "0"], capsys)
        assert code == 3
        assert "C_F > 1" in err

    def test_mahler(self, capsys):
        code, out, _ = run_cli(["mahler", "x^2-x-1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert abs(float(doc["approx"]) - 1.6180339887498949) < 1e-10

    def test_height(self, capsys):
        code, out, _ = run_cli(["height", "x^2-x-1@1.618"], capsys)
        doc = json.loads(out)
        assert code == 0
        assert abs(float(doc["approx"]) - 0.2406059125298017) < 1e-12

    def test_schinzel_not_applicable(self, capsys):
        code, out, _ = run_cli(["schinzel", "x^2+1@i"], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["applicable"] is False

    def test_schinzel_equality(self, capsys):
        code, out, _ = run_cli(["schinzel", "x^2-x-1@1.618"], capsys)
        assert code == 0
        assert json.loads(out)["status"] == "equality-candidate"

    def test_lemma33(self, capsys):
        code, out, _ = run_cli(["lemma33", "--alpha", "1", "--beta", "2",
                                "--gamma", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert float(doc["max_discrepancy"]) < 1e-9

    def test_constants_and_verify_round_trip(self, tmp_path, capsys, golden):
        F, E = build_sum_form(golden, 1)
        fpath = tmp_path / "F.json"
        fpath.write_text(jsonio.dumps(jsonio.form_to_json(F, E)))
        code, out, _ = run_cli(["constants", str(fpath)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["delta"] == "1" and doc["C_F"] == 1

        point = {"blocks": [["1", jsonio.algnum_to_json(golden)]]}
        ppath = tmp_path / "p.json"
        ppath.write_text(jsonio.dumps(point))
        code, out, _ = run_cli(["verify", str(fpath), str(ppath)], capsys)
        assert code == 0
        assert json.loads(out)["status"] == "equality-candidate"

    def test_corollary_violated_exit(self, tmp_path, capsys):
        inst = {"alphas": ["1"], "N": "1"}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst))
        code, out, _ = run_cli(["corollary", str(path)], capsys)
        assert code == 1
        assert json.loads(out)["status"] == "violated-hypotheses"

    def test_corollary_past_the_cap(self, tmp_path, capsys, sqrt2, sqrt3):
        # N = sqrt2 + sqrt3 has degree 4 > cap 2; the doubled cap decides
        # the zero-set gate once the interval ladder cannot
        inst = {"alphas": [jsonio.algnum_to_json(sqrt2), jsonio.algnum_to_json(sqrt3)],
                "N": jsonio.algnum_to_json(sqrt2 + sqrt3)}
        path = tmp_path / "inst.json"
        path.write_text(jsonio.dumps(inst))
        code, out, _ = run_cli(["--cap", "2", "corollary", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["status"] == "holds"

    def test_search_and_hunt(self, tmp_path, capsys):
        space = SearchSpace(1, 2, 2).to_json_dict()
        spath = tmp_path / "space.json"
        spath.write_text(json.dumps(space))
        rpath = tmp_path / "records.jsonl"
        code, out, _ = run_cli(["--precision", "64", "search", str(spath),
                                "--records", str(rpath),
                                "--cursor", str(tmp_path / "cursor.json")], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["minimum"]["minpoly"] in ([-1, -1, 1], [-1, 1, 1])
        assert rpath.exists()

        code, out, _ = run_cli(["--precision", "96", "hunt", str(spath), "--r", "1"],
                               capsys)
        assert code == 0
        assert json.loads(out)["count"] >= 2

    def test_spotcheck(self, tmp_path, capsys, golden):
        F, E = build_sum_form(golden, 1)
        fpath = tmp_path / "F.json"
        fpath.write_text(jsonio.dumps(jsonio.form_to_json(F, E)))
        code, out, _ = run_cli(["spotcheck", str(fpath), "--trials", "10",
                                "--seed", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] and doc["consistent"]

    def test_schema_violation_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"shape": [1]}))
        code, _, err = run_cli(["constants", str(bad)], capsys)
        assert code == 3
        assert "degrees" in err

    def test_text_format(self, capsys):
        code, out, _ = run_cli(["--format", "text", "rho", "--cf", "1",
                                "--delta", "1"], capsys)
        assert code == 0
        assert out.startswith("rho = 1.61803")


class TestProcessLevel:
    def test_usage_error_exit_64(self):
        proc = subprocess.run([sys.executable, "-m", "heightbounds", "nonsense"],
                              capture_output=True, text=True,
                              cwd=str(Path(__file__).resolve().parent.parent))
        assert proc.returncode == 64

    def test_precision_outside_range_is_usage_error(self, capsys):
        # above the 4096-bit cap, schinzel of this root took seconds per
        # doubling: --precision 1000000 never finished
        for bits in ("31", "4097", "1000000"):
            code, out, err = run_cli(["--precision", bits, "schinzel", "x^2-x-3@2.3"], capsys)
            assert (code, out) == (64, "")
            assert "between 32 and 4096" in err
        code, out, _ = run_cli(["--precision", "4096", "schinzel", "x^2-x-3@2.3"], capsys)
        assert code == 0
        assert json.loads(out)["precision_bits"] == 4096

    def test_jobs_outside_range_is_usage_error(self, tmp_path, capsys, recording_pool):
        spath = tmp_path / "space.json"
        spath.write_text(json.dumps(SearchSpace(1, 2, 2).to_json_dict()))
        for jobs in ("0", "257", "100000"):
            code, out, err = run_cli(["--jobs", jobs, "search", str(spath)], capsys)
            assert (code, out) == (64, "")
            assert "between 1 and 256" in err
        assert recording_pool == []
        code, _, _ = run_cli(["--precision", "64", "--jobs", "256", "search", str(spath)], capsys)
        assert code == 0
        assert recording_pool == [2]  # a worker per chunk, one chunk per degree

    def test_round_trip_emitted_algnum_accepted(self, tmp_path, capsys, golden):
        # every emitted schema is accepted where that schema is an input
        doc = jsonio.algnum_to_json(golden)
        path = tmp_path / "a.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["height", str(path)], capsys)
        assert code == 0
        assert abs(float(json.loads(out)["approx"]) - 0.2406059125298017) < 1e-12

    def test_byte_identical_across_runs(self, capsys):
        _, out1, _ = run_cli(["rho", "--cf", "3", "--delta", "1/2"], capsys)
        _, out2, _ = run_cli(["rho", "--cf", "3", "--delta", "1/2"], capsys)
        assert out1 == out2
