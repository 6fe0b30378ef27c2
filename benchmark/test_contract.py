"""The metrics run.py prints are exactly the ones BENCHMARK.json declares.

Run:  python3 -m pytest benchmark/test_contract.py -q
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_end_to_end_names_and_units():
    res = run.RoundResult()
    res.samples = [(0.5, 1.1, 1), (0.25, 0.9, 1)]
    res.setup = (0.3, 1.0)
    res.rss_mb = 50.0
    metrics, _ = run.end_to_end([res])
    assert {k: v[1] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_per_layer_names_and_units(tmp_path):
    spans = {"names": ["bench.op", "verify.verify_theorem", "heights.point_log_height",
                       "factor.factor_squarefree_primitive", "factor.gf_from_poly",
                       "roots.isolate_roots"],
             "spans": [[0, 0.0, 1.0, -1], [1, 0.1, 0.9, 0], [2, 0.2, 0.5, 1],
                       [3, 0.5, 0.6, 1], [4, 0.51, 0.52, 3], [5, 0.6, 0.7, 1]],
             "keys": {"5": 17}}
    path = tmp_path / "spans.json"
    path.write_text(json.dumps(spans))
    rnd = workloads.Round("corollary", [], None, [])
    metrics = run.layer_metrics(str(path), rnd, run.RoundResult(), 1.5)
    assert {k: v[1] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["verify.self_s"][0] > 0
    assert metrics["verify.precision_steps"][0] == 1.0
    assert metrics["factor.primes_per_factorization"][0] == 1.0


def test_weighted_percentile():
    samples = [(1.0, 90), (10.0, 10)]
    assert run.weighted_percentile(samples, 50) == 1.0
    assert run.weighted_percentile(samples, 90) == 1.0
    assert run.weighted_percentile(samples, 91) == 10.0


def test_rounds_repeat_the_draw():
    a = workloads.build("corollary", 5, "/nonexistent")
    b = workloads.build("corollary", 5, "/nonexistent")
    assert a.ops == b.ops and a.attempted == len(a.ops) + 1
    assert workloads.build("corollary", 6, "/nonexistent").ops != a.ops
