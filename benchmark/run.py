"""Benchmark of heightbounds: one command per workload and seed.

    python3 benchmark/run.py --workload corollary|arith|survey \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round of operations runs in a fresh
single-threaded worker process that imports `src/heightbounds`; every time
is host-corrected against a fixed reference kernel run between operations.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics, or with
`--trace 1` the per-layer metrics of a traced round).  See README.md.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")


class RoundResult:
    def __init__(self):
        self.samples = []      # (raw_s, host_factor, weight) per completed command
        self.outputs = []      # (index, out) per completed command
        self.failed = 0
        self.errors = []       # why operations failed
        self.rss_mb = 0.0
        self.setup = None      # (raw_s, host_factor) of the round's first worker
        self.records = {}      # survey: command index -> parsed record file


def run_round(rnd, deadline_s, spans_path="", slack=1.0, sample=True):
    """Runs the round's commands in a fresh worker, then the reproducer in
    another.  Commands get `slack` times the deadline (tracing slows them);
    `sample` times the reference kernel inside operations too."""
    res = RoundResult()
    worker = None
    pending = []               # (dt, refs, in_refs, weight) awaiting correction
    for i, cmd in enumerate(rnd.ops):
        if worker is None:
            worker = harness.Worker(ROOT, rnd.workload, spans_path, sample)
            if res.setup is None:
                res.setup = (worker.setup_raw_s, worker.setup_factor)
            res.rss_mb = max(res.rss_mb, worker.rss_mb)
        reply, alive = _call(worker, cmd, deadline_s * slack)
        if not alive:
            worker = None
        if reply is None:
            res.failed += rnd.weights[i]
            res.errors.append("operation %d passed its %.1f s deadline" % (i, deadline_s * slack))
            continue
        res.rss_mb = max(res.rss_mb, reply.get("rss_mb", 0.0))
        if "error" in reply:
            res.failed += rnd.weights[i]
            res.errors.append("operation %d raised %s" % (i, reply["error"]))
            continue
        pending.append((reply["dt"], reply["refs"], reply["in_refs"], rnd.weights[i]))
        res.outputs.append((i, reply["out"]))
    if worker is not None:
        worker.close()
    # the host speed before a command is the median of the reference timings
    # taken next to it (one per command: its neighbours' too); timings taken
    # during the command, one per SAMPLE_INTERVAL_S, cover the rest of it
    if pending and all(len(p[1]) == 1 for p in pending):
        before = harness.windowed_factors([p[1][0] for p in pending])
    else:
        before = [harness.host_factor(p[1]) for p in pending]
    res.samples = [(dt, harness.op_factor(f, inside), w)
                   for (dt, _, inside, w), f in zip(pending, before)]
    if rnd.reproducer is not None:
        worker = harness.Worker(ROOT, rnd.workload)
        reply, _alive = _call(worker, rnd.reproducer, deadline_s)
        if reply is None or "error" in reply:
            res.failed += 1
        else:
            res.samples.append((reply["dt"], harness.op_factor(
                harness.host_factor(reply["refs"]), reply["in_refs"]), 1))
            res.outputs.append((len(rnd.ops), reply["out"]))
        worker.close()
    return res


def _call(worker, cmd, deadline_s):
    """(reply, worker still usable).  The reply is None past the deadline and
    {"error": ...} when the worker died; either way it has been reaped."""
    try:
        reply = worker.call(cmd, deadline_s)
    except harness.WorkerDied as e:
        return {"error": str(e)}, False
    return reply, reply is not None


# -- output checks ----------------------------------------------------------------


def check_outputs(rnd, rounds):
    """Every round must reproduce the first round's outputs exactly, and
    each distinct output must pass the independent checks."""
    problems = []
    first = {}
    for res in rounds:
        for i, out in res.outputs:
            if i in first and first[i] != out:
                problems.append("operation %d: output differs between rounds" % i)
            first.setdefault(i, out)
    ops = rnd.ops + ([rnd.reproducer] if rnd.reproducer is not None else [])
    if rnd.workload == "survey":
        records = {}
        for res in rounds:
            for i, recs in res.records.items():
                if i in records and records[i] != recs:
                    problems.append("box %d: record file differs between rounds" % (i + 1))
                records.setdefault(i, recs)
        for i, out in sorted(first.items()):
            problems += ["box %d: %s" % (i + 1, p) for p in oracle.check_survey(
                ops[i]["space"], records[i], out, first_box=(i == 0))]
        return problems
    seen = set()
    for i, out in sorted(first.items()):
        key = json.dumps(ops[i], sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        if rnd.workload == "corollary":
            found = oracle.check_corollary(json.loads(ops[i]["request"]), out)
        else:
            found = oracle.check_arith(ops[i], out)
        problems += ["operation %d: %s" % (i, p) for p in found]
    return problems


def read_survey_records(rnd, res):
    """Keep the round's record files (the next round overwrites them)."""
    for i, _out in res.outputs:
        with open(rnd.ops[i]["records"]) as fh:
            res.records[i] = [json.loads(line) for line in fh if line.strip()]


def makeup(rnd, rounds):
    """One line on what the round's inputs are made of (README.md)."""
    outs = dict(rounds[0].outputs)
    if rnd.workload == "survey":
        parts = []
        for i, recs in sorted(rounds[0].records.items()):
            real = sum(1 for r in recs if oracle.real_rooted(r["minpoly"]))
            parts.append("box %d: %d records, %d real-rooted" % (i + 1, len(recs), real))
        return "; ".join(parts)
    seen, repeats, real, statuses = set(), 0, 0, {}
    for i, cmd in enumerate(rnd.ops):
        nums = (json.loads(cmd["request"])["alphas"] if rnd.workload == "corollary"
                else [cmd["a"], cmd["b"]])
        polys = [tuple(n["minpoly"]) if isinstance(n, dict) else n for n in nums]
        repeats += any(p in seen for p in polys)
        seen.update(polys)
        real += all(not isinstance(n, dict) or n["root"]["im"] == ["0", "0"] for n in nums)
        if rnd.workload == "corollary" and i in outs:
            st = outs[i]["status"]
            statuses[st] = statuses.get(st, 0) + 1
    n = len(rnd.ops)
    line = "%d operations: %.0f%% repeat an earlier minimal polynomial, %.0f%% real inputs" % (
        n, 100.0 * repeats / n, 100.0 * real / n)
    if statuses:
        line += "; " + ", ".join("%s %.0f%%" % (k, 100.0 * v / n) for k, v in sorted(statuses.items()))
    return line


# -- metrics ----------------------------------------------------------------------------


def weighted_percentile(samples, q):
    """Nearest-rank percentile of per-operation latencies, where a sample
    (latency, weight) stands for `weight` operations of that latency."""
    ordered = sorted(samples)
    total = sum(w for _, w in ordered)
    rank = q / 100.0 * total
    acc = 0
    for latency, w in ordered:
        acc += w
        if acc >= rank:
            return latency
    return ordered[-1][0]


def end_to_end(rounds):
    samples = [s for r in rounds for s in r.samples]
    ops = sum(w for _, _, w in samples)
    raw_s = sum(dt for dt, _, _ in samples)
    corrected_s = sum(dt / f for dt, f, _ in samples)
    per_op = [(dt / f / w, w) for dt, f, w in samples]
    per_op_raw = [(dt / w, w) for dt, _, w in samples]
    setup_raw, setup_factor = rounds[0].setup
    m = {
        "ops_per_s": (ops / corrected_s, "1/s", ops / raw_s),
        "op_p50_ms": (1000 * weighted_percentile(per_op, 50), "ms",
                      1000 * weighted_percentile(per_op_raw, 50)),
        "op_p90_ms": (1000 * weighted_percentile(per_op, 90), "ms",
                      1000 * weighted_percentile(per_op_raw, 90)),
        # set-up is import and I/O bound; the reference kernel does not track
        # it (README.md), so it is reported raw, with the factor beside it
        "setup_s": (setup_raw, "s", setup_raw),
        "peak_rss_mb": (max(r.rss_mb for r in rounds), "MB", None),
    }
    info = {"operations": ops, "samples": len(samples), "raw_s": raw_s,
            "corrected_s": corrected_s, "host_factor": raw_s / corrected_s,
            "setup_host_factor": setup_factor}
    return m, info


def layer_metrics(spans_path, rnd, res, overhead):
    lm = tracing.layer_metrics(spans_path)
    calls = lm["calls"]
    m = {}
    for mod in tracing.MODULES:
        m[mod + ".self_s"] = (lm["self_s"][mod], "s")
        m[mod + ".calls"] = (lm["entries"][mod], "count")
    for name in tracing.ENTRY_POINTS:
        m[name + ".calls"] = (calls.get(name, 0), "count")
    iso = list(lm["keys"].values())
    m["roots.isolate_per_poly"] = (len(iso) / len(set(iso)) if iso else 0.0, "ratio")
    heights = calls.get("heights.weil_log_height", 0) + calls.get("search.record_log_height", 0)
    m["heights.mahler_per_height"] = (
        calls.get("heights.mahler_measure", 0) / heights if heights else 0.0, "ratio")
    records = sum(out["records"] for _, out in res.outputs) if rnd.workload == "survey" else 0
    m["search.heights_per_record"] = (
        calls.get("search.record_log_height", 0) / records if records else 0.0, "ratio")
    m["factor.primes_per_factorization"] = (lm["primes_per_factorization"], "ratio")
    m["verify.precision_steps"] = (lm["precision_steps"], "ratio")
    m["trace.overhead"] = (overhead, "ratio")
    m["trace.spans"] = (lm["spans"], "count")
    return m


# -- main -------------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("corollary", "arith", "survey"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "heightbounds", "__init__.py")):
        print("run.py: no src/heightbounds in %s; run from a checkout" % ROOT, file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    rnd = workloads.build(args.workload, args.seed, OUT_DIR)
    deadline = workloads.DEADLINE_S[args.workload]

    rounds = []
    started = time.monotonic()
    if args.trace:
        # one untraced and one traced round of the same operations, each in
        # a fresh worker and neither sampling inside operations, so the spans
        # hold program time only and the overhead compares like with like
        spans_path = os.path.join(OUT_DIR, "spans-%s-%d.json" % (args.workload, args.seed))
        for path in ("", spans_path):
            res = run_round(rnd, deadline, path, workloads.TRACE_DEADLINE_FACTOR if path else 1.0,
                            sample=False)
            if args.workload == "survey":
                read_survey_records(rnd, res)
            rounds.append(res)
        plain, traced = (sum(dt / f for dt, f, _ in r.samples) for r in rounds)
        metrics = layer_metrics(spans_path, rnd, rounds[1], traced / plain)
        print("spans written to %s" % os.path.relpath(spans_path, ROOT))
    else:
        while True:
            res = run_round(rnd, deadline)
            if args.workload == "survey":
                read_survey_records(rnd, res)
            rounds.append(res)
            # stop once another round would overrun by more than half a round
            elapsed = time.monotonic() - started
            if elapsed >= args.seconds - elapsed / len(rounds) / 2:
                break
        e2e, info = end_to_end(rounds)
        metrics = {k: v[:2] for k, v in e2e.items()}
        print("%s seed %d: %d rounds, %d operations timed in %d samples, "
              "raw %.3f s, host-corrected %.3f s, host factor %.4f"
              % (args.workload, args.seed, len(rounds), info["operations"], info["samples"],
                 info["raw_s"], info["corrected_s"], info["host_factor"]))
        for name, (val, unit, raw) in e2e.items():
            extra = "" if raw is None else "  (raw %.6g, host factor %.4f)" % (
                raw, info["setup_host_factor"] if name == "setup_s" else info["host_factor"])
            print("  %-12s %12.6g %-4s%s" % (name, val, unit, extra))

    problems = check_outputs(rnd, rounds)
    for p in problems[:20]:
        print("CHECK FAILED: " + p)
    for e in sorted({e for r in rounds for e in r.errors}):
        print("FAILED: " + e)
    print("inputs: " + makeup(rnd, rounds))
    attempted = len(rounds) * rnd.attempted
    failed = sum(r.failed for r in rounds)
    print("attempted %d, failed %d (%s), wall %.1f s"
          % (attempted, failed, rnd.reproducer["kind"] if rnd.reproducer else "none",
             time.monotonic() - started))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
