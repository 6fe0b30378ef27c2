"""Benchmark worker: one fresh single-threaded process that imports
heightbounds from the checkout's `src` and runs operations sent by run.py.

Protocol (one JSON object per line): the worker first writes
{"ready": setup_seconds, ...}; then for each command line on stdin it runs
the reference kernel `refs_before` times and the operation (sampling the
kernel inside it), and writes {"dt": op_seconds, "refs": [...],
"in_refs": [...], "out": ...}.
A command {"op": "exit"} makes it write its spans (traced mode) and leave.
Anything the program prints goes to stderr, so stdout carries only the
protocol.
"""

import argparse
import faulthandler
import json
import os
import resource
import signal
import sys
import time

import refkernel


# Reference kernel period inside operations.  Traced runs pass
# --sample-interval 0, so spans hold only the program's time.
SAMPLE_INTERVAL_S = 0.1


def _rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Sampler:
    """Runs the reference kernel every `interval` seconds of an operation,
    from a timer signal, so a long operation is corrected by the host speed
    during it rather than only around it.  The kernel's own time is kept out
    of the operation's time."""

    def __init__(self, interval):
        self.interval = interval
        self.refs = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.refs.append(refkernel.timed())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.refs, self.spent = [], 0.0
        if self.interval > 0:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval > 0:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def _setup(root: str):
    """Cold set-up: import the package and finish a first small call."""
    sys.path.insert(0, os.path.join(root, "src"))
    import heightbounds  # noqa: F401
    from heightbounds import jsonio, search, verify  # noqa: F401
    from heightbounds.algebraic import AlgebraicNumber
    from heightbounds.heights import weil_log_height
    from heightbounds.polys import parse_polynomial
    from heightbounds.roots import isolate_roots

    f = parse_polynomial("x^2-x-1")
    golden = AlgebraicNumber.from_root(f, isolate_roots(f)[1])
    weil_log_height(golden, bits=64)


def op_corollary(cmd):
    """Request path: JSON text -> instance -> verdict -> JSON text."""
    from heightbounds import jsonio, verify
    doc = json.loads(cmd["request"])
    inst = jsonio.instance_from_json(doc)
    verdict = verify.verify_corollary(inst, cmd.get("bits", 128))
    return json.loads(jsonio.dumps(jsonio.verdict_to_json(verdict)))


def op_arith(cmd):
    """Round-trip triple (a+b)-b, (a*b)/b, inv(inv(b)) on parsed numbers."""
    from heightbounds import jsonio
    a = jsonio.algnum_from_json(cmd["a"], "a")
    b = jsonio.algnum_from_json(cmd["b"], "b")
    s = a.add(b)
    p = a.mul(b)
    return {
        "sum": jsonio.algnum_to_json(s),
        "prod": jsonio.algnum_to_json(p),
        "sum_back": s.sub(b).equals(a),
        "prod_back": p.div(b).equals(a),
        "inv_back": b.inv().inv().equals(b),
    }


def op_survey(cmd):
    """One min_height_survey box with records and cursor files."""
    from heightbounds import search
    for path in (cmd["records"], cmd["cursor"]):
        if os.path.exists(path):
            os.remove(path)
    space = search.SearchSpace.from_json_dict(cmd["space"])
    result = search.min_height_survey(space, bits=cmd.get("bits", 64), jobs=1,
                                      records_path=cmd["records"],
                                      cursor_path=cmd["cursor"])
    return {
        "records": len(result.records),
        "minimum": None if result.minimum is None else list(result.minimum.minpoly.coeffs),
        "tie_class": [list(r.minpoly.coeffs) for r in result.tie_class],
        "strict": result.strict,
        "candidates": result.stats["candidates"],
    }


OPS = {"corollary": op_corollary, "arith": op_arith, "survey": op_survey}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(OPS))
    ap.add_argument("--spans", default="", help="trace to this file when set")
    ap.add_argument("--sample-interval", type=float, default=SAMPLE_INTERVAL_S,
                    help="seconds between reference timings inside an operation; 0: none")
    args = ap.parse_args()

    proto = os.fdopen(os.dup(1), "w", buffering=1)
    sys.stdout = sys.stderr

    def send(obj):
        proto.write(json.dumps(obj) + "\n")

    t0 = time.perf_counter()
    _setup(args.root)
    setup_s = time.perf_counter() - t0
    tracer = None
    if args.spans:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    # reference timings right after set-up: the host factor printed next to
    # setup_s (which is not corrected by it, see README.md)
    refs = [refkernel.timed() for _ in range(15)]
    send({"ready": setup_s, "refs": refs, "rss_mb": _rss_mb()})

    run = OPS[args.workload]
    sampler = Sampler(args.sample_interval)
    while True:
        line = sys.stdin.readline()
        cmd = json.loads(line) if line.strip() else {"op": "exit"}
        if cmd.get("op") == "exit":
            break
        refs = [refkernel.timed() for _ in range(cmd.get("refs_before", 1))]
        if cmd.get("dump_after"):   # make_pools.py: show where a stuck input is
            faulthandler.dump_traceback_later(cmd["dump_after"], exit=True)
        reply = {}
        t = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("bench.op"):
                    reply["out"] = run(cmd)
            else:
                with sampler:
                    reply["out"] = run(cmd)
        except Exception as e:  # an operation that raises counts as failed
            reply["error"] = "%s: %s" % (type(e).__name__, e)
        reply["dt"] = time.perf_counter() - t - sampler.spent
        reply["in_refs"] = sampler.refs
        reply.update(refs=refs, rss_mb=_rss_mb())
        send(reply)
    if tracer is not None:
        tracer.dump(args.spans)
    send({"bye": True})


if __name__ == "__main__":
    main()
