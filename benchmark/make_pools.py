"""Builds the benchmark's input pools (pools/*.json) and vets them.

Run from the repository root:  python3 benchmark/make_pools.py

Inputs are drawn with a fixed generator seed through the program itself
(the pools are data; run.py only reads them).  Each drawn input is then run
once in a worker with a deadline.  An input that does not finish is kept out
of the pool and listed under "excluded" with the place it was stuck, so the
share of such inputs stays on record; each workload keeps one named
reproducer of every such fault in every round (see workloads.py).
"""

import json
import os
import random
import re
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from heightbounds import jsonio  # noqa: E402
from heightbounds.algebraic import AlgebraicNumber, _isolated, as_algebraic  # noqa: E402
from heightbounds.factor import factor_over_rationals  # noqa: E402
from heightbounds.polys import IntPolynomial, count_real_roots, parse_polynomial  # noqa: E402
from heightbounds.verify import CorollaryInstance  # noqa: E402

import harness  # noqa: E402

GENERATOR_SEED = 20141008
VET_DEADLINE_S = 60.0
STUCK_AFTER_S = 10.0
COUNTS = {"schinzel": 120, "bz": 180, "ext": 180}
ARITH_PAIRS = 480


def random_algebraic(rng, max_deg=3, bound=4, lead_max=4):
    """A root of an irreducible factor of a random integer polynomial."""
    while True:
        deg = rng.randint(1, max_deg)
        cs = [rng.randint(-bound, bound) for _ in range(deg)] + [rng.randint(1, lead_max)]
        f = IntPolynomial(cs)
        if f.degree < 1:
            continue
        facs = [g for g, _ in factor_over_rationals(f) if g.degree >= 1]
        if not facs:
            continue
        g = rng.choice(facs)
        return AlgebraicNumber(g, rng.choice(_isolated(g)))


def random_totally_real_integer(rng, degrees, bound=4):
    """A root of a monic irreducible polynomial with only real roots."""
    while True:
        deg = rng.choice(degrees)
        f = IntPolynomial([rng.randint(-bound, bound) for _ in range(deg)] + [1])
        facs = [g for g, _ in factor_over_rationals(f)
                if g.degree in degrees and g.is_monic() and count_real_roots(g) == g.degree]
        if facs:
            g = rng.choice(facs)
            return AlgebraicNumber(g, rng.choice(_isolated(g)))


def golden_numbers():
    out = []
    for text in ("x^2-x-1", "x^2+x-1"):
        f = parse_polynomial(text)
        out += [AlgebraicNumber(f, b) for b in _isolated(f)]
    return out


def corollary_entry(kind, alphas, n_value):
    inst = CorollaryInstance(alphas, n_value)
    return {"kind": kind, "r": inst.r,
            "request": json.dumps(jsonio.instance_to_json(inst), sort_keys=True)}


def draw_corollary(rng):
    golden = golden_numbers()
    out = []
    # r = 1, Schinzel: alpha = N totally real; one in six is a golden-ratio
    # equality case
    for k in range(COUNTS["schinzel"]):
        if k % 6 == 0:
            a = rng.choice(golden)
        else:
            a = random_totally_real_integer(rng, (1, 2, 3))
            if a.is_zero():
                a = as_algebraic(rng.choice((2, -2, 3)))
        out.append(corollary_entry("schinzel", [a], a))
    # r = 2, N in Z (Beukers-Zagier), N = 0 included
    for _ in range(COUNTS["bz"]):
        n = rng.randint(-3, 3)
        while True:
            a1 = random_algebraic(rng)
            if not a1.is_zero() and not (a1.is_rational() and a1.as_fraction() == n):
                break
        out.append(corollary_entry("bz", [a1, a1.neg()._add_rational(n)], as_algebraic(n)))
    # r = 2, N an irrational totally real integer of degree 2-3; one in eight
    # pairs a unit with a golden-ratio number (an equality case)
    for k in range(COUNTS["ext"]):
        if k % 8 == 0:
            a1 = as_algebraic(rng.choice((1, -1)))
            a2 = rng.choice(golden)
            n_value = a2._add_rational(a1.as_fraction())
        else:
            n_value = random_totally_real_integer(rng, (2, 3))
            while True:
                a1 = random_algebraic(rng, max_deg=2)
                if not a1.is_zero() and not a1.equals(n_value):
                    break
            a2 = n_value.sub(a1)
        out.append(corollary_entry("ext", [a1, a2], n_value))
    return out


def draw_arith(rng):
    out = []
    for _ in range(ARITH_PAIRS):
        a = random_algebraic(rng)
        while True:
            b = random_algebraic(rng)
            if not b.is_zero():
                break
        out.append({"a": jsonio.algnum_to_json(a), "b": jsonio.algnum_to_json(b)})
    return out


def reproducers():
    """The two named faults, as fixed inputs."""
    f = parse_polynomial("x^2+5x-5")
    g = parse_polynomial("2x^2-x-5")
    a1 = AlgebraicNumber(f, _isolated(f)[0])
    a2 = AlgebraicNumber(g, _isolated(g)[0])
    two = as_algebraic(2)
    a3 = two.sub(a1).sub(a2)
    cor = corollary_entry("r3-factor-hang", [a1, a2, a3], two)
    p = parse_polynomial("x^3+2x^2+2x-1")
    q = parse_polynomial("2x^2+4x+1")
    ar = {"a": jsonio.algnum_to_json(AlgebraicNumber(p, _isolated(p)[0])),
          "b": jsonio.algnum_to_json(AlgebraicNumber(q, _isolated(q)[0])),
          "kind": "isolation-hang"}
    return cor, ar


def stuck_in(workload, entry):
    """Innermost heightbounds frames of an input that passed its deadline."""
    log = os.path.join(ROOT, ".bench_out", "vet-stderr.txt")
    with open(log, "w") as fh:
        worker = harness.Worker(ROOT, workload, stderr=fh)
        try:
            worker.call(dict(entry, refs_before=0, dump_after=STUCK_AFTER_S), 2 * STUCK_AFTER_S)
        except harness.WorkerDied:
            pass    # faulthandler ended it after writing the stack
        worker.kill()
    with open(log) as fh:
        frames = re.findall(r'File ".*/heightbounds/(\w+)\.py", line \d+ in (\w+)', fh.read())
    return ["%s.%s" % f for f in frames[:4]]


def vet(workload, entries):
    """Run every entry once under the deadline; split into kept and excluded.
    Kept entries carry their duration, which workloads.py stratifies by."""
    kept, excluded, times = [], [], []
    worker = None
    for k, entry in enumerate(entries):
        if worker is None:
            worker = harness.Worker(ROOT, workload)
        reply = worker.call(dict(entry, refs_before=0), VET_DEADLINE_S)
        if reply is None or "error" in reply:
            if reply is None:
                worker = None
                why = "deadline; stuck in " + " < ".join(stuck_in(workload, entry))
            else:
                why = reply["error"]
            excluded.append({"entry": entry, "why": why})
            print("%s %d excluded: %s" % (workload, k, why), file=sys.stderr)
            continue
        kept.append(dict(entry, cost_s=round(reply["dt"], 4)))
        times.append(reply["dt"])
    if worker is not None:
        worker.close()
    return kept, excluded, times


def write_pool(path, doc):
    """JSON with one list element per line, so diffs stay readable."""
    parts = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, list):
            body = ",\n".join(json.dumps(v, sort_keys=True) for v in value)
            parts.append('"%s": [\n%s\n]' % (key, body))
        else:
            parts.append('"%s": %s' % (key, json.dumps(value, sort_keys=True)))
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(parts) + "\n}\n")


def main():
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    rng = random.Random(GENERATOR_SEED)
    cor_rep, arith_rep = reproducers()
    report = {}
    for name, entries, rep in (("corollary", draw_corollary(rng), cor_rep),
                               ("arith", draw_arith(rng), arith_rep)):
        t0 = time.time()
        kept, excluded, times = vet(name, entries)
        times.sort()
        report[name] = {"drawn": len(entries), "kept": len(kept), "excluded": len(excluded),
                        "max_s": times[-1], "p99_s": times[int(0.99 * len(times))],
                        "median_s": times[len(times) // 2], "mean_s": sum(times) / len(times),
                        "vet_wall_s": time.time() - t0}
        doc = {"generator_seed": GENERATOR_SEED, "vet_deadline_s": VET_DEADLINE_S,
               "reproducer": rep, "entries": kept, "excluded": excluded}
        write_pool(os.path.join(HERE, "pools", name + ".json"), doc)
        print(name, json.dumps(report[name]), file=sys.stderr)


if __name__ == "__main__":
    main()
