"""Rounds of operations for each workload, drawn from the seed.

A round is a fixed number of operations; every round of a run repeats the
same operations in a fresh worker process, so a run's share of failed
operations does not depend on the seed or on how many rounds fit.

The draw is stratified: the pool entries of each kind are ordered by their
duration when the pool was vetted, cut into consecutive strata of
STRATUM entries, and the seed picks one entry from each stratum.  Every
seed thus gets the same spread of cheap and expensive inputs, so the
spread between seeds measures the program, not the luck of the draw.  The
arith round takes its whole pool (strata of one), in the seed's order: its
latency tail is steep enough that a half-pool draw moved its p90 by 7%
between seeds.
"""

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))

STRATUM = {"corollary": 2, "arith": 1}

# Both boxes are monic.  The first keeps every predicate (totally real
# records); the second drops "totally-real" (complex-rooted records).
SURVEY_BOXES = (
    {"degrees": [1, 4], "coeff_bound": 2, "monic": True,
     "predicates": ["totally-real", "algebraic-integer", "exclude-trivial", "irreducible"]},
    {"degrees": [1, 3], "coeff_bound": 2, "monic": True,
     "predicates": ["algebraic-integer", "exclude-trivial", "irreducible"]},
)

# Per-operation deadlines (wall seconds, reference kernel included).  The
# slowest pool entry took about a quarter of its workload's deadline when
# vetted; the traced run multiplies them by TRACE_DEADLINE_FACTOR, except
# for the reproducers, which are never traced.
DEADLINE_S = {"corollary": 4.0, "arith": 2.5, "survey": 60.0}
TRACE_DEADLINE_FACTOR = 4.0


class Round:
    def __init__(self, workload, ops, reproducer, weights):
        self.workload = workload
        self.ops = ops                 # worker commands, in order
        self.reproducer = reproducer   # command run last in its own worker, or None
        self.weights = weights         # operations each command stands for

    @property
    def attempted(self):
        return sum(self.weights) + (1 if self.reproducer is not None else 0)


def _pool(name):
    with open(os.path.join(HERE, "pools", name + ".json")) as fh:
        return json.load(fh)


def _stratified(entries, rng, size):
    ordered = sorted(entries, key=lambda e: (e["cost_s"], json.dumps(e, sort_keys=True)))
    return [rng.choice(ordered[k:k + size]) for k in range(0, len(ordered), size)]


def _pool_round(workload, seed, bits=None):
    pool = _pool(workload)
    rng = random.Random(seed)
    by_kind = {}
    for entry in pool["entries"]:
        by_kind.setdefault(entry.get("kind", workload), []).append(entry)
    picks = []
    for kind in sorted(by_kind):
        picks += _stratified(by_kind[kind], rng, STRATUM[workload])
    rng.shuffle(picks)
    ops = []
    for entry in picks + [pool["reproducer"]]:
        cmd = {k: v for k, v in entry.items() if k != "cost_s"}
        if bits:
            cmd["bits"] = bits
        ops.append(cmd)
    return Round(workload, ops[:-1], ops[-1], [1] * len(picks))


def survey_round(seed, out_dir):
    """The survey boxes are fixed; the seed does not change them."""
    ops, weights = [], []
    for k, space in enumerate(SURVEY_BOXES):
        ops.append({"space": space, "bits": 64,
                    "records": os.path.join(out_dir, "survey-box%d.jsonl" % (k + 1)),
                    "cursor": os.path.join(out_dir, "survey-box%d.cursor.json" % (k + 1)),
                    "refs_before": 15})
        count = sum((2 * space["coeff_bound"] + 1) ** d
                    for d in range(space["degrees"][0], space["degrees"][1] + 1))
        weights.append(count)
    return Round("survey", ops, None, weights)


def build(workload, seed, out_dir):
    if workload == "corollary":
        return _pool_round("corollary", seed, bits=128)
    if workload == "arith":
        return _pool_round("arith", seed)
    return survey_round(seed, out_dir)
