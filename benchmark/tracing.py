"""Traced mode: spans recorded around the program's public functions.

`Tracer.install` wraps the public module-level functions of the traced
modules, and the public methods of `AlgebraicNumber`, at every name they are
bound to in any `heightbounds` module (for example both
`roots.isolate_roots` and `heights.isolate_roots`).  Each call records a span
(name, start, end, parent) in memory; `dump` writes them out once, at the
end.  `layer_metrics` derives the per-layer metrics from a span file.
"""

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

MODULES = ("polys", "factor", "roots", "intervals", "algebraic", "heights",
           "bounds", "verify", "search", "jsonio")

# Entry points whose call counts are reported (see README.md for which
# end-to-end metric each should move).
ENTRY_POINTS = (
    "polys.count_real_roots", "polys.poly_gcd", "polys.sturm_chain", "polys.is_cyclotomic",
    "factor.factor_over_rationals", "factor.factor_squarefree_primitive",
    "factor.gf_factor_squarefree",
    "roots.isolate_roots", "roots.isolate_real_roots", "roots.refine_box",
    "intervals.ln_fraction", "intervals.poly_eval_rect",
    "algebraic.add", "algebraic.mul", "algebraic.inv", "algebraic.equals",
    "algebraic.from_root", "algebraic.is_totally_real",
    "heights.mahler_measure", "heights.weil_log_height", "heights.point_log_height",
    "bounds.rho",
    "verify.verify_corollary", "verify.check_hypotheses", "verify.evaluate",
    "search.min_height_survey", "search.record_log_height",
    "jsonio.instance_from_json", "jsonio.verdict_to_json", "jsonio.algnum_from_json",
    "jsonio.algnum_to_json",
)

# Functions whose first argument's identity is recorded, so that repeated
# work on the same polynomial can be counted.
KEYED = {"roots.isolate_roots"}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []       # [name_id, start, end, parent_index]
        self.keys = {}        # span index -> argument key, for KEYED names
        self._stack = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name_id):
        idx = len(self.spans)
        self.spans.append([name_id, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name):
        name_id = self._name_id(name)
        keyed = name in KEYED
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            if keyed:
                tracer.keys[idx] = hash(args[0])
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    def install(self):
        """Replace every binding of each traced function by its wrapper."""
        import heightbounds
        mods = [m for name, m in sys.modules.items()
                if name == "heightbounds" or name.startswith("heightbounds.")]
        replace = {}
        for short in MODULES:
            mod = sys.modules["heightbounds." + short]
            for attr, val in list(vars(mod).items()):
                plain = inspect.isfunction(val) or hasattr(val, "cache_info")  # lru_cache too
                if (not attr.startswith("_") and plain
                        and getattr(val, "__module__", "") == mod.__name__):
                    replace[id(val)] = (val, self.wrap(val, "%s.%s" % (short, attr)))
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if id(val) in replace and replace[id(val)][0] is val:
                    setattr(mod, attr, replace[id(val)][1])
        cls = heightbounds.algebraic.AlgebraicNumber
        methods = {}
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(val, classmethod):
                setattr(cls, attr, classmethod(self.wrap(val.__func__, "algebraic.%s" % attr)))
            elif inspect.isfunction(val):
                methods[val] = self.wrap(val, "algebraic.%s" % attr)
        for attr, val in list(vars(cls).items()):
            if inspect.isfunction(val) and val in methods:
                setattr(cls, attr, methods[val])   # also the __add__-style aliases

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "keys": {str(k): v for k, v in self.keys.items()}}, fh)


# ---------------------------------------------------------------------------
# metrics from a span file


def _module(name):
    return name.split(".", 1)[0]


def layer_metrics(path):
    """Self time and entry calls per module, named entry-point call counts,
    and the waste ratios, from one span file."""
    with open(path) as fh:
        doc = json.load(fh)
    names = doc["names"]
    spans = doc["spans"]
    child_time = [0.0] * len(spans)
    for name_id, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = {m: 0.0 for m in MODULES}
    entries = {m: 0 for m in MODULES}
    calls = {}
    for idx, (name_id, start, end, parent) in enumerate(spans):
        name = names[name_id]
        calls[name] = calls.get(name, 0) + 1
        mod = _module(name)
        if mod not in self_s:
            continue
        self_s[mod] += (end - start) - child_time[idx]
        pname = names[spans[parent][0]] if parent >= 0 else ""
        if _module(pname) != mod:
            entries[mod] += 1
    return {"self_s": self_s, "entries": entries, "calls": calls,
            "keys": doc["keys"], "spans": len(spans),
            # primes tried per factorization that tried any
            "primes_per_factorization": _per_parent(
                names, spans, "factor.gf_from_poly", "factor.factor_squarefree_primitive"),
            # precision rounds per theorem check that reached the heights
            "precision_steps": _per_parent(
                names, spans, "heights.point_log_height", "verify.verify_theorem")}


def _per_parent(names, spans, child, parent):
    """Mean number of `child` spans directly under each `parent` span that
    has at least one."""
    ids = {n: i for i, n in enumerate(names)}
    c, p = ids.get(child, -2), ids.get(parent, -2)
    counts = {}
    for name_id, _s, _e, par in spans:
        if name_id == c and par >= 0 and spans[par][0] == p:
            counts[par] = counts.get(par, 0) + 1
    return sum(counts.values()) / len(counts) if counts else 0.0
