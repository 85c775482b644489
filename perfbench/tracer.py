"""Span tracer for clustermirror, installed from outside the package.

`Tracer.install()` replaces the public functions listed in TARGETS, and
every method of `svg.SvgCanvas`, with wrappers that record a span
(name, start, end, parent span, operation id).  `from .lattice import
det` copies a binding into the importing module, and `cli` and
`verify` rebind names and keep suites in a dict, so each original is
replaced in *every* `clustermirror` module namespace and module-level
dict that holds it.  `seed.pairing` is deliberately left alone: it runs
n^2 times per exchange matrix and its wrapper would swamp the rest.

Spans are kept in memory, only while an operation is open, and written
out by `dump()`.  `uninstall()` restores every original binding.

Run as a script it traces one CLI request in a fresh interpreter:

    python perfbench/tracer.py SPANS_FILE -- <clustermirror argv>
"""

import functools
import importlib
import json
import sys
from fractions import Fraction
from time import perf_counter_ns

MODULES = ("lattice", "seed", "toric_model", "syz_base", "svg", "skeleton",
           "local_system", "almost_toric", "verify", "cli")

# (module, function, span name)
TARGETS = (
    ("cli", "main", "cli.main"),
    ("seed", "mutate", "seed.mutate"),
    ("seed", "exchange_matrix", "seed.exchange_matrix"),
    ("seed", "validate_seed", "seed.validate_seed"),
    ("seed", "exchange_graph", "seed.exchange_graph"),
    ("lattice", "det", "lattice.det"),
    ("lattice", "mat_inv", "lattice.mat_inv"),
    ("lattice", "solve_rational", "lattice.solve_rational"),
    ("toric_model", "toric_model", "toric_model.toric_model"),
    ("toric_model", "blowup_characters", "toric_model.blowup_characters"),
    ("syz_base", "base_from_fan", "syz_base.base_from_fan"),
    ("syz_base", "render_svg", "syz_base.render_svg"),
    ("skeleton", "skeleton_from_seed", "skeleton.skeleton_from_seed"),
    ("skeleton", "disk_surgery", "skeleton.disk_surgery"),
    ("local_system", "holonomy_around", "local_system.holonomy_around"),
    ("local_system", "mutate_local_system", "local_system.mutate_local_system"),
    ("local_system", "mutate_symbolic", "local_system.mutate_symbolic"),
    ("almost_toric", "apply_trades", "almost_toric.apply_trades"),
    ("almost_toric", "common_basepoint", "almost_toric.common_basepoint"),
    ("almost_toric", "render_svg", "almost_toric.render_svg"),
    ("verify", "suite_epsilon", "verify.epsilon"),
    ("verify", "suite_dictionary", "verify.dictionary"),
    ("verify", "suite_duality", "verify.duality"),
    ("verify", "suite_smoothness", "verify.smoothness"),
    ("verify", "suite_coherence", "verify.coherence"),
)
SVG_SPAN = "svg.SvgCanvas"
HOOK_SPAN = "trace.hook"


def max_bits(x):
    """Largest bit length of any int or Fraction part inside x."""
    if isinstance(x, bool):
        return 0
    if isinstance(x, int):
        return x.bit_length()
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, (tuple, list)):
        return max((max_bits(y) for y in x), default=0)
    fields = getattr(x, "__dataclass_fields__", None)
    if fields:
        return max((max_bits(getattr(x, f)) for f in fields), default=0)
    return 0


class Tracer:
    def __init__(self):
        self.spans = []        # (name, start_ns, end_ns, parent index, op id)
        self.stack = []
        self.op = None
        self.counters = {}
        self._restore = []     # (owner, key, original binding)

    # ------------------------------------------------------------ hooks
    def _bump_max(self, key, value):
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def _lattice_hook(self, args, result):
        self._bump_max("lattice.max_bits", max(max_bits(args), max_bits(result)))

    def _holonomy_hook(self, args, result):
        self._bump_max("local_system.max_exponent", max(abs(e) for e in args[1]))

    def _graph_hook(self, args, result):
        c = self.counters
        c["seed.exchange_graph.graphs"] = c.get("seed.exchange_graph.graphs", 0) + 1
        c["seed.exchange_graph.new_nodes"] = (c.get("seed.exchange_graph.new_nodes", 0)
                                              + len(result["nodes"]) - 1)
        c["seed.exchange_graph.truncated"] = (c.get("seed.exchange_graph.truncated", 0)
                                              + bool(result["truncated"]))

    def _suite_hook(self, name):
        key = name + ".cases"

        def hook(args, result):
            self.counters[key] = self.counters.get(key, 0) + result["cases"]
        return hook

    def _hook_for(self, name):
        if name.startswith("lattice."):
            return self._lattice_hook
        if name == "local_system.holonomy_around":
            return self._holonomy_hook
        if name == "seed.exchange_graph":
            return self._graph_hook
        if name.startswith("verify."):
            return self._suite_hook(name)
        return None

    # ------------------------------------------------------------ wrapping
    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, op)
            if hook is not None:
                # hook work is a child span, so the caller's self time excludes it
                hook(args, result)
                spans.append((HOOK_SPAN, end, perf_counter_ns(), parent, op))
            return result

        return traced

    def install(self):
        mods = [importlib.import_module("clustermirror." + m) for m in MODULES]
        for modname, attr, name in TARGETS:
            orig = getattr(importlib.import_module("clustermirror." + modname), attr)
            wrapper = self._wrap(name, orig, self._hook_for(name))
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, key, wrapper)
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for dkey, dval in list(value.items()):
                            if dval is orig:
                                self._replace(value, dkey, wrapper)
        canvas = importlib.import_module("clustermirror.svg").SvgCanvas
        for key, value in list(vars(canvas).items()):
            if callable(value):
                self._replace(canvas, key, self._wrap(SVG_SPAN, value, None))
        return self

    def _replace(self, owner, key, value):
        """Rebind owner[key] for a dict, else the attribute owner.key."""
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._restore.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._restore.clear()

    # ------------------------------------------------------------ output
    def dump(self, path):
        names = sorted({s[0] for s in self.spans if s is not None})
        index = {n: i for i, n in enumerate(names)}
        doc = {"names": names, "counters": self.counters,
               "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def aggregate(paths):
    """Per-name call counts, total and self nanoseconds, summed counters
    (maxima for `max_*` counters) and the number of distinct operations
    over span files written by `Tracer.dump`."""
    calls, total, child = {}, {}, {}
    counters, ops = {}, set()
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        names, spans = doc["names"], doc["spans"]
        for key, value in doc["counters"].items():
            if ".max_" in key:
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
        for name_idx, start, end, parent, op in spans:
            name = names[name_idx]
            ops.add((path, op))
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0) + dur
            if parent >= 0:
                pname = names[spans[parent][0]]
                child[pname] = child.get(pname, 0) + dur
                if name == "seed.mutate" and pname == "seed.exchange_graph":
                    counters["seed.exchange_graph.mutate_calls"] = (
                        counters.get("seed.exchange_graph.mutate_calls", 0) + 1)
    self_ns = {n: total[n] - child.get(n, 0) for n in total}
    return {"calls": calls, "self_ns": self_ns, "counters": counters, "ops": len(ops)}


def _main(argv):
    spans_path, sep, cli_argv = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE -- ARGV...")
    from clustermirror import cli
    tracer = Tracer().install()
    tracer.op = 0
    try:
        code = cli.main(cli_argv)
    finally:
        tracer.op = None
        tracer.uninstall()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
