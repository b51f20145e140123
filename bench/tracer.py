"""Per-layer tracing of one CLI call, from outside the program.

Run as a script, this is the traced stand-in for `python -m nccount.cli`:

    python bench/tracer.py FD ARG...

It imports nccount, replaces each traced function at every module
attribute bound to it (euler_form, for one, is imported by name into typea
and d4 as well as defined in quiver), runs `nccount.cli.run(ARG...)` and
writes the trace as JSON to the inherited file descriptor FD.  Stdout and
the exit code are those of the untraced CLI.

Every wrapped call accumulates calls, total time and self time (total
minus the time of the wrapped calls it made) for its function.  The coarse
entry points in SPANS also record one span per call, with their parent
span, for checking that self times nest.  Imported without running, the
module only aggregates traces into per-layer metrics and does not import
nccount.
"""

import json
import os
import sys
from time import perf_counter

# module -> {function: layer}.  line_quiver and the arith helpers are left
# unwrapped, so their time is self time of the caller.
TRACED = {
    "cli": {"_emit": "cli.emit"},
    "quiver": {"euler_form": "quiver.euler_form"},
    "typea": {
        "interval_pair_is_exceptional": "typea.pair",
        "interval_total_hom": "typea.pair",
        "enum_seqs": "typea.enum",
        "enum_genus_minus1": "typea.enum",
        "enum_points": "typea.enum",
        "serre_step": "typea.orbit",
        "serre_on_pair": "typea.orbit",
        "serre_on_point": "typea.orbit",
        "orbit": "typea.orbit",
        "orbit_partition": "typea.orbit",
        "genus_minus1_orbits": "typea.orbit",
        "point_orbits": "typea.orbit",
        "count_orbits_brute": "typea.orbit",
        "count_id": "typea.formula",
        "count_orbits_formula": "typea.formula",
        "count_genus": "typea.formula",
    },
    "necklace": {
        "count_subgon_classes": "necklace.burnside",
        "count_subgon_classes_burnside": "necklace.burnside",
        "count_subgon_classes_brute": "necklace.brute",
    },
    "d4": {
        name: "d4"
        for name in (
            "d4_pair_class", "total_hom", "d4_act", "third_point",
            "genus0_curves", "genus_minus1_curves", "right_orthogonal_points",
            "triple_kind", "is_semiorthogonal_sequence", "triple_generators",
            "d4_count", "curve_presentations", "normalize_genus0_pair",
            "d4_enum", "d4_tables",
        )
    },
    "affine": {
        name: "affine"
        for name in (
            "aff_pair_class", "hom_vanishes", "pair_total_hom", "aff_act",
            "obj", "subcat", "classify_generator_pair", "act_on_subcat",
            "aff_count", "aff_enum_curves", "aff_vanishing",
        )
    },
    "markov": {
        name: "markov"
        for name in (
            "generate_triples", "mutate", "markov_triples", "markov_numbers",
            "exceptional_slopes", "count_c", "tyurin_scan",
        )
    },
    "digraph": {
        "build_point_graph": "digraph.build",
        "build_curve_graph": "digraph.build",
        "is_simplex": "digraph.simplex",
        "sc_simplices": "digraph.simplex",
        "export": "digraph.export",
    },
    "incidence": {
        name: "incidence"
        for name in (
            "incidence_structure", "export_incidence", "derived_points_a",
            "derived_points", "intersect_curves", "glb",
        )
    },
}

# Coarse entry points: one span per call.  Everything else is a hot leaf
# that keeps only its counts and times.
SPANS = {
    "digraph.build_point_graph", "digraph.sc_simplices", "digraph.export",
    "typea.orbit_partition", "necklace.count_subgon_classes",
    "markov.generate_triples", "d4.d4_tables", "affine.aff_count", "cli._emit",
    "cli.run",
}

ROOT = "cli.run"
SERRE_STEPS = {"typea.serre_step", "typea.serre_on_pair", "typea.serre_on_point"}
GRAPH_BUILDS = {"digraph.build_point_graph", "digraph.build_curve_graph"}


class Trace:
    """Call stack, per-function statistics, spans and counters of one run."""

    def __init__(self):
        # frame: [qualified name, module, time of wrapped callees, span index]
        self.stack = [[None, None, 0.0, None]]
        self.funcs = {}  # name -> [calls, total_s, self_s]
        self.spans = []  # [name, parent span index, t0, t1, self_s]
        self.counters = {}
        self.errors = {}
        self.triples = set()
        self.sweeps = 0
        self.modules = {}

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, fn, name, module, hook=None):
        stack, funcs, spans = self.stack, self.funcs, self.spans
        stat = funcs.setdefault(name, [0, 0.0, 0.0])
        is_span = name in SPANS

        def traced(*args, **kwargs):
            parent = stack[-1]
            span = None
            if is_span:
                span = len(spans)
                enclosing = next((f[3] for f in reversed(stack) if f[3] is not None),
                                 None)
                spans.append([name, enclosing, 0.0, 0.0, 0.0])
            frame = [name, module, 0.0, span]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if parent[1] != module:
                    self.errors[module] = self.errors.get(module, 0) + 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                elapsed = t1 - t0
                parent[2] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[2]
                if span is not None:
                    spans[span][2:] = [t0, t1, elapsed - frame[2]]
            if hook is not None:
                # Counter bookkeeping is tracing overhead, not caller time,
                # and a counter that no longer fits the program must not
                # change what the program does.
                try:
                    hook(result, args, parent[0])
                except Exception:
                    self.count("trace.hook_errors")
                parent[2] += perf_counter() - t1
            return result

        return traced

    # --- counter hooks ------------------------------------------------------

    def _items(self, key):
        return lambda result, args, parent: self.count(key, len(result))

    def _steps(self, result, args, parent):
        if parent not in SERRE_STEPS:
            self.count("typea.orbit.steps")

    def _simplex(self, result, args, parent):
        self.count("digraph.simplex.tested")
        if result:
            self.count("digraph.simplex.hits")

    def _graph(self, result, args, parent):
        if parent in GRAPH_BUILDS:
            return
        v, one, two = result.census()
        self.count("digraph.build.pairs", v * (v - 1))
        self.count("digraph.build.edges", one + 2 * two)

    def _closure(self, result, args, parent):
        self.count("markov.closure.triples", len(result))
        self.triples.update(result)

    def _necklace(self, result, args, parent):
        # 2^m masks per sweep; a call answered from the sweep cache is none
        cache = getattr(self.modules["necklace"], "_brute_counts", None)
        info = getattr(cache, "cache_info", None)
        if info is not None:
            misses = info().misses
            if misses == self.sweeps:
                return
            self.sweeps = misses
        self.count("necklace.brute.masks", 1 << args[0])

    def hooks(self):
        return {
            "typea.enum_seqs": self._items("typea.enum.items"),
            "typea.enum_genus_minus1": self._items("typea.enum.items"),
            "typea.enum_points": self._items("typea.enum.items"),
            "typea.serre_step": self._steps,
            "typea.serre_on_pair": self._steps,
            "typea.serre_on_point": self._steps,
            "digraph.is_simplex": self._simplex,
            "digraph.build_point_graph": self._graph,
            "digraph.build_curve_graph": self._graph,
            "digraph.export": lambda r, a, p: self.count("digraph.export.bytes", len(r)),
            "markov.generate_triples": self._closure,
            "necklace.count_subgon_classes_brute": self._necklace,
        }

    def install(self):
        """Wrap every function of TRACED wherever a nccount module binds it.

        A function missing from the program is skipped, so the trace keeps
        working when a later version renames or removes it.
        """
        import importlib

        modules = self.modules = {
            m: importlib.import_module(f"nccount.{m}")
            for m in ("arith", "quiver", "typea", "necklace", "d4", "affine",
                      "markov", "digraph", "incidence", "cli")
        }
        hooks = self.hooks()
        wrappers = {}
        for module, funcs in TRACED.items():
            for fname in funcs:
                fn = getattr(modules[module], fname, None)
                if callable(fn):
                    name = f"{module}.{fname}"
                    wrappers[id(fn)] = self.wrap(fn, name, module, hooks.get(name))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
        return modules["cli"]

    def to_json(self):
        return {
            "funcs": self.funcs,
            "spans": self.spans,
            "counters": self.counters,
            "errors": self.errors,
            "distinct_triples": len(self.triples),
        }


def main(argv):
    fd, cli_args = int(argv[0]), argv[1:]
    trace = Trace()
    cli = trace.install()
    run = trace.wrap(cli.run, ROOT, "cli")
    try:
        code = run(cli_args)
    finally:
        sys.stdout.flush()
        with os.fdopen(fd, "w") as f:
            json.dump(trace.to_json(), f)
    return code


# --- aggregation (parent side) ------------------------------------------------

# each layer's `<layer>_s` metric is the summed self time of its functions
LAYERS = sorted({layer for funcs in TRACED.values() for layer in funcs.values()})
CALLS = {
    "quiver.euler_form.calls": ("quiver.euler_form",),
    "typea.pair.calls": ("typea.interval_pair_is_exceptional", "typea.interval_total_hom"),
    "d4.pair.calls": ("d4.d4_pair_class",),
    "affine.pair.calls": ("affine.aff_pair_class",),
    "markov.closure.calls": ("markov.generate_triples",),
}
COUNTERS = (
    "typea.enum.items", "typea.orbit.steps", "necklace.brute.masks",
    "markov.closure.triples", "digraph.build.pairs", "digraph.build.edges",
    "digraph.simplex.tested", "digraph.export.bytes",
)
MODULES = tuple(TRACED)


def layer_of(name):
    module, fname = name.split(".", 1)
    return TRACED.get(module, {}).get(fname)


def layer_metrics(traces):
    """Per-layer totals over a list of child traces: self times in
    seconds, call counts, counters, escaped-exception counts, ratios."""
    self_by_layer, calls, counters, errors = {}, {}, {}, {}
    distinct = 0
    for t in traces:
        for name, (n, _total, self_s) in t["funcs"].items():
            layer = layer_of(name)
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + self_s
            calls[name] = calls.get(name, 0) + n
        for key, value in t["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for module, n in t["errors"].items():
            errors[module] = errors.get(module, 0) + n
        distinct += t["distinct_triples"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}_s"] = (self_by_layer.get(layer, 0.0), "s")
    for metric, names in CALLS.items():
        out[metric] = (sum(calls.get(n, 0) for n in names), "count")
    for key in COUNTERS:
        out[key] = (counters.get(key, 0), "bytes" if key.endswith("bytes") else "count")
    tested = counters.get("digraph.simplex.tested", 0)
    triples = counters.get("markov.closure.triples", 0)
    out["digraph.simplex.hit_ratio"] = (
        counters.get("digraph.simplex.hits", 0) / tested if tested else 0.0, "ratio")
    out["markov.closure.useful_ratio"] = (distinct / triples if triples else 0.0, "ratio")
    for module in MODULES:
        out[f"{module}.errors"] = (errors.get(module, 0), "count")
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
