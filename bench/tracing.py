"""Outside-in span tracing of ksray's public functions.

``Tracer.install`` replaces every public function of each ksray module with
a timing wrapper, in every ksray namespace that holds it: the defining
module, the package, and each module that imported the name (such as
``maximal_cliques`` inside ``ksray.bounds``).  Spans stay in memory and are
written out once, when the run ends.  Nothing inside ksray changes.

Each span's self time (its duration minus its direct children) is charged
to a per-layer metric: to the metric named for the function in ``METRICS``,
else to the metric of the nearest enclosing span of the same layer, else to
``<layer>.other_ms``.  So ``sample_bases`` counts toward ``measure.bases_ms``
when ``basis_colored_fraction_mc`` calls it and toward
``measure.validity_ms`` when ``region_validity_mc`` does.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time

LAYERS = ("rays", "ortho", "kscolor", "bounds", "operators", "measure", "rng",
          "cli")

METRICS = {
    "rays.build_ms": ("rays", ("build_rayset", "canonicalize", "cube13",
                               "peres24", "three_cubes", "kcbs5", "ceg18")),
    "rays.load_ms": ("rays", ("load_rayset",)),
    "rays.dump_ms": ("rays", ("rayset_to_json", "save_rayset")),
    "ortho.graph_ms": ("ortho", ("ortho_graph", "from_edges", "graph_to_json",
                                 "graph_from_json", "cycle_graph",
                                 "complete_graph", "empty_graph")),
    "ortho.bases_ms": ("ortho", ("complete_bases", "basis_incidence")),
    "ortho.cliques_ms": ("ortho", ("maximal_cliques",)),
    "ortho.realize_ms": ("ortho", ("realize",)),
    "kscolor.solve_ms": ("kscolor", ("ks_solve", "verify_coloring")),
    "kscolor.count_ms": ("kscolor", ("count_colorings",)),
    "bounds.alpha_ms": ("bounds", ("independence_number",)),
    "bounds.theta_ms": ("bounds", ("theta_certificate", "lovasz_theta")),
    "bounds.lp_ms": ("bounds", ("fractional_packing", "bounds_report")),
    "operators.spectrum_ms": ("operators", ("projector_sum", "eigen_max",
                                            "equal_weight_povm_check")),
    "operators.platter_ms": ("operators", ("platter_simulate",)),
    "measure.fraction_ms": ("measure", ("mc_colored_fraction",
                                        "colored_fraction_real",
                                        "colored_fraction_complex")),
    "measure.bases_ms": ("measure", ("basis_colored_fraction_mc",)),
    "measure.validity_ms": ("measure", ("region_validity_mc",)),
    "measure.separable_ms": ("measure", ("separable_validity_mc",)),
}
_METRIC_OF = {(layer, fn): metric
              for metric, (layer, fns) in METRICS.items() for fn in fns}


class Tracer:
    def __init__(self):
        self.modules = {layer: importlib.import_module(f"ksray.{layer}")
                        for layer in LAYERS}
        namespaces = [importlib.import_module("ksray"), *self.modules.values()]
        wrappers = {}
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(layer, name, obj)
        # (namespace, attribute, original, wrapper) for every binding
        self._patches = [(ns, attr, obj, wrappers[obj])
                         for ns in namespaces
                         for attr, obj in list(vars(ns).items())
                         if inspect.isfunction(obj) and obj in wrappers]
        self.spans: list[tuple] = []
        self.job = -1
        self._stack: list[list] = []
        self._next_id = 0

    def install(self) -> None:
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def remove(self) -> None:
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)

    def _wrap(self, layer: str, name: str, fn):
        own_metric = _METRIC_OF.get((layer, name))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            if own_metric is not None:
                metric = own_metric
            elif parent is not None and parent[3] == layer:
                metric = parent[2]
            else:
                metric = f"{layer}.other_ms"
            entry = [self._next_id, 0, metric, layer]
            self._next_id += 1
            stack.append(entry)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self.spans.append((entry[0], parent[0] if parent else -1,
                                   self.job, layer, name, metric, start, end,
                                   end - start - entry[1]))
        return traced

    def take(self) -> list[tuple]:
        """Hand over the spans recorded since the last call."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans) -> tuple[dict[str, float], dict[str, float]]:
    """Self time in ms summed per metric and per layer."""
    by_metric: dict[str, float] = {}
    by_layer: dict[str, float] = {}
    for span in spans:
        layer, metric, self_ns = span[3], span[5], span[8]
        by_metric[metric] = by_metric.get(metric, 0.0) + self_ns / 1e6
        by_layer[layer] = by_layer.get(layer, 0.0) + self_ns / 1e6
    return by_metric, by_layer


def write_spans(path: str, rounds) -> None:
    """One JSON line per span: round, id, parent, job, layer, function,
    metric, start and end in ns, self time in ns."""
    keys = ("id", "parent", "job", "layer", "function", "metric", "start_ns",
            "end_ns", "self_ns")
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for number, spans in rounds:
            for span in spans:
                row = dict(zip(keys, span))
                row["round"] = number
                fh.write(json.dumps(row) + "\n")
