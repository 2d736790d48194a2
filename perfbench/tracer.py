"""Span tracing of concave_ot from outside the package.

The tracer replaces the public functions of each module (its ``__all__``,
plus ``cli.solve_with_meet``) with wrappers that record a span: name,
start, end and parent span.  A function imported by name into another
module (``solver.cost_matrix``, ``structure.meet``, ``cli.solve_exact``
and so on) is the same object, so every binding of it in every
``concave_ot`` module is replaced, and calls made through any of them are
seen.  Spans are kept in memory; :func:`layer_metrics` turns the spans
of one iteration into self times and counts per layer.

Pivots are read from the return value of the private
``solver._network_simplex``.  That counter is installed in traced and
untraced runs alike (one extra call per solve), so the two can be
compared; when the function no longer exists the count is missing.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("costs", "measures", "solver", "structure", "geometry", "cli")

# Span name -> metric that receives the span's self time.  A span not
# listed here lands in "<layer>.other_s".
SELF_TIME = {
    "costs.cost_matrix": "costs.cost_matrix_s",
    "solver.solve_exact": "solver.simplex_s",
    "solver.certify": "solver.certify_s",
    "solver.save_plan": "solver.io_s",
    "solver.load_plan": "solver.io_s",
    "solver.save_potentials": "solver.io_s",
    "measures.load_measure": "measures.io_s",
    "measures.save_measure": "measures.io_s",
    "measures.meet": "measures.meet_s",
    "cli.solve_with_meet": "cli.presolve_self_s",
    "structure.verify_stay_at_rest": "structure.verify_stay_at_rest_s",
    "structure.verify_ccm": "structure.verify_ccm_s",
    "structure.reconstruct_map_from_potential": "structure.reconstruct_s",
    "geometry.isotropy_audit": "geometry.isotropy_audit_s",
}
OTHER_SELF = {
    "costs": "costs.other_s",
    "measures": "measures.other_s",
    "solver": "solver.other_s",
    "structure": "structure.other_s",
    "geometry": "geometry.other_s",
    "cli": "cli.report_self_s",  # run_* minus every library span below it
}
SELF_METRICS = tuple(dict.fromkeys([*SELF_TIME.values(), *OTHER_SELF.values()]))


def _count_load_plan(args, kwargs, out):
    json_path = args[0] if args else kwargs["json_path"]
    _, header = out
    csv_path = os.path.join(os.path.dirname(os.fspath(json_path)), header["entries_csv"])
    return {"solver.io_bytes": os.path.getsize(json_path) + os.path.getsize(csv_path)}


def _count_written(args, kwargs, paths):
    return {"solver.io_bytes": sum(map(os.path.getsize, paths))}


# Span name -> function(args, kwargs, result) giving counts to add.
COUNTERS = {
    "costs.cost_matrix": lambda a, k, out: {"costs.cost_entries": out.size},
    "solver.solve_exact": lambda a, k, out: {"solver.plan_entries": out[0].n_entries},
    "solver.save_plan": _count_written,
    "solver.save_potentials": _count_written,
    "solver.load_plan": _count_load_plan,
    "measures.load_measure": lambda a, k, out: {
        "measures.io_bytes": os.path.getsize(a[0] if a else k["path"])
    },
    "structure.verify_ccm": lambda a, k, out: {"structure.ccm_cycles": out.cycles_checked},
    "geometry.isotropy_audit": lambda a, k, out: {
        "geometry.cone_tests": len(out.sampled_atoms)
        * out.n_directions
        * len(out.deltas)
        * len(out.epsilons)
    },
}


def _package_modules():
    return [m for name, m in sys.modules.items()
            if name == "concave_ot" or name.startswith("concave_ot.")]


def _rebind(old, new):
    """Point every concave_ot binding of ``old`` at ``new``.

    Module-level dicts are searched too: ``cli._GENERATORS`` holds the
    measure generators that ``run_isotropy`` calls.
    """
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is old:
                        value[k] = new


class PivotCounter:
    """Sums the pivot counts ``solver._network_simplex`` returns."""

    def __init__(self, solver):
        self.pivots = 0
        self.available = hasattr(solver, "_network_simplex")
        if not self.available:
            return
        inner = solver._network_simplex

        @functools.wraps(inner)
        def counted(*args, **kwargs):
            out = inner(*args, **kwargs)
            self.pivots += int(out[3])
            return out

        solver._network_simplex = counted

    def take(self):
        """Pivots since the last call, or None when they cannot be read."""
        pivots, self.pivots = self.pivots, 0
        return pivots if self.available else None


class Tracer:
    """Wraps the package's public functions; records spans while enabled."""

    def __init__(self):
        self.enabled = False
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = defaultdict(float)
        self._stack = []

    def install(self):
        import concave_ot.cli  # noqa: F401  (loads every module of the package)

        modules = {layer: sys.modules[f"concave_ot.{layer}"] for layer in LAYERS}
        for layer, mod in modules.items():
            names = list(mod.__all__) + (["solve_with_meet"] if layer == "cli" else [])
            for name in names:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    _rebind(fn, self._wrap(f"{layer}.{name}", fn))

    def _wrap(self, span_name, fn):
        count = COUNTERS.get(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (span_name, start, end, parent)
            if count is not None:
                for key, value in count(args, kwargs, out).items():
                    self.counts[key] += value
            return out

        return traced

    def take(self):
        """Spans and counts recorded since the last call."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(float)
        return spans, counts


def layer_metrics(spans, counts, pivots):
    """Per-layer metrics of one traced iteration.

    A span's self time is its duration minus the durations of its direct
    children; calls are nested and single-threaded, so children never
    overlap.  ``pivots`` is None when the solver no longer reports them.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = dict.fromkeys(SELF_METRICS, 0.0)
    out["solver.solve_exact_s"] = 0.0
    for (name, start, end, _), inner in zip(spans, child_time):
        metric = SELF_TIME.get(name) or OTHER_SELF[name.split(".", 1)[0]]
        out[metric] += end - start - inner
        if name == "solver.solve_exact":
            out["solver.solve_exact_s"] += end - start
    for key in ("costs.cost_entries", "solver.plan_entries", "solver.io_bytes",
                "measures.io_bytes", "structure.ccm_cycles", "geometry.cone_tests"):
        out[key] = int(counts.get(key, 0))
    if pivots is not None:
        out["solver.pivots"] = pivots
        out["solver.us_per_pivot"] = 1e6 * out["solver.simplex_s"] / pivots if pivots else 0.0
    cone_tests = out["geometry.cone_tests"]
    out["geometry.ns_per_cone_test"] = (
        1e9 * out["geometry.isotropy_audit_s"] / cone_tests if cone_tests else 0.0
    )
    return out


def median_metrics(rows):
    """Metric-wise median over iterations (each row from layer_metrics)."""
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}
