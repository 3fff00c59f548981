"""Span recording around the package's public functions.

The package is not instrumented.  A ``Tracer`` replaces module attributes
that the pipeline looks up at call time (``repblend.harness.solve``,
``repblend.weights.pgd``, ...) with wrappers that record one span per call:
name, start, end and parent.  Spans stay in memory until the run ends, when
``layer_metrics`` folds them into per-layer totals.

A target attribute that no longer exists (say, the per-row ``pgd`` after the
fit is batched) is not an error: the tracer lists it in ``absent`` and the
metrics built only from it read 0 with the name reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import time
import weakref
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import nnls

# span name -> the (module, attribute) pairs wrapped under it.  Package-level
# names are wrapped too because the hull-year workload calls the library the
# way the README does (``repblend.greedy_hull``); ``repblend.data`` is wrapped
# for the second validation inside ``build_clustering_matrix``.
TARGETS = {
    "data.load_system": [("repblend.harness", "load_system"), ("repblend", "load_system")],
    "data.validate_profiles": [("repblend.harness", "validate_profiles"),
                               ("repblend", "validate_profiles"),
                               ("repblend.data", "validate_profiles")],
    "data.build_clustering_matrix": [("repblend.harness", "build_clustering_matrix"),
                                     ("repblend", "build_clustering_matrix")],
    "data.extract_rep_profiles": [("repblend.harness", "extract_rep_profiles"),
                                  ("repblend", "extract_rep_profiles")],
    "harness.run_experiment": [("repblend", "run_experiment")],
    "harness.cluster_matrix": [("repblend.harness", "cluster_matrix")],
    "harness.solve_full_cached": [("repblend.harness", "solve_full_cached")],
    "clustering.kmeans": [("repblend.harness", "kmeans")],
    "clustering.kmedoids": [("repblend.harness", "kmedoids")],
    "clustering.greedy_hull": [("repblend.harness", "greedy_hull"), ("repblend", "greedy_hull")],
    "clustering.hull_distance": [("repblend.clustering", "hull_distance")],
    "clustering.pgd": [("repblend.clustering", "pgd")],
    "weights.fit_weights": [("repblend.harness", "fit_weights"), ("repblend", "fit_weights")],
    "weights.pgd": [("repblend.weights", "pgd")],
    "model.build_model": [("repblend.harness", "build_model"), ("repblend", "build_model")],
    "model.build_full_model": [("repblend.harness", "build_full_model"),
                               ("repblend", "build_full_model")],
    "model.fix_decisions": [("repblend.harness", "fix_decisions")],
    "solve.solve": [("repblend.harness", "solve"), ("repblend", "solve")],
    "solve.write_lp_file": [("repblend", "write_lp_file")],
}

# the kind of model each builder returns, for splitting solve time
_MODEL_KIND = {"model.build_full_model": "full", "model.fix_decisions": "fixed",
               "model.build_model": "reduced"}

HARNESS_SPANS = ("harness.run_experiment", "harness.cluster_matrix", "harness.solve_full_cached")

# a fitted row counts as optimal when its residual is within this of the
# exact optimum (residuals are O(1) on the benchmark's data)
OPTIMUM_TOL = 1e-6


@dataclass
class Span:
    name: str
    parent: Span | None
    start: float = 0.0
    end: float = 0.0
    child_time: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a span per call of each target while installed."""

    def __init__(self, targets: dict = TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.absent: list[str] = []  # wrapped places that no longer exist
        self.absent_spans: set[str] = set()  # spans with no place left
        self.fits: list[tuple] = []  # (weight_type, R, C, WeightMatrix) per fit
        self._model_kind = weakref.WeakKeyDictionary()
        self._stack: list[Span] = []
        self._saved: list[tuple] = []

    def install(self):
        self.absent = []
        self.absent_spans = set()
        for name, places in self.targets.items():
            wrapped = 0
            for module_name, attr in places:
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    module = None
                original = getattr(module, attr, None)
                if not callable(original):
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self._wrap(name, original))
                self._saved.append((module, attr, original))
                wrapped += 1
            if not wrapped:
                self.absent_spans.add(name)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, parent)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_time += span.duration
            self._observe(span, args, kwargs, result)
            return result
        return wrapper

    def _observe(self, span: Span, args, kwargs, result):
        name = span.name
        if name in _MODEL_KIND:
            try:
                self._model_kind[result] = _MODEL_KIND[name]
            except TypeError:
                pass
            span.info["vars"] = getattr(result, "num_vars", 0)
            span.info["rows"] = getattr(result, "num_constraints", 0)
        elif name == "solve.solve":
            model = args[0] if args else kwargs.get("model")
            try:
                span.info["kind"] = self._model_kind.get(model, "other")
            except TypeError:
                span.info["kind"] = "other"
        elif name == "weights.fit_weights":
            bound = _bind_fit_args(args, kwargs)
            if bound is not None:
                self.fits.append((result.weight_type, *bound, result))


def _bind_fit_args(args, kwargs):
    names = ("rep_matrix", "data_matrix")
    values = list(args[:2]) + [kwargs.get(n) for n in names[len(args[:2]):]]
    if any(v is None for v in values):
        return None
    return tuple(np.asarray(v, dtype=float) for v in values)


def optimal_residuals(R: np.ndarray, C: np.ndarray, weight_type: str) -> np.ndarray:
    """Exact optimum of min ||R w - c|| per column c of C over the weight
    space, from ``scipy.optimize.nnls``: direct for conic weights, on a
    heavily weighted sum-to-one augmented system for convex weights, and for
    sub-unit weights the conic optimum when it sums to at most one, else the
    convex optimum."""
    C = C.reshape(C.shape[0], -1)
    rho = 1e4 * max(1.0, float(np.abs(R).max()))
    augmented = np.vstack([R, np.full((1, R.shape[1]), rho)])
    out = np.empty(C.shape[1])
    for d in range(C.shape[1]):
        c = C[:, d]
        w, res = nnls(R, c)
        if weight_type == "convex" or (weight_type == "subunit_conic" and w.sum() > 1.0):
            w, _ = nnls(augmented, np.append(c, rho))
            w = w / w.sum()
            res = float(np.linalg.norm(R @ w - c))
        out[d] = res
    return out


def _sum(spans, name, key=None):
    if key is None:
        return float(sum(s.duration for s in spans if s.name == name))
    return sum(s.info.get(key, 0) for s in spans if s.name == name)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer totals over every recorded span: name -> (value, unit)."""
    spans = tracer.spans
    count = lambda name: sum(1 for s in spans if s.name == name)  # noqa: E731

    fit_rows = 0
    at_optimum = 0
    excess_max = 0.0
    for weight_type, R, C, weights in tracer.fits:
        if weight_type == "dirac":
            continue
        excess = weights.projection_errors - optimal_residuals(R, C, weight_type)
        fit_rows += excess.size
        at_optimum += int(np.sum(excess <= OPTIMUM_TOL))
        excess_max = max(excess_max, float(excess.max()))

    solve_spans = [s for s in spans if s.name == "solve.solve"]
    solve_time = lambda kind: float(sum(s.duration for s in solve_spans  # noqa: E731
                                        if s.info.get("kind") == kind))
    cached = [s for s in spans if s.name == "harness.solve_full_cached"]
    hits = sum(1 for s in cached
               if not any(t.parent is s and t.name == "solve.solve" for t in solve_spans))

    metrics = {
        "clustering.greedy_hull_s": (_sum(spans, "clustering.greedy_hull"), "s"),
        "clustering.hull_distance_calls": (count("clustering.hull_distance"), "count"),
        "clustering.hull_distance_s": (_sum(spans, "clustering.hull_distance"), "s"),
        "clustering.pgd_calls": (count("clustering.pgd"), "count"),
        "clustering.pgd_s": (_sum(spans, "clustering.pgd"), "s"),
        "clustering.kmeans_s": (_sum(spans, "clustering.kmeans"), "s"),
        "clustering.kmedoids_s": (_sum(spans, "clustering.kmedoids"), "s"),
        "weights.fit_weights_s": (_sum(spans, "weights.fit_weights"), "s"),
        "weights.fit_rows": (fit_rows, "count"),
        "weights.pgd_calls": (count("weights.pgd"), "count"),
        "weights.pgd_s": (_sum(spans, "weights.pgd"), "s"),
        "weights.fit_excess_max": (excess_max, "unitless"),
        "weights.rows_at_optimum_ratio": (at_optimum / fit_rows if fit_rows else 0.0, "ratio"),
        "data.load_system_s": (_sum(spans, "data.load_system"), "s"),
        "data.load_system_calls": (count("data.load_system"), "count"),
        "data.validate_profiles_s": (_sum(spans, "data.validate_profiles"), "s"),
        "data.validate_profiles_calls": (count("data.validate_profiles"), "count"),
        "data.build_clustering_matrix_s": (_sum(spans, "data.build_clustering_matrix"), "s"),
        "data.extract_rep_profiles_s": (_sum(spans, "data.extract_rep_profiles"), "s"),
        "model.build_full_model_s": (_sum(spans, "model.build_full_model"), "s"),
        "model.build_full_model_calls": (count("model.build_full_model"), "count"),
        "model.fix_decisions_s": (_sum(spans, "model.fix_decisions"), "s"),
        "model.full_vars": (_sum(spans, "model.build_full_model", "vars"), "count"),
        "model.full_rows": (_sum(spans, "model.build_full_model", "rows"), "count"),
        "model.build_model_s": (_sum(spans, "model.build_model"), "s"),
        "model.reduced_vars": (_sum(spans, "model.build_model", "vars"), "count"),
        "model.reduced_rows": (_sum(spans, "model.build_model", "rows"), "count"),
        "solve.full_s": (solve_time("full"), "s"),
        "solve.fixed_s": (solve_time("fixed"), "s"),
        "solve.reduced_s": (solve_time("reduced"), "s"),
        "solve.calls": (len(solve_spans), "count"),
        "solve.write_lp_s": (_sum(spans, "solve.write_lp_file"), "s"),
        "harness.run_experiment_s": (_sum(spans, "harness.run_experiment"), "s"),
        "harness.self_s": (float(sum(s.duration - s.child_time for s in spans
                                     if s.name in HARNESS_SPANS)), "s"),
        "harness.solve_full_cached_s": (_sum(spans, "harness.solve_full_cached"), "s"),
        "harness.full_cache_hit_ratio": (hits / len(cached) if cached else 0.0, "ratio"),
    }
    return metrics


# metrics not named after their span as "<span>_s" or "<span>_calls"
_SOURCE = {
    "weights.fit_rows": "weights.fit_weights",
    "weights.fit_excess_max": "weights.fit_weights",
    "weights.rows_at_optimum_ratio": "weights.fit_weights",
    "model.full_vars": "model.build_full_model",
    "model.full_rows": "model.build_full_model",
    "model.reduced_vars": "model.build_model",
    "model.reduced_rows": "model.build_model",
    "solve.full_s": "solve.solve",
    "solve.fixed_s": "solve.solve",
    "solve.reduced_s": "solve.solve",
    "solve.calls": "solve.solve",
    "solve.write_lp_s": "solve.write_lp_file",
    "harness.self_s": "harness.run_experiment",
    "harness.full_cache_hit_ratio": "harness.solve_full_cached",
}


def absent_metrics(tracer: Tracer, metrics) -> list[str]:
    """Metrics whose span had none of its targets left to wrap."""
    source = lambda metric: _SOURCE.get(metric, metric.rsplit("_", 1)[0])  # noqa: E731
    return [metric for metric in metrics if source(metric) in tracer.absent_spans]
