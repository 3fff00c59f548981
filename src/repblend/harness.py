"""End-to-end experiment pipeline: cluster, fit weights, solve the reduced
model, re-solve the full model with the reduced decisions fixed, and report
the relative regret with per-stage timings.

The full-resolution benchmark solve is independent of method, weights and
seed, so it is cached on disk keyed by a hash of the full model's arrays;
a change to the data or to the formulation gives a new key.  The file
keeps ``x`` and the optimal basis, in ``solve``'s codes, and every fixed
solve starts from that basis: a fixed model differs only in its bounds.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import time
import typing
import warnings
import zipfile
from collections import Counter, defaultdict
from collections.abc import Iterator
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .clustering import RepSelection, check_integer, greedy_hull, kmeans, kmedoids
from .data import (
    DataError,
    build_clustering_matrix,
    extract_rep_profiles,
    load_system,
    read_csv,
    require_valid,
    write_csv,
)
from .model import LpModel, build_full_model, build_model, fix_decisions
from .solve import Solution, SolverError, SolverHandle, basis_codes, basis_from_codes, solve
from .weights import WeightMatrix, canonical_weight_type, fit_weights

METHODS = ("kmeans", "kmedoids", "hull")

# hull variant matching each weight space (hard assignments use the plain
# convex hull; sub-unit rows need the null point inside the hull)
HULL_FOR_WEIGHT = {
    "dirac": "convex",
    "convex": "convex",
    "subunit_conic": "convex_null",
    "conic": "conic",
}

REGRET_NOISE_FLOOR = -1e-2  # percent; anything lower flags inconsistent solves


def _refuse_repeated_seed(seeds, where: str):
    """ValueError naming the first seed that ``seeds`` holds more than once."""
    repeated = [seed for seed, count in Counter(seeds).items() if count > 1]
    if repeated:
        raise ValueError(f"seed {repeated[0]} is repeated{where}")


@dataclass(frozen=True)
class ExperimentConfig:
    data_path: Path
    method: str
    weight_type: str
    n_rp: int
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    cache_dir: Path | None = None  # None: <data_path>/.full_cache

    def __post_init__(self):
        object.__setattr__(self, "data_path", Path(self.data_path))
        object.__setattr__(self, "weight_type", canonical_weight_type(self.weight_type))
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        check_integer(self.n_rp, "n_rp")
        if self.n_rp < 1:
            raise ValueError("n_rp must be >= 1")
        for seed in self.seeds:
            check_integer(seed, "seed")
        if not self.seeds or min(self.seeds) < 0:
            raise ValueError(f"at least one seed is required, each >= 0: got {self.seeds}")
        _refuse_repeated_seed(self.seeds, f" in {self.seeds}")


@dataclass
class ExperimentRecord:
    """One seed's pass through the pipeline: stage times in seconds, the
    reduced, fixed and full objectives, regret and projection errors.

    ``t_read`` is the once-per-config load, validation and clustering
    matrix time, so every record of one ``run_experiment`` call carries the
    same value.  ``t_fixed_solve`` times the evaluation solve of the full
    model with the reduced decisions fixed; it is not part of
    ``total_time``, which covers the reduction and its solve.
    ``iterations_reduced`` and ``iterations_fixed`` are the simplex
    iterations of the reduced solve and of the fixed solve, which starts
    from the full model's basis.  ``error`` holds the failure message of a
    seed that did not finish, with the fields it did not reach left unset;
    a failure in the once-per-config set-up, up to and including the full
    solve, gives every seed the same error and no per-seed field.
    """

    case: str
    mode: str
    method: str
    weight_type: str
    n_rp: int
    seed: int
    t_read: float = 0.0
    t_cluster: float = 0.0
    t_fit: float = 0.0
    t_build: float = 0.0
    t_solve: float = 0.0
    t_fixed_solve: float = 0.0
    objective_reduced: float | None = None
    objective_fixed: float | None = None
    objective_full: float | None = None
    regret_pct: float | None = None
    proj_err_mean: float | None = None
    proj_err_max: float | None = None
    iterations_reduced: int = 0
    iterations_fixed: int = 0
    error: str = ""

    @property
    def total_time(self) -> float:
        return self.t_read + self.t_cluster + self.t_fit + self.t_build + self.t_solve


def compute_regret(cost_fixed: float, cost_full: float) -> float:
    """Extra cost, in percent, of acting on the reduced model's decisions.

    Slightly negative values down to the solver-noise floor are passed
    through; anything lower means the two solves are inconsistent and is an
    error, as is a non-positive benchmark cost.
    """
    if not cost_full > 0:
        raise ValueError(f"benchmark cost must be positive, got {cost_full}")
    regret = 100.0 * (cost_fixed - cost_full) / cost_full
    if regret < REGRET_NOISE_FLOOR:
        raise ValueError(
            f"regret {regret:.4g}% below the noise floor {REGRET_NOISE_FLOOR}%: "
            "fixed model undercut the full benchmark")
    return regret


def cluster_matrix(values: np.ndarray, method: str, weight_type: str, n_rp: int,
                   seed: int) -> RepSelection:
    """Dispatch to the configured clustering and return its selection; every
    method maps base periods to it through ``fit_weights``."""
    if method in ("kmeans", "kmedoids"):
        return (kmeans if method == "kmeans" else kmedoids)(values, n_rp, seed)
    if method == "hull":
        hull_type = HULL_FOR_WEIGHT[canonical_weight_type(weight_type)]
        return greedy_hull(values, n_rp, hull_type)
    raise ValueError(f"method must be one of {METHODS}")


def model_key(model: LpModel, handle: SolverHandle) -> str:
    """Content hash of everything a solve of ``model`` depends on: the
    cost, bounds and rows (``starts``, ``col``, ``val``, ``lower``, ``upper``),
    plus the solver tolerance; not the names, as ``x`` is stored by position."""
    digest = hashlib.sha256()
    digest.update(f"{model.num_vars} {model.num_constraints} {model.val.size}\n".encode())
    for array in (model.cost, model.lb, model.ub, model.starts, model.col, model.val,
                  model.lower, model.upper):
        digest.update(np.ascontiguousarray(array))
    digest.update(repr(handle.tolerance).encode())
    return digest.hexdigest()[:20]


def _read_cached_solution(cache_file: Path, model: LpModel) -> Solution | None:
    """The solution stored in ``cache_file``, or None when the file is
    missing or cannot be read back (not an ``.npz`` file, a missing array,
    an optimal solution without an ``x`` or a basis that fits ``model``)."""
    try:
        # given a path, np.load leaves the file open when the zip
        # directory is broken; a handle it is given stays ours to close
        with open(cache_file, "rb") as handle, np.load(handle, allow_pickle=False) as saved:
            status = str(saved["status"])
            objective = x = basis = None
            if status == "optimal":
                objective, x = float(saved["objective"]), saved["x"]
                columns, rows = saved["columns"], saved["rows"]
                if x.shape + columns.shape + rows.shape != model.lb.shape * 2 + model.lower.shape:
                    raise ValueError("solution does not fit the model")
                basis = basis_from_codes(columns, rows)
            return Solution(status=status, objective=objective, x=x,
                            iterations=int(saved["iterations"]), basis=basis)
    except (OSError, EOFError, ValueError, KeyError, TypeError, zipfile.BadZipFile):
        return None


def solve_full_cached(full_model: LpModel, data_path: Path, mode: str,
                      handle: SolverHandle, cache_dir: Path | None) -> Solution:
    """Solve the full model, reusing a cached solution for the same model
    (``model_key``) if one exists.  ``data_path`` locates the default cache
    directory, ``<data_path>/.full_cache``; ``mode`` is already part of the
    model.

    The file, ``full_<key>.npz``, keeps the status and the iteration count,
    plus for an optimal solution the objective, ``x`` and the optimal basis
    as int8 status codes (``columns`` and ``rows``).  A cache file that
    cannot be read back, or whose ``x`` or basis does not fit the model,
    counts as a miss and is overwritten.  Writes go through a temporary
    file in the cache directory and ``os.replace``, so a reader never sees
    a half-written file.  A cache that cannot be written (say, a read-only
    dataset directory) is a warning naming the cache file, and the solution
    is still returned.
    """
    cache_dir = Path(cache_dir) if cache_dir is not None else Path(data_path) / ".full_cache"
    key = model_key(full_model, handle)
    cache_file = cache_dir / f"full_{key}.npz"
    cached = _read_cached_solution(cache_file, full_model)
    if cached is not None:
        return cached
    solution = solve(full_model, handle)
    arrays = {"status": solution.status, "iterations": solution.iterations}
    if solution.status == "optimal":
        columns, rows = basis_codes(solution.basis)
        arrays.update(objective=solution.objective, x=solution.x, columns=columns, rows=rows)
    tmp = cache_dir / f"{cache_file.name}.{os.getpid()}.tmp"
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "wb") as out:
                np.savez(out, **arrays)
            os.replace(tmp, cache_file)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        warnings.warn(f"full solve not cached in {cache_file}: {exc}", stacklevel=2)
    return solution


def _timed(func, *args, **kwargs):
    """``func(*args, **kwargs)`` and its wall time in seconds."""
    start = time.perf_counter()
    result = func(*args, **kwargs)
    return result, time.perf_counter() - start


def _optimal(stage: str, solution: Solution) -> Solution:
    """``solution`` if it is optimal; otherwise SolverError naming the stage."""
    if solution.status != "optimal":
        raise SolverError(f"{stage} solve: {solution.status}")
    return solution


@dataclass
class SeedRun:
    """What one seed's pass computed, up to the stage that raised ``error``:
    the ``ExperimentRecord`` stage times, the selection, weights and reduced
    model, and the set-up's full solution (one object for every run of a
    config) with the reduced and fixed solutions, whatever their status."""

    config: ExperimentConfig
    seed: int
    mode: str
    times: dict[str, float]  # t_read, then t_cluster ... t_fixed_solve as each ends
    full_solution: Solution | None = None
    selection: RepSelection | None = None
    weights: WeightMatrix | None = None
    reduced: LpModel | None = None
    reduced_solution: Solution | None = None
    fixed_solution: Solution | None = None
    regret_pct: float | None = None
    error: Exception | None = None

    def record(self) -> ExperimentRecord:
        """This run as a results row, with the fields of each stage it
        reached (the reduced solve's once it is optimal) and its error as
        "<type>: <message>"."""
        config, reduced, fixed = self.config, self.reduced_solution, self.fixed_solution
        error = "" if self.error is None else f"{type(self.error).__name__}: {self.error}"
        row = dict(self.times, regret_pct=self.regret_pct, error=error)
        if self.weights is not None:
            errors = self.weights.projection_errors
            row.update(proj_err_mean=float(errors.mean()), proj_err_max=float(errors.max()))
        if reduced is not None and reduced.status == "optimal":
            row.update(objective_reduced=reduced.objective, iterations_reduced=reduced.iterations,
                       objective_full=self.full_solution.objective)
        if fixed is not None:
            row.update(objective_fixed=fixed.objective, iterations_fixed=fixed.iterations)
        return ExperimentRecord(config.data_path.name, self.mode, config.method,
                                config.weight_type, config.n_rp, self.seed, **row)


def iter_seed_runs(config: ExperimentConfig) -> Iterator[SeedRun]:
    """Yield one ``SeedRun`` per seed, running each pass only when its run
    is asked for; a failure ends its own run, not the sweep.

    The first request runs the set-up, once per config: read, validate and
    stack the clustering matrix (``t_read``), check the number of
    representatives, build the full model and solve it through the cache;
    a failure there is every run's error.  Each pass clusters, fits, builds
    and solves the reduced model, fixes its first-stage decisions in the
    full model, solves that and scores the regret.
    """
    mode, t_read = "", 0.0
    try:
        start = time.perf_counter()
        system = require_valid(load_system(config.data_path))
        cmatrix = build_clustering_matrix(system)
        t_read = time.perf_counter() - start
        mode = system.mode
        if config.n_rp > cmatrix.num_periods:
            raise DataError(f"number of representatives {config.n_rp} "
                            f"outside 1..{cmatrix.num_periods}")
        handle = SolverHandle()
        full_model = build_full_model(system)
        full_solution = _optimal("full", solve_full_cached(
            full_model, config.data_path, mode, handle, config.cache_dir))
    except Exception as exc:  # noqa: BLE001 - a failure is kept on its run
        for seed in config.seeds:
            yield SeedRun(config, seed, mode, {"t_read": t_read}, error=exc)
        return

    for seed in config.seeds:
        times = {"t_read": t_read}
        run = SeedRun(config, seed, mode, times, full_solution)
        try:
            run.selection, times["t_cluster"] = _timed(
                cluster_matrix, cmatrix.values, config.method, config.weight_type,
                config.n_rp, seed)
            run.weights, times["t_fit"] = _timed(
                fit_weights, run.selection.rep_matrix, cmatrix.values, config.weight_type)
            run.reduced, times["t_build"] = _timed(lambda: build_model(
                system, extract_rep_profiles(system, run.selection, cmatrix), run.weights))
            run.reduced_solution, times["t_solve"] = _timed(solve, run.reduced, handle)
            fixed = fix_decisions(full_model, run.reduced,
                                  _optimal("reduced", run.reduced_solution))
            run.fixed_solution, times["t_fixed_solve"] = _timed(
                solve, fixed, handle, basis=full_solution.basis)
            run.regret_pct = compute_regret(_optimal("fixed", run.fixed_solution).objective,
                                            full_solution.objective)
        except Exception as exc:  # noqa: BLE001 - a failure is kept on its run
            run.error = exc
        yield run


def run_experiment(config: ExperimentConfig) -> list[ExperimentRecord]:
    """One record per seed: the runs of ``iter_seed_runs``."""
    return [run.record() for run in iter_seed_runs(config)]


RESULT_COLUMNS = [f.name for f in fields(ExperimentRecord)] + ["total_time"]


def write_results_csv(records: list[ExperimentRecord], path: Path | str):
    write_csv(path, RESULT_COLUMNS,
              ([getattr(record, name) for name in RESULT_COLUMNS] for record in records))


def load_records(path: Path | str) -> list[ExperimentRecord]:
    """Inverse of write_results_csv (the derived total_time column is
    recomputed, not stored).

    Each column is parsed by the type of its ``ExperimentRecord`` field; a
    blank cell, or a column missing from an older file, reads as the
    field's default.  A missing column of a field without a default, a
    cell that does not parse, or a NaN or infinite number raises DataError
    at its line.
    """
    path = Path(path)
    types = typing.get_type_hints(ExperimentRecord)
    columns = fields(ExperimentRecord)
    required = tuple(f.name for f in columns if f.default is MISSING)
    records = []
    for line, row in read_csv(path, required):
        kwargs = {}
        for f in columns:
            text = row.get(f.name, "")
            if text == "" and f.default is not MISSING:
                continue
            # an optional field parses as its one non-None type
            kind = next((t for t in typing.get_args(types[f.name]) if t is not type(None)),
                        types[f.name])
            try:
                kwargs[f.name] = kind(text)
            except ValueError:
                raise DataError(f"column {f.name!r}: not {kind.__name__}: {text!r}",
                                path.name, line) from None
            if kind is float and not math.isfinite(kwargs[f.name]):
                what = "not a number" if math.isnan(kwargs[f.name]) else "not finite"
                raise DataError(f"column {f.name!r}: {what}: {text!r}", path.name, line)
        records.append(ExperimentRecord(**kwargs))
    return records


PARETO_COLUMNS = ("case", "method", "weight_type", "n_rp", "seeds", "total_time", "regret_pct")


def pareto_front(records: list[ExperimentRecord]) -> list[tuple]:
    """The configurations, (case, method, weight_type, n_rp), that no other
    dominates in (total_time, regret_pct), fastest first, each a tuple in
    ``PARETO_COLUMNS`` order over its finished records; failed records are
    excluded.  A seed that one configuration's records hold twice (the same
    results file read twice, say) is a ValueError."""
    configs = defaultdict(list)
    for rec in records:
        configs[(rec.case, rec.method, rec.weight_type, rec.n_rp)].append(rec)
    points = []
    for config, group in configs.items():
        _refuse_repeated_seed([rec.seed for rec in group], f" in configuration {config}")
        done = [rec for rec in group if rec.regret_pct is not None and not rec.error]
        if done:
            points.append((*config, len(done), statistics.median(r.total_time for r in done),
                           statistics.fmean(r.regret_pct for r in done)))
    # q dominates p: no slower and no worse, and not the same (time, regret)
    return sorted((p for p in points if not any(
        q[-2] <= p[-2] and q[-1] <= p[-1] and q[-2:] != p[-2:] for q in points)),
        key=lambda p: p[-2:])
