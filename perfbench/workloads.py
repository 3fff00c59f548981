"""The benchmark's workloads: seeded set-up, a timed body that drives the
public API, and the output checks run after each pass.

Each workload is a closed loop with one client: one process runs its
configurations back to back.  One (configuration, seed) result is one
operation; an operation fails when its result carries an error or fails an
output check.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repblend as rb
import generators
import spans

# datasets per run, each from its own generator seed; averaging over several
# instances keeps one hard LP from setting a run's time, and setup_s reports
# the median of their set-ups
INSTANCES = 3

REFERENCES_FILE = Path(__file__).with_name("references.json")

OBJECTIVE_RTOL = 1e-7  # full-objective reference match, relative
STEP_TOL = 1e-9  # greedy-hull step distances may not rise by more
SPACE_TOL = 1e-9  # weight-row sums against their space's limit


@dataclass(frozen=True)
class Workload:
    """``configs`` lists (method, weight type, n_rp); each runs with
    ``n_seeds`` clustering seeds.  ``evaluate`` selects the experiment path
    (reduce, then score regret against the cached full solve) over the
    README's reduce-and-solve sequence."""

    name: str
    dataset: str  # "gep" or "p2x"
    periods: int
    hours: int
    configs: tuple[tuple[str, str, int], ...]
    n_seeds: int
    evaluate: bool
    write_lp: bool = False


WORKLOADS = {w.name: w for w in (
    Workload(
        "hull-year", "gep", 52, 24, (("hull", "convex", 8), ("hull", "conic", 8)), 1,
        evaluate=False),
    Workload(
        "regret-sweep", "gep", 52, 12,
        tuple((m, "dirac", k) for m in ("kmeans", "kmedoids") for k in (8, 24)), 2,
        evaluate=True, write_lp=True),
    Workload(
        "p2x-blend", "p2x", 52, 24, (("kmedoids", "subunit", 8), ("kmeans", "conic", 8)), 1,
        evaluate=True),
)}


def generator_seed(dataset: str, seed: int, instance: int) -> int:
    """Generator seed of one instance of a run; instance 0 of seed 1 is the
    test fixtures' dataset (rng seed 73 for gep, 37 for p2x)."""
    base = generators.GEP_DEFAULT_SEED if dataset == "gep" else generators.P2X_DEFAULT_SEED
    return base - 1 + seed + 1000 * instance


def reference_key(workload: Workload, rng_seed: int) -> str:
    return f"{workload.dataset}-{workload.periods}x{workload.hours}-rng{rng_seed}"


def load_references() -> dict:
    return json.loads(REFERENCES_FILE.read_text(encoding="utf-8"))


@dataclass
class Instance:
    """One dataset of a run.  Set-up writes it and, for evaluating
    workloads, builds and solves its full model, which also fills the
    dataset's full-solve cache."""

    index: int
    rng_seed: int
    data_path: Path
    setup_seconds: float = 0.0
    full_model: object = None
    full_solution: object = None
    failures: list[str] | None = None  # dataset checks, after the first pass
    notes: list[str] = field(default_factory=list)


def setup_instance(workload: Workload, rng_seed: int, directory: Path, index: int = 0) -> Instance:
    start = time.perf_counter()
    make = generators.make_gep if workload.dataset == "gep" else generators.make_p2x
    inst = Instance(index, rng_seed,
                    make(directory / workload.dataset, workload.periods, workload.hours, rng_seed))
    if workload.evaluate:
        system = rb.load_system(inst.data_path)
        inst.full_model = rb.build_full_model(system)
        inst.full_solution = rb.harness.solve_full_cached(
            inst.full_model, inst.data_path, system.mode, rb.SolverHandle(), None)
    inst.setup_seconds = time.perf_counter() - start
    return inst


@dataclass
class Op:
    label: str
    failures: list[str] = field(default_factory=list)


@dataclass
class PassResult:
    seconds: float
    ops: list[Op]
    proj_err: list[float]
    regret: list[float]


def _weight_failures(weight_type: str, R, C, weights) -> list[str]:
    """Each row lies in its weight space and the reported projection errors
    are the residuals of the reconstruction."""
    W = weights.values
    out = []
    if not np.all(np.isfinite(W)):
        return ["non-finite weights"]
    if W.min() < 0.0:
        out.append(f"negative weight {W.min():.3g}")
    sums = W.sum(axis=1)
    if weight_type in ("dirac", "convex") and np.abs(sums - 1.0).max() > SPACE_TOL:
        out.append(f"{weight_type} row sum off 1 by {np.abs(sums - 1.0).max():.3g}")
    if weight_type == "subunit_conic" and sums.max() > 1.0 + SPACE_TOL:
        out.append(f"sub-unit row sum {sums.max():.12g} > 1")
    if weight_type == "dirac" and not np.all((W == 0.0) | (W == 1.0)):
        out.append("dirac row is not one-hot")
    residuals = np.linalg.norm(R @ W.T - C, axis=0)
    gap = np.abs(residuals - weights.projection_errors).max()
    if gap > 1e-9 * (1.0 + residuals.max()):
        out.append(f"projection errors differ from reconstruction residuals by {gap:.3g}")
    return out


def _run_hull(workload: Workload, inst: Instance) -> tuple[float, list[dict]]:
    results = []
    start = time.perf_counter()
    for method, weight_type, n_rp in workload.configs:
        out = {"label": f"{method}+{weight_type} k={n_rp} rng={inst.rng_seed}"}
        try:
            system = rb.load_system(inst.data_path)
            out["violations"] = rb.validate_profiles(system)
            cm = rb.build_clustering_matrix(system)
            hull_type = rb.harness.HULL_FOR_WEIGHT[rb.canonical_weight_type(weight_type)]
            out["selection"] = rb.greedy_hull(cm.values, n_rp, hull_type)
            out["weights"] = rb.fit_weights(out["selection"].rep_matrix, cm.values, weight_type)
            out["data"] = cm.values
            reduced = rb.build_model(
                system, rb.extract_rep_profiles(system, out["selection"], cm), out["weights"])
            out["solution"] = rb.solve(reduced)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            out["error"] = f"{type(exc).__name__}: {exc}"
        results.append(out)
    return time.perf_counter() - start, results


def _check_hull(results: list[dict]) -> PassResult:
    ops, proj_err = [], []
    for out in results:
        op = Op(out["label"])
        ops.append(op)
        if "error" in out:
            op.failures.append(out["error"])
            continue
        if out["violations"]:
            op.failures.append(f"{len(out['violations'])} profile violations")
        if out["solution"].status != "optimal":
            op.failures.append(f"reduced solve {out['solution'].status}")
        weights = out["weights"]
        op.failures += _weight_failures(weights.weight_type, out["selection"].rep_matrix,
                                        out["data"], weights)
        steps = out["selection"].step_max_distances
        if any(b > a + STEP_TOL for a, b in zip(steps, steps[1:])):
            op.failures.append(f"greedy-hull step distances rise: {steps}")
        proj_err.append(float(weights.projection_errors.mean()))
    return PassResult(0.0, ops, proj_err, [])


def _run_sweep(workload: Workload, inst: Instance, seed: int, lp_path: Path):
    seeds = tuple(seed + i for i in range(workload.n_seeds))
    runs = []
    start = time.perf_counter()
    for method, weight_type, n_rp in workload.configs:
        config = rb.ExperimentConfig(inst.data_path, method, weight_type, n_rp, seeds=seeds)
        runs.append(rb.run_experiment(config))
    if workload.write_lp:
        rb.write_lp_file(inst.full_model, lp_path)
    return time.perf_counter() - start, runs


def _check_sweep(runs, fits, inst: Instance) -> PassResult:
    ops, proj_err, regret = [], [], []
    fits = iter(fits)
    full_objective = inst.full_solution.objective
    for records in runs:
        for rec in records:
            op = Op(f"{rec.method}+{rec.weight_type} k={rec.n_rp} seed={rec.seed} "
                    f"rng={inst.rng_seed}")
            if rec.error:
                op.failures.append(rec.error)
            # run_experiment raises (into rec.error) unless all three solves
            # are optimal, so a missing objective means a non-optimal solve
            if None in (rec.objective_reduced, rec.objective_full, rec.objective_fixed):
                op.failures.append("a reduced, full or fixed solve was not optimal")
            elif rec.objective_full != full_objective:
                op.failures.append(f"full objective {rec.objective_full!r} differs from "
                                   f"the set-up solve {full_objective!r}")
            if rec.proj_err_mean is not None:
                fit = next(fits, None)
                if fit is None:
                    op.failures.append("no weight fit recorded")
                else:
                    op.failures += _weight_failures(*fit)
                proj_err.append(rec.proj_err_mean)
            if rec.regret_pct is not None:
                regret.append(rec.regret_pct)
            ops.append(op)
    return PassResult(0.0, ops, proj_err, regret)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def instance_failures(workload: Workload, inst: Instance, lp_path: Path,
                      scratch: Path) -> tuple[list[str], list[str]]:
    """Checks on an instance's full model, run after its first pass: the
    full solve's status, its objective and LP file against the references
    recorded for this dataset, and the LP export against the export of a
    second, independently built full model.  Returns (failures, notes)."""
    if not workload.evaluate:
        return [], []
    failures, notes = [], []
    solution = inst.full_solution
    if solution.status != "optimal":
        failures.append(f"set-up full solve {solution.status}")
    key = reference_key(workload, inst.rng_seed)
    ref = load_references().get(key)
    if ref is None:
        notes.append(f"no reference for {key}; reference checks skipped")
    elif solution.objective is None or abs(solution.objective - ref["objective_full"]) > \
            OBJECTIVE_RTOL * abs(ref["objective_full"]):
        failures.append(f"full objective {solution.objective!r} != reference "
                        f"{ref['objective_full']!r}")
    if workload.write_lp:
        sha = _sha256(lp_path)
        second = scratch / "full-again.lp"
        rb.write_lp_file(rb.build_full_model(rb.load_system(inst.data_path)), second)
        if _sha256(second) != sha:
            failures.append("LP files of two independently built full models differ")
        if ref is not None and sha != ref["lp_sha256"]:
            failures.append(f"full-model LP sha256 {sha} != reference {ref['lp_sha256']} "
                            f"({lp_path.stat().st_size} vs {ref['lp_bytes']} bytes)")
    return failures, notes


def run_pass(workload: Workload, inst: Instance, seed: int, scratch: Path) -> PassResult:
    """One timed pass of the workload's body on one instance, then its
    output checks (the instance's dataset checks after its first pass)."""
    lp_path = scratch / f"full{inst.index}.lp"
    if workload.evaluate:
        # run_experiment returns no weights; keep each fit's inputs and result
        capture = spans.Tracer({"weights.fit_weights": spans.TARGETS["weights.fit_weights"]})
        capture.install()
        try:
            seconds, runs = _run_sweep(workload, inst, seed, lp_path)
        finally:
            capture.uninstall()
        result = _check_sweep(runs, capture.fits, inst)
    else:
        seconds, results = _run_hull(workload, inst)
        result = _check_hull(results)
    if inst.failures is None:
        inst.failures, inst.notes = instance_failures(workload, inst, lp_path, scratch)
    for op in result.ops:
        op.failures += inst.failures
    result.seconds = seconds
    return result


@dataclass
class RunResult:
    instances: list[Instance]
    passes: list[tuple[int, PassResult]]  # (instance index, pass), untraced
    traced: list[PassResult]  # one per instance, traced
    tracer: spans.Tracer | None

    @property
    def ops(self) -> list[Op]:
        return [op for _, p in self.passes for op in p.ops] + \
            [op for p in self.traced for op in p.ops]

    @property
    def first_round(self) -> list[PassResult]:
        return [p for _, p in self.passes[:len(self.instances)]]

    def total_seconds(self) -> float:
        """Body time over all instances, each instance's time being the
        median of its passes."""
        return sum(statistics.median(p.seconds for j, p in self.passes if j == inst.index)
                   for inst in self.instances)


def run(workload: Workload, seed: int, seconds: float, trace: bool, scratch: Path) -> RunResult:
    """Set up INSTANCES datasets, then run timed passes over them in turn
    until every instance ran once and ``seconds`` of body time have passed.
    With ``trace``, set-up is traced, and one untraced round over the
    instances is followed by one traced round."""
    tracer = spans.Tracer() if trace else None
    instances = []
    for i in range(INSTANCES):
        if tracer:
            tracer.install()
        try:
            instances.append(setup_instance(
                workload, generator_seed(workload.dataset, seed, i), scratch / f"instance{i}", i))
        finally:
            if tracer:
                tracer.uninstall()

    passes: list[tuple[int, PassResult]] = []
    elapsed = 0.0
    while len(passes) < INSTANCES or (not trace and elapsed < seconds):
        inst = instances[len(passes) % INSTANCES]
        passes.append((inst.index, run_pass(workload, inst, seed, scratch)))
        elapsed += passes[-1][1].seconds

    traced = []
    if tracer:
        tracer.install()
        try:
            traced = [run_pass(workload, inst, seed, scratch) for inst in instances]
        finally:
            tracer.uninstall()
    return RunResult(instances, passes, traced, tracer)
