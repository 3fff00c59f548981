"""Metamorphic relations of the whole pipeline: a change to the dataset
whose effect on every output is known, checked on the synthetic fixtures
without an oracle solver.

Scale: every MW or MWh quantity times c (peak demand, unit capacities,
storage capacities, inflow maxima, initial storage and line limits).
Profiles are unitless, so the selection and the weights do not move, and
the full, reduced and fixed objectives all scale by c.

Nesting: the greedy hull's first k picks do not depend on how many it is
asked for, so ``greedy_hull(C, k)`` is the first k picks of
``greedy_hull(C, K)`` for k < K, with the same step distances.  One run at
the largest k can then serve every smaller k.

k = D: with as many representatives as base periods, every method's
representatives are the base periods themselves and every weight space fits
each period to itself, so the reduced model is the full one: the same
objective, and zero regret.

Relabel: every node, carrier, asset and line renamed so that their sorted
order reverses, with the rows of every file kept in place.  The loader and
the clustering matrix sort by name, so the model's rows and columns come in
another order, but each series must still reach the asset or node it names:
the full, reduced and fixed objectives do not move, and neither do the
selected periods and the weights.

Split an asset: a producer replaced by two copies with half its unit
capacity each, and its other fields and availability series.  Capacity,
investment cost and ramp limits all scale with the unit capacity, so the
full objective does not move, and neither does the reduced objective at the
same source periods and weights.  The second availability block changes
the clustering matrix, so the selection and the weights come from the
original's.

Representative order: the columns of R permuted.  Every weight space's
projection errors do not move, and where R has full column rank the
blended optimum is unique, so its weights permute with the columns.
"""

import csv
import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import period_reps
from generators import make_gep, make_p2x
from repblend.clustering import HULL_TYPES, greedy_hull
from repblend.data import build_clustering_matrix, load_system, require_valid
from repblend.harness import (
    METHODS,
    ExperimentConfig,
    cluster_matrix,
    iter_seed_runs,
    run_experiment,
)
from repblend.model import build_full_model, build_model
from repblend.solve import solve
from repblend.weights import WEIGHT_TYPES, fit_weights

SCALE = 3.0
N_RP = 4
# the MW and MWh columns of each file; peak demand is in config.json
SCALED_COLUMNS = {
    "assets.csv": ("unit_capacity", "storage_cap", "inflow_max", "initial_storage"),
    "lines.csv": ("import_limit", "export_limit"),
}


# the kind of name in each renamed column of each file
RELABELED_COLUMNS = {
    "assets.csv": {"name": "asset", "node": "node", "carrier_in": "carrier",
                   "carrier_out": "carrier"},
    "lines.csv": {"name": "line", "from_node": "node", "to_node": "node", "carrier": "carrier"},
    "demand.csv": {"node": "node", "carrier": "carrier"},
    "availability.csv": {"asset": "asset"},
    "inflows.csv": {"asset": "asset"},
    "storage_bounds.csv": {"asset": "asset"},
}


def edit_copy(source: Path, dest: Path, edit_config, columns: dict[str, dict]) -> Path:
    """A copy of the dataset at ``source`` with ``config.json`` passed
    through ``edit_config`` and, in each file of ``columns`` that exists,
    every non-blank cell of a listed column passed through that column's
    function; rows keep their order."""
    shutil.copytree(source, dest)
    config = json.loads((dest / "config.json").read_text(encoding="utf-8"))
    (dest / "config.json").write_text(json.dumps(edit_config(config)), encoding="utf-8")
    for name, edits in columns.items():
        if not (dest / name).exists():
            continue
        with open(dest / name, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            header, rows = reader.fieldnames, list(reader)
        for row in rows:
            for column, edit in edits.items():
                if row[column].strip():
                    row[column] = edit(row[column])
        with open(dest / name, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=header)
            writer.writeheader()
            writer.writerows(rows)
    return dest


def scaled_copy(source: Path, dest: Path, c: float) -> Path:
    """A copy of the dataset at ``source`` with every MW or MWh quantity
    multiplied by ``c``; blank cells stay blank."""
    def edit_config(config):
        config["peak_demand"] = {node: {carrier: c * peak for carrier, peak in peaks.items()}
                                 for node, peaks in config["peak_demand"].items()}
        return config

    def scale(cell):
        return repr(c * float(cell))

    return edit_copy(source, dest, edit_config,
                     {name: dict.fromkeys(columns, scale)
                      for name, columns in SCALED_COLUMNS.items()})


def relabeled_copy(source: Path, dest: Path) -> Path:
    """A copy of the dataset at ``source`` with every node, carrier, asset
    and line renamed: the i-th of n names in sorted order becomes
    ``{kind}{n - 1 - i}``, so the sorted order of each kind reverses."""
    config = json.loads((source / "config.json").read_text(encoding="utf-8"))
    names = {"node": config["nodes"], "carrier": config["carriers"]}
    for kind, file in (("asset", "assets.csv"), ("line", "lines.csv")):
        with open(source / file, newline="", encoding="utf-8") as handle:
            names[kind] = [row["name"] for row in csv.DictReader(handle)]
    renamed = {kind: {name: f"{kind}{len(group) - 1 - i:0{len(str(len(group)))}d}"
                      for i, name in enumerate(sorted(group))}
               for kind, group in names.items()}

    def edit_config(config):
        node, carrier = renamed["node"], renamed["carrier"]
        config["nodes"] = [node[n] for n in config["nodes"]]
        config["carriers"] = [carrier[x] for x in config["carriers"]]
        config["peak_demand"] = {node[n]: {carrier[x]: peak for x, peak in peaks.items()}
                                 for n, peaks in config["peak_demand"].items()}
        return config

    return edit_copy(source, dest, edit_config,
                     {file: {column: renamed[kind].__getitem__
                             for column, kind in columns.items()}
                      for file, columns in RELABELED_COLUMNS.items()})


@pytest.mark.parametrize("method,weight_type", [("hull", "conic"), ("kmeans", "dirac")])
@pytest.mark.parametrize("fixture", ["synthetic_gep_path", "synthetic_p2x_path"],
                         ids=["gep", "p2x"])
def test_scale(request, tmp_path, fixture, method, weight_type):
    base = request.getfixturevalue(fixture)
    runs = []
    for path in (base, scaled_copy(base, tmp_path / "scaled", SCALE)):
        config = ExperimentConfig(path, method, weight_type, N_RP, seeds=(1,),
                                  cache_dir=tmp_path / f"cache-{len(runs)}")
        [run] = iter_seed_runs(config)
        assert run.error is None
        runs.append((run.selection, run.weights, run.record()))
    (selection, weights, record), (scaled_selection, scaled_weights, scaled) = runs

    np.testing.assert_array_equal(scaled_selection.rep_matrix, selection.rep_matrix)
    if selection.source_indices is not None:
        np.testing.assert_array_equal(scaled_selection.source_indices, selection.source_indices)
    np.testing.assert_array_equal(scaled_weights.values, weights.values)
    for name in ("objective_full", "objective_reduced", "objective_fixed"):
        assert getattr(scaled, name) == pytest.approx(SCALE * getattr(record, name),
                                                      rel=1e-9, abs=0.0), name
    assert scaled.regret_pct == pytest.approx(record.regret_pct, rel=0.0, abs=1e-6)


# p2x's reduced model under k-means + dirac has more than one optimal
# storage trajectory.  Relabeled, its rows and columns come in another order
# and HiGHS returns another optimal vertex: the reduced objectives agree to
# the last bit, but the pinned levels differ, and with them the fixed
# objective (regret 1.775 % against 1.941 %)
ALTERNATIVE_OPTIMA = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the fixed objective depends on which optimal vertex of a degenerate "
           "reduced model the solver returns")


@pytest.mark.parametrize("fixture,method,weight_type", [
    pytest.param(fixture, method, weight_type, id=f"{case}-{method}-{weight_type}",
                 marks=ALTERNATIVE_OPTIMA if (case, method) == ("p2x", "kmeans") else ())
    for case, fixture in (("gep", "synthetic_gep_path"), ("p2x", "synthetic_p2x_path"))
    for method, weight_type in (("hull", "conic"), ("kmeans", "dirac"), ("kmedoids", "convex"))
])
def test_relabel(request, tmp_path, fixture, method, weight_type):
    base = request.getfixturevalue(fixture)
    runs = []
    for path in (base, relabeled_copy(base, tmp_path / "relabeled")):
        config = ExperimentConfig(path, method, weight_type, N_RP, seeds=(1,),
                                  cache_dir=tmp_path / f"cache-{len(runs)}")
        [run] = iter_seed_runs(config)
        assert run.error is None
        runs.append(run)
    original, relabeled = runs

    # k-means selects no source periods; its dirac weights are the assignment
    if original.selection.source_indices is not None:
        np.testing.assert_array_equal(relabeled.selection.source_indices,
                                      original.selection.source_indices)
    np.testing.assert_allclose(relabeled.weights.values, original.weights.values,
                               rtol=0.0, atol=1e-9)
    record, relabeled_record = original.record(), relabeled.record()
    for name in ("objective_full", "objective_reduced", "objective_fixed"):
        assert getattr(relabeled_record, name) == pytest.approx(getattr(record, name),
                                                                rel=1e-9, abs=0.0), name


def split_copy(system, name: str):
    """``system`` with the asset ``name`` replaced by two copies, each with
    half its unit capacity and its availability series."""
    [asset] = [a for a in system.assets if a.name == name]
    halves = [dataclasses.replace(asset, name=f"{name}_{part}",
                                  unit_capacity=asset.unit_capacity / 2) for part in "ab"]
    availability = dict(system.availability)
    if name in availability:
        series = availability.pop(name)
        availability.update((half.name, series) for half in halves)
    assets = sorted([a for a in system.assets if a.name != name] + halves, key=lambda a: a.name)
    return dataclasses.replace(system, assets=assets, availability=availability)


@pytest.mark.parametrize("fixture", ["synthetic_gep_path", "synthetic_p2x_path"],
                         ids=["gep", "p2x"])
def test_split_asset(request, fixture):
    system = load_system(request.getfixturevalue(fixture))
    C = build_clustering_matrix(system).values
    selection = cluster_matrix(C, "hull", "conic", N_RP, seed=1)
    weights = fit_weights(selection.rep_matrix, C, "conic")

    def objectives(system):
        reduced = build_model(system, period_reps(system, selection.source_indices), weights)
        return solve(build_full_model(system)).objective, solve(reduced).objective

    full, reduced = objectives(system)
    for asset in system.producers:
        split_full, split_reduced = objectives(split_copy(system, asset.name))
        assert split_full == pytest.approx(full, rel=1e-9, abs=0.0), asset.name
        assert split_reduced == pytest.approx(reduced, rel=1e-9, abs=0.0), asset.name


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("fixture", ["synthetic_gep_path", "synthetic_p2x_path"],
                         ids=["gep", "p2x"])
def test_representative_order(request, fixture, method):
    C = build_clustering_matrix(load_system(request.getfixturevalue(fixture))).values
    for k in sorted({2, 3, min(C.shape[1], 8)}):
        for weight_type in WEIGHT_TYPES:
            R = cluster_matrix(C, method, weight_type, k, seed=1).rep_matrix
            fitted = fit_weights(R, C, weight_type)
            for perm in (np.roll(np.arange(k), 1), np.arange(k)[::-1]):
                permuted = fit_weights(R[:, perm], C, weight_type)
                case = f"k={k} {weight_type} order {perm}"
                np.testing.assert_allclose(permuted.projection_errors, fitted.projection_errors,
                                           rtol=1e-12, atol=1e-12 * np.abs(C).max(),
                                           err_msg=case)
                if weight_type != "dirac" and np.linalg.matrix_rank(R) == k:
                    np.testing.assert_allclose(permuted.values, fitted.values[:, perm],
                                               rtol=0.0, atol=1e-12, err_msg=case)


# the datasets and sizes of the benchmark's three workloads
NESTING_DATASETS = {"gep-52x24": (make_gep, 52, 24),
                    "gep-52x12": (make_gep, 52, 12),
                    "p2x-52x24": (make_p2x, 52, 24)}
NESTING_K = 24


@pytest.fixture(scope="module", params=list(NESTING_DATASETS))
def year_matrix(request, tmp_path_factory):
    writer, periods, hours = NESTING_DATASETS[request.param]
    path = writer(tmp_path_factory.mktemp("nesting") / request.param, periods, hours)
    return build_clustering_matrix(require_valid(load_system(path))).values


@pytest.mark.parametrize("hull_type", HULL_TYPES)
def test_nesting(year_matrix, hull_type):
    full = greedy_hull(year_matrix, NESTING_K, hull_type)
    for k in (2, 4, 8, 16):
        head = greedy_hull(year_matrix, k, hull_type)
        np.testing.assert_array_equal(head.source_indices, full.source_indices[:k])
        steps = len(head.step_max_distances)
        assert steps == len(full.step_max_distances) - (NESTING_K - k)
        np.testing.assert_allclose(head.step_max_distances, full.step_max_distances[:steps],
                                   rtol=0.0, atol=1e-12)


@pytest.fixture(scope="module")
def full_cache(tmp_path_factory):
    """One full-solve cache for every k = D run; its files are keyed by the
    full model's content."""
    return tmp_path_factory.mktemp("k-equals-d-cache")


@pytest.mark.parametrize("weight_type", WEIGHT_TYPES)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("fixture", ["synthetic_gep_path", "synthetic_p2x_path"],
                         ids=["gep", "p2x"])
def test_k_equals_d(request, full_cache, fixture, method, weight_type):
    path = request.getfixturevalue(fixture)
    periods = load_system(path).horizon.num_periods
    config = ExperimentConfig(path, method, weight_type, periods, seeds=(1,),
                              cache_dir=full_cache)
    [record] = run_experiment(config)
    assert record.error == ""
    assert record.objective_reduced == pytest.approx(record.objective_full, rel=1e-9, abs=0.0)
    assert record.regret_pct == pytest.approx(0.0, rel=0.0, abs=1e-9)
