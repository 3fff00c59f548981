"""Unit tests for the experiment pipeline, regret accounting, result CSVs
and the command-line interface."""

import collections
import csv
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import repblend.harness as harness
import repblend.model
from repblend.cli import main
from repblend.clustering import kmeans
from repblend.data import DataError, build_clustering_matrix, extract_rep_profiles, load_system
from repblend.model import build_full_model, build_model, fix_decisions
from repblend.harness import (
    PARETO_COLUMNS,
    ExperimentConfig,
    ExperimentRecord,
    cluster_matrix,
    compute_regret,
    iter_seed_runs,
    load_records,
    model_key,
    pareto_front,
    run_experiment,
    solve_full_cached,
    write_results_csv,
)
from repblend.solve import SolverHandle, SolverNumericalError, basis_codes, solve
from repblend.weights import fit_weights

import spans

NON_TIMING_FIELDS = [f.name for f in fields(ExperimentRecord)
                     if not f.name.startswith("t_")]


def record_key(record):
    return tuple(getattr(record, name) for name in NON_TIMING_FIELDS)


class TestComputeRegret:
    def test_headline_arithmetic(self):
        assert compute_regret(107.4, 100.0) == pytest.approx(7.4)

    def test_zero(self):
        assert compute_regret(100.0, 100.0) == 0.0

    def test_solver_noise_accepted(self):
        assert compute_regret(99.9999, 100.0) == pytest.approx(-1e-4)

    def test_undercut_rejected(self):
        with pytest.raises(ValueError, match="noise floor"):
            compute_regret(99.0, 100.0)

    def test_nonpositive_benchmark_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            compute_regret(1.0, 0.0)


class TestExperimentConfig:
    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="method"):
            ExperimentConfig(tmp_path, "pca", "convex", 2)
        with pytest.raises(ValueError, match="n_rp"):
            ExperimentConfig(tmp_path, "hull", "convex", 0)
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(tmp_path, "hull", "convex", 2, seeds=())
        cfg = ExperimentConfig(tmp_path, "hull", "subunit", 2, seeds=(1,))
        assert cfg.weight_type == "subunit_conic"

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"got \(1, -1\)"):
            ExperimentConfig(tmp_path, "kmeans", "convex", 2, seeds=(1, -1))

    def test_repeated_seed_rejected(self, tmp_path):
        # a repeated seed would count twice in its configuration's point
        with pytest.raises(ValueError, match=r"^seed 1 is repeated in \(1, 2, 1\)$"):
            ExperimentConfig(tmp_path, "kmeans", "convex", 2, seeds=(1, 2, 1))


@pytest.fixture()
def mini_gep_copy(tmp_path, mini_gep_path):
    dest = tmp_path / "mini-gep"
    shutil.copytree(mini_gep_path, dest)
    return dest


class TestRunExperiment:
    def test_exact_reduction_zero_regret(self, synthetic_gep_path, tmp_path):
        D = 12
        config = ExperimentConfig(synthetic_gep_path, "hull", "dirac", D,
                                  seeds=(1,), cache_dir=tmp_path / "cache")
        record = run_experiment(config)[0]
        assert record.error == ""
        assert abs(record.regret_pct) <= 1e-4
        assert record.proj_err_max <= 1e-9

    def test_single_period_dataset(self, mini_gep_copy):
        for method in ("kmeans", "kmedoids", "hull"):
            config = ExperimentConfig(mini_gep_copy, method, "convex", 1, seeds=(3,))
            record = run_experiment(config)[0]
            assert record.error == ""
            assert record.regret_pct == pytest.approx(0.0, abs=1e-4)
            assert record.objective_fixed == pytest.approx(23.0, abs=1e-8)

    def test_deterministic_modulo_timing(self, synthetic_gep_path, tmp_path):
        config = ExperimentConfig(synthetic_gep_path, "kmeans", "convex", 3,
                                  seeds=(7, 8), cache_dir=tmp_path / "cache")
        first = run_experiment(config)
        second = run_experiment(config)
        assert [record_key(r) for r in first] == [record_key(r) for r in second]

    @pytest.mark.parametrize("weight_type", ["dirac", "convex", "subunit_conic", "conic"])
    def test_seed_only_affects_clustering(self, synthetic_gep_path, tmp_path, weight_type):
        config = ExperimentConfig(synthetic_gep_path, "hull", weight_type, 3,
                                  seeds=(1, 2), cache_dir=tmp_path / "cache")
        records = run_experiment(config)
        # no hull type reads the seed, so both records coincide
        assert record_key(replace(records[0], seed=0)) == \
            record_key(replace(records[1], seed=0))

    def test_stage_failure_recorded_not_raised(self, tmp_path):
        (tmp_path / "empty").mkdir()
        config = ExperimentConfig(tmp_path / "empty", "kmeans", "convex", 2, seeds=(1, 2))
        records = run_experiment(config)
        assert len(records) == 2
        assert all(f"{tmp_path / 'empty' / 'config.json'}: file not found" in r.error
                   for r in records)
        assert all(r.regret_pct is None for r in records)

    def test_loads_once_per_config(self, synthetic_gep_path, tmp_path, monkeypatch):
        # k-means depends on the seed, so the per-seed records differ; each
        # must equal the record of a single-seed run
        calls = []
        load = harness.load_system
        monkeypatch.setattr(harness, "load_system", lambda path: calls.append(path) or load(path))
        config = ExperimentConfig(synthetic_gep_path, "kmeans", "convex", 3,
                                  seeds=(1, 2, 3), cache_dir=tmp_path / "cache")
        records = run_experiment(config)
        assert len(calls) == 1
        assert len({r.t_read for r in records}) == 1 and records[0].t_read > 0
        singles = [run_experiment(replace(config, seeds=(seed,)))[0] for seed in (1, 2, 3)]
        assert [record_key(r) for r in records] == [record_key(r) for r in singles]

    def test_n_rp_failure_carries_the_read(self, mini_gep_copy, tmp_path):
        config = ExperimentConfig(mini_gep_copy, "kmeans", "dirac", 99, seeds=(1, 2),
                                  cache_dir=tmp_path / "cache")
        records = run_experiment(config)
        assert all("representatives 99 outside 1..1" in r.error for r in records)
        assert [r.mode for r in records] == ["gep"] * 2
        assert all(r.t_read > 0 for r in records) and len({r.t_read for r in records}) == 1

    def test_validation_failure_recorded(self, mini_gep_copy):
        demand = (mini_gep_copy / "demand.csv").read_text().replace("1.0", "1.7")
        (mini_gep_copy / "demand.csv").write_text(demand)
        config = ExperimentConfig(mini_gep_copy, "kmeans", "convex", 1, seeds=(1, 2, 3))
        records = run_experiment(config)
        assert [r.seed for r in records] == [1, 2, 3]
        assert len({r.error for r in records}) == 1
        assert "DataError" in records[0].error and "outside" in records[0].error

    def test_full_solve_failure_kept_for_later_seeds(self, mini_gep_copy, tmp_path,
                                                     monkeypatch):
        # the full solve, the first solve of a run, fails
        solves = []

        def failing_full_solve(model, handle=None, basis=None):
            solves.append(model)
            if len(solves) == 1:
                raise SolverNumericalError("solver failed: full")
            return solve(model, handle, basis)

        calls = []
        solve_full = harness.solve_full_cached
        monkeypatch.setattr(harness, "solve", failing_full_solve)
        monkeypatch.setattr(harness, "solve_full_cached",
                            lambda *args: calls.append(args) or solve_full(*args))
        config = ExperimentConfig(mini_gep_copy, "kmeans", "dirac", 1, seeds=(1, 2, 3),
                                  cache_dir=tmp_path / "cache")
        records = run_experiment(config)
        assert len({r.error for r in records}) == 1
        assert records[0].error.startswith("SolverNumericalError")
        assert len(calls) == 1
        assert len(solves) == 1

    def test_unwritable_cache_keeps_the_full_solve(self, mini_gep_copy, tmp_path,
                                                   monkeypatch):
        # a regular file where the cache directory should be: the cache
        # write fails after the full solve, which every seed still uses
        cache_file = tmp_path / "cache"
        cache_file.write_text("")
        calls = []
        solve_full = harness.solve_full_cached
        monkeypatch.setattr(harness, "solve_full_cached",
                            lambda *args: calls.append(args) or solve_full(*args))
        config = ExperimentConfig(mini_gep_copy, "kmeans", "dirac", 1, seeds=(1, 2, 3),
                                  cache_dir=cache_file)
        with pytest.warns(UserWarning, match="full solve not cached in .*cache"):
            records = run_experiment(config)
        assert [r.error for r in records] == [""] * 3
        assert all(r.regret_pct is not None for r in records)
        assert len(calls) == 1
        assert cache_file.read_text() == ""

    def test_full_build_failure_kept_for_later_seeds(self, mini_gep_copy, tmp_path,
                                                     monkeypatch):
        calls = []

        def failing_build(system):
            calls.append(system)
            raise RuntimeError("full build failed")

        monkeypatch.setattr(harness, "build_full_model", failing_build)
        config = ExperimentConfig(mini_gep_copy, "kmeans", "dirac", 1, seeds=(1, 2, 3),
                                  cache_dir=tmp_path / "cache")
        records = run_experiment(config)
        assert [r.error for r in records] == ["RuntimeError: full build failed"] * 3
        assert len(calls) == 1

    def test_full_solve_once_before_clustering(self, synthetic_gep_path, tmp_path,
                                               monkeypatch):
        calls = []
        solve_full, cluster = harness.solve_full_cached, harness.cluster_matrix
        monkeypatch.setattr(harness, "solve_full_cached",
                            lambda *args: calls.append("full") or solve_full(*args))
        monkeypatch.setattr(harness, "cluster_matrix",
                            lambda *args: calls.append("cluster") or cluster(*args))
        for method in ("kmeans", "hull"):
            calls.clear()
            config = ExperimentConfig(synthetic_gep_path, method, "convex", 3,
                                      seeds=(1, 2, 3), cache_dir=tmp_path / "cache")
            records = run_experiment(config)
            assert [r.error for r in records] == [""] * 3
            assert calls == ["full", "cluster", "cluster", "cluster"]

    def test_full_build_failure_gives_every_seed_the_set_up(self, mini_gep_copy, tmp_path,
                                                            monkeypatch):
        calls = []

        def failing_build(system):
            calls.append(system)
            raise RuntimeError("full build failed")

        clustered = []
        monkeypatch.setattr(harness, "build_full_model", failing_build)
        monkeypatch.setattr(harness, "cluster_matrix", lambda *args: clustered.append(args))
        config = ExperimentConfig(mini_gep_copy, "kmeans", "dirac", 1, seeds=(1, 2, 3),
                                  cache_dir=tmp_path / "cache")
        records = run_experiment(config)
        assert [r.error for r in records] == ["RuntimeError: full build failed"] * 3
        assert [r.mode for r in records] == ["gep"] * 3
        assert all(r.t_read > 0 for r in records) and len({r.t_read for r in records}) == 1
        assert all(r.t_cluster == 0.0 and r.objective_reduced is None for r in records)
        assert clustered == []
        assert len(calls) == 1

    def test_full_solve_cached_on_disk(self, mini_gep_copy, tmp_path):
        cache_dir = tmp_path / "cache"
        config = ExperimentConfig(mini_gep_copy, "kmeans", "dirac", 1,
                                  seeds=(1,), cache_dir=cache_dir)
        run_experiment(config)
        cached = list(cache_dir.glob("full_*.npz"))
        assert len(cached) == 1
        assert list(cache_dir.iterdir()) == cached  # no temporary file left
        stamp = cached[0].stat().st_mtime_ns
        records = run_experiment(config)
        assert cached[0].stat().st_mtime_ns == stamp  # reused, not rewritten
        assert records[0].objective_full == pytest.approx(23.0)

    def test_unreadable_cache_file_is_a_miss(self, mini_gep_copy, tmp_path):
        cache_dir = tmp_path / "cache"
        config = ExperimentConfig(mini_gep_copy, "kmeans", "dirac", 1,
                                  seeds=(1,), cache_dir=cache_dir)
        run_experiment(config)  # a missing file is a miss
        [cached] = cache_dir.glob("full_*.npz")
        raw = cached.read_bytes()
        with np.load(cached) as saved:
            arrays = dict(saved)
        x, columns, rows = arrays["x"], arrays["columns"], arrays["rows"]
        old_json = json.dumps({"status": "optimal", "objective": 23.0, "x": x.tolist(),
                               "solve_time": 0.0, "iterations": 1,
                               "basis": ["".join(map(str, c.tolist())) for c in (columns, rows)]})
        broken = {"empty": b"", "not a zip": b"not a zip file", "truncated": raw[: len(raw) // 2],
                  "old JSON": old_json.encode()}
        # each array left out, and arrays that do not fit the model
        for name in arrays:
            broken[f"no {name}"] = {k: v for k, v in arrays.items() if k != name}
        for name, array in (("x", x), ("columns", columns), ("rows", rows)):
            broken[f"short {name}"] = {**arrays, name: array[:-1]}
            broken[f"long {name}"] = {**arrays, name: np.append(array, array[:1])}
        for code in (5, -1):
            broken[f"status code {code}"] = {**arrays, "rows": np.full_like(rows, code)}
        for case, content in broken.items():
            if isinstance(content, bytes):
                cached.write_bytes(content)
            else:
                np.savez(cached, **content)
            record = run_experiment(config)[0]
            assert record.error == "", case
            assert record.objective_full == pytest.approx(23.0), case
            # re-solved and overwritten
            with np.load(cached) as rewritten:
                assert dict(rewritten).keys() == arrays.keys(), case
                for name, array in arrays.items():
                    np.testing.assert_array_equal(rewritten[name], array, err_msg=case)

    def test_cache_file_with_a_solve_time_is_a_hit(self, mini_gep_copy, tmp_path):
        # files written before the solve time was dropped hold one more array
        cache_dir = tmp_path / "cache"
        config = ExperimentConfig(mini_gep_copy, "kmeans", "dirac", 1,
                                  seeds=(1,), cache_dir=cache_dir)
        run_experiment(config)
        [cached] = cache_dir.glob("full_*.npz")
        with np.load(cached) as saved:
            arrays = dict(saved)
        assert "solve_time" not in arrays
        np.savez(cached, **arrays, solve_time=0.5)
        assert run_experiment(config)[0].objective_full == pytest.approx(23.0)
        with np.load(cached) as reread:
            assert float(reread["solve_time"]) == 0.5  # read, not rewritten

    def test_old_json_cache_file_ignored(self, mini_gep_copy, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        key = model_key(build_full_model(load_system(mini_gep_copy)), SolverHandle())
        old = cache_dir / f"full_{key}.json"
        old.write_text(json.dumps({"status": "optimal", "objective": 99.0, "x": [0.0],
                                   "solve_time": 0.0, "iterations": 0, "basis": ["0", "1"]}))
        config = ExperimentConfig(mini_gep_copy, "kmeans", "dirac", 1,
                                  seeds=(1,), cache_dir=cache_dir)
        assert run_experiment(config)[0].objective_full == pytest.approx(23.0)
        assert sorted(path.name for path in cache_dir.iterdir()) == [f"full_{key}.json",
                                                                      f"full_{key}.npz"]
        assert json.loads(old.read_text())["objective"] == 99.0

    def test_cache_round_trip_keeps_the_basis(self, synthetic_p2x_path, tmp_path):
        system = load_system(synthetic_p2x_path)
        model = build_full_model(system)
        args = (model, synthetic_p2x_path, system.mode, SolverHandle(), tmp_path / "cache")
        solved = solve_full_cached(*args)
        cached = solve_full_cached(*args)
        assert cached == solved  # status, objective, solve time, iterations
        assert cached.x.tobytes() == solved.x.tobytes()
        assert cached.iterations == solved.iterations
        for read, written in zip(basis_codes(cached.basis), basis_codes(solved.basis)):
            np.testing.assert_array_equal(read, written)
        [cache_file] = (tmp_path / "cache").glob("full_*.npz")
        with np.load(cache_file) as saved:
            assert (saved["columns"].dtype, saved["rows"].dtype) == (np.int8, np.int8)

    @pytest.mark.parametrize("fixture", ["synthetic_gep_path", "synthetic_p2x_path"],
                             ids=["gep", "p2x"])
    def test_cached_basis_starts_like_the_solved_one(self, request, tmp_path, fixture):
        # a cache miss starts the fixed solves from HiGHS's own basis, a hit
        # from one built from the file: the records and the solves agree
        path = request.getfixturevalue(fixture)
        config = ExperimentConfig(path, "kmeans", "dirac", 3, seeds=(1, 2),
                                  cache_dir=tmp_path / "records")
        miss, hit = run_experiment(config), run_experiment(config)
        assert [r.error for r in miss] == ["", ""]
        assert [record_key(r) for r in hit] == [record_key(r) for r in miss]

        system = load_system(path)
        full = build_full_model(system)
        args = (full, path, system.mode, SolverHandle(), tmp_path / "cache")
        solved, cached = solve_full_cached(*args), solve_full_cached(*args)
        cm = build_clustering_matrix(system)
        selection = cluster_matrix(cm.values, "hull", "conic", 3, seed=1)
        weights = fit_weights(selection.rep_matrix, cm.values, "conic")
        reduced_model = build_model(system, extract_rep_profiles(system, selection, cm), weights)
        fixed = fix_decisions(full, reduced_model, solve(reduced_model))
        from_solved, from_cached = (solve(fixed, basis=s.basis) for s in (solved, cached))
        assert from_cached.status == from_solved.status == "optimal"
        assert from_cached.iterations == from_solved.iterations
        assert from_cached.objective == from_solved.objective

    def test_fixed_solve_timed_outside_total(self, mini_gep_copy, tmp_path):
        config = ExperimentConfig(mini_gep_copy, "kmeans", "dirac", 1,
                                  seeds=(1,), cache_dir=tmp_path / "cache")
        record = run_experiment(config)[0]
        assert record.t_fixed_solve > 0
        assert record.total_time == (record.t_read + record.t_cluster + record.t_fit
                                     + record.t_build + record.t_solve)

    @pytest.mark.parametrize("fixture,method,weight_type", [
        ("synthetic_gep_path", "kmeans", "dirac"),
        ("synthetic_p2x_path", "hull", "conic"),
    ], ids=["gep", "p2x"])
    def test_fixed_objective_matches_cold_solve(self, request, tmp_path, fixture, method,
                                                weight_type):
        # the warm-started fixed solve reaches the optimum a cold solve of
        # the same fixed model finds
        path = request.getfixturevalue(fixture)
        config = ExperimentConfig(path, method, weight_type, 3, seeds=(1,),
                                  cache_dir=tmp_path / "cache")
        record = run_experiment(config)[0]
        assert record.error == ""
        system = load_system(path)
        cm = build_clustering_matrix(system)
        selection = cluster_matrix(cm.values, method, weight_type, 3, seed=1)
        weights = fit_weights(selection.rep_matrix, cm.values, weight_type)
        reduced_model = build_model(system, extract_rep_profiles(system, selection, cm), weights)
        reduced = solve(reduced_model)
        assert (reduced.objective, reduced.iterations) == (record.objective_reduced,
                                                           record.iterations_reduced)
        cold = solve(fix_decisions(build_full_model(system), reduced_model, reduced))
        assert cold.status == "optimal"
        assert record.objective_fixed == pytest.approx(cold.objective, rel=1e-9, abs=0.0)
        assert record.iterations_fixed < cold.iterations

    def test_model_key_tracks_content(self, mini_gep_copy):
        handle = SolverHandle()
        system = load_system(mini_gep_copy)
        before = model_key(build_full_model(system), handle)
        assert before == model_key(build_full_model(system), handle)
        assert before != model_key(build_full_model(replace(system, mode="p2x")), handle)
        (mini_gep_copy / "demand.csv").write_text(
            "node,carrier,period,hour,value\nn1,el,1,1,0.9\nn1,el,1,2,0.5\n")
        assert before != model_key(build_full_model(load_system(mini_gep_copy)), handle)
        edited = build_full_model(system)
        edited.val[-1] *= 2.0
        assert before != model_key(edited, handle)

    def test_p2x_pipeline(self, synthetic_p2x_path, tmp_path):
        config = ExperimentConfig(synthetic_p2x_path, "hull", "convex", 3,
                                  seeds=(1,), cache_dir=tmp_path / "cache")
        record = run_experiment(config)[0]
        assert record.error == ""
        assert record.mode == "p2x"
        assert record.regret_pct >= -1e-4

    @pytest.mark.parametrize("fixture,method,weight_type,n_rp", [
        ("mini_gep_copy", "kmeans", "dirac", 1),
        ("synthetic_p2x_path", "hull", "conic", 3),
    ], ids=["mini-gep", "p2x"])
    def test_experiment_makes_no_names(self, request, monkeypatch, tmp_path, fixture, method,
                                       weight_type, n_rp):
        # names are for LP export and the solve-full CSV only: the reduced,
        # full and fixed solves, the cache and the pinning run without them
        def no_names(*args):
            raise AssertionError("names were made")

        monkeypatch.setattr(repblend.model, "_names", no_names)
        config = ExperimentConfig(request.getfixturevalue(fixture), method, weight_type, n_rp,
                                  seeds=(1, 2), cache_dir=tmp_path / "cache")
        for _ in range(2):  # a full-solve cache miss, then a hit
            records = run_experiment(config)
            assert [r.error for r in records] == ["", ""]
            assert all(r.regret_pct is not None for r in records)

    def test_projection_error_summary_ordering(self, synthetic_gep_path, tmp_path):
        # same clustering seed and method fix the representative set, so the
        # per-record error summaries must follow the nested weight spaces
        means = {}
        for weight_type in ("dirac", "convex", "subunit", "conic"):
            config = ExperimentConfig(synthetic_gep_path, "kmedoids", weight_type, 3,
                                      seeds=(4,), cache_dir=tmp_path / "cache")
            record = run_experiment(config)[0]
            assert record.error == ""
            means[config.weight_type] = record.proj_err_mean
        assert means["dirac"] >= means["convex"] - 1e-9
        assert means["convex"] >= means["subunit_conic"] - 1e-9
        assert means["subunit_conic"] >= means["conic"] - 1e-9


# the harness globals the benchmark's tracer (perfbench/spans.py) wraps and
# the harness looks up at call time; the harness validates through
# require_valid, so the tracer counts validations at data.validate_profiles
HARNESS_TARGETS = sorted({attr for places in spans.TARGETS.values() for module, attr in places
                          if module == "repblend.harness" and attr != "validate_profiles"})
CLUSTERERS = {"kmeans": "kmeans", "kmedoids": "kmedoids", "hull": "greedy_hull"}


class TestSeedRuns:
    @pytest.mark.parametrize("method,weight_type", [
        ("kmeans", "dirac"), ("kmedoids", "convex"), ("hull", "conic")])
    def test_benchmark_targets_called(self, mini_gep_path, tmp_path, monkeypatch, method,
                                      weight_type):
        calls = collections.Counter()

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in HARNESS_TARGETS:  # an AttributeError if the harness lost the name
            monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
        config = ExperimentConfig(mini_gep_path, method, weight_type, 1, seeds=(1,),
                                  cache_dir=tmp_path / "cache")
        [record] = run_experiment(config)
        assert record.error == ""
        other_clusterers = set(CLUSTERERS.values()) - {CLUSTERERS[method]}
        assert {name for name in HARNESS_TARGETS if not calls[name]} == other_clusterers

    def test_runs_are_lazy_and_match_their_records(self, synthetic_gep_path, tmp_path,
                                                   monkeypatch):
        config = ExperimentConfig(synthetic_gep_path, "kmeans", "convex", 3, seeds=(1, 2, 3),
                                  cache_dir=tmp_path / "cache")
        seeds = []

        def clustering(*args):
            seeds.append(args[-1])
            return cluster_matrix(*args)

        monkeypatch.setattr(harness, "cluster_matrix", clustering)
        runs = iter_seed_runs(config)
        first = next(runs)
        assert seeds == [1]
        runs = [first, *runs]
        assert seeds == [1, 2, 3]
        for run, record in zip(runs, run_experiment(config), strict=True):
            assert run.error is None and record.error == ""
            assert float(run.weights.projection_errors.mean()) == record.proj_err_mean
            assert run.reduced_solution.objective == record.objective_reduced
            assert run.fixed_solution.objective == record.objective_fixed
            assert record_key(run.record()) == record_key(record)

    def test_setup_failure_is_every_runs_error(self, tmp_path):
        config = ExperimentConfig(tmp_path / "none", "kmeans", "dirac", 1, seeds=(1, 2))
        first, second = iter_seed_runs(config)
        assert isinstance(first.error, DataError) and second.error is first.error
        assert first.selection is None and first.full_solution is None
        assert first.record().error == \
            f"DataError: {tmp_path / 'none' / 'config.json'}: file not found"


class TestResultsCsv:
    def make_record(self, **overrides):
        base = ExperimentRecord(
            case="case", mode="gep", method="hull", weight_type="convex",
            n_rp=4, seed=1, t_read=0.01, t_cluster=0.02, t_fit=0.03,
            t_build=0.04, t_solve=0.05, objective_reduced=1.0,
            objective_fixed=107.4, objective_full=100.0, regret_pct=7.4,
            proj_err_mean=0.1, proj_err_max=0.2, iterations_reduced=31, iterations_fixed=7)
        return replace(base, **overrides)

    def test_roundtrip(self, tmp_path):
        records = [self.make_record(),
                   self.make_record(seed=2, regret_pct=None, objective_fixed=None,
                                    objective_full=None, error="RuntimeError: x"),
                   self.make_record(seed=3, regret_pct=None,
                                    error='DataError: bad cell (period 1, hour 2), "quoted"'),
                   # numpy 2 gives repr(np.float64(7.4)) as "np.float64(7.4)"
                   self.make_record(seed=4, regret_pct=np.float64(7.4))]
        path = tmp_path / "results.csv"
        write_results_csv(records, path)
        assert load_records(path) == records

    def test_file_without_fixed_solve_time_reads_as_zero(self, tmp_path):
        record = self.make_record(t_fixed_solve=0.06)
        path = tmp_path / "results.csv"
        write_results_csv([record], path)
        header, row = [line.split(",") for line in path.read_text().splitlines()]
        drop = header.index("t_fixed_solve")
        path.write_text("\n".join(",".join(cells[:drop] + cells[drop + 1:])
                                  for cells in (header, row)) + "\n")
        assert load_records(path) == [replace(record, t_fixed_solve=0.0)]

    def test_file_without_iteration_counts_reads_as_zero(self, tmp_path):
        record = self.make_record()
        path = tmp_path / "results.csv"
        write_results_csv([record], path)
        header, row = [line.split(",") for line in path.read_text().splitlines()]
        keep = [i for i, name in enumerate(header) if not name.startswith("iterations_")]
        assert len(keep) == len(header) - 2
        path.write_text("\n".join(",".join(cells[i] for i in keep)
                                  for cells in (header, row)) + "\n")
        assert load_records(path) == [replace(record, iterations_reduced=0, iterations_fixed=0)]

    def test_blank_cells_read_as_defaults(self, tmp_path):
        record = self.make_record()
        path = tmp_path / "results.csv"
        write_results_csv([record], path)
        header, row = [line.split(",") for line in path.read_text().splitlines()]
        for name in ("t_fit", "objective_full", "iterations_fixed"):
            row[header.index(name)] = ""
        path.write_text(",".join(header) + "\n" + ",".join(row) + "\n")
        assert load_records(path) == [
            replace(record, t_fit=0.0, objective_full=None, iterations_fixed=0)]

    def test_missing_required_column_is_a_data_error(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results_csv([self.make_record()], path)
        header, row = [line.split(",") for line in path.read_text().splitlines()]
        drop = header.index("seed")
        path.write_text("\n".join(",".join(cells[:drop] + cells[drop + 1:])
                                  for cells in (header, row)) + "\n")
        with pytest.raises(DataError, match=r"^results.csv:1: missing columns: seed$"):
            load_records(path)

    @pytest.mark.parametrize("column,text", [("n_rp", "four"), ("n_rp", ""),
                                             ("regret_pct", "x"), ("iterations_fixed", "1.5")])
    def test_unparsable_cell_is_a_data_error(self, tmp_path, column, text):
        path = tmp_path / "results.csv"
        write_results_csv([self.make_record(), self.make_record(seed=2)], path)
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        rows[1][header.index(column)] = text
        path.write_text("\n".join(",".join(cells) for cells in [header] + rows) + "\n")
        with pytest.raises(DataError, match=rf"^results.csv:3: column '{column}': "):
            load_records(path)

    def test_one_record_one_row(self, tmp_path):
        write_results_csv([self.make_record()], tmp_path / "results.csv")
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header + data

    def test_pareto_excludes_dominated(self):
        # one point per configuration, its seeds' median total_time and mean
        # regret: k=4 is fast and good, k=5 slow and bad (dominated), k=6
        # slow and best; k=4's best seed alone would dominate k=6
        fast_good = [self.make_record(seed=seed, t_solve=t_solve, regret_pct=regret)
                     for seed, t_solve, regret in ((1, 0.01, 0.0), (2, 0.02, 2.0), (3, 0.9, 1.0))]
        slow_bad = [self.make_record(n_rp=5, seed=seed, t_solve=5.0, regret_pct=9.0)
                    for seed in (1, 2)]
        slow_best = [self.make_record(n_rp=6, t_solve=5.0, regret_pct=0.5)]
        front = pareto_front(fast_good + slow_bad + slow_best)
        assert front == [
            ("case", "hull", "convex", 4, 3, fast_good[1].total_time, 1.0),
            ("case", "hull", "convex", 6, 1, slow_best[0].total_time, 0.5)]
        assert len(front[0]) == len(PARETO_COLUMNS)

    def test_failed_records_excluded_from_pareto(self):
        # a failed seed does not count in its configuration's point, and a
        # configuration without a finished seed has none
        ok = self.make_record()
        failed = self.make_record(seed=9, t_solve=0.0, regret_pct=None, error="boom")
        none_finished = self.make_record(n_rp=5, t_solve=0.0, regret_pct=None, error="boom")
        assert pareto_front([ok, failed, none_finished]) == [
            ("case", "hull", "convex", 4, 1, ok.total_time, 7.4)]

    def test_repeated_seed_in_a_configuration_refused(self):
        # the same results file given twice; one seed in two configurations
        # is two points
        records = [self.make_record(), self.make_record(seed=2)]
        slower_better = self.make_record(n_rp=5, t_solve=5.0, regret_pct=1.0)
        assert len(pareto_front(records + [slower_better])) == 2
        with pytest.raises(ValueError, match=r"^seed 1 is repeated in configuration "
                                             r"\('case', 'hull', 'convex', 4\)$"):
            pareto_front(records + records)


class TestCli:
    def run(self, *args):
        return CliRunner().invoke(main, [str(a) for a in args])

    def test_validate_ok(self, mini_gep_copy):
        result = self.run("validate", "--data", mini_gep_copy)
        assert result.exit_code == 0
        assert "ok:" in result.output

    def test_validate_reports_violations(self, mini_gep_copy):
        demand = (mini_gep_copy / "demand.csv").read_text().replace("0.5", "1.5")
        (mini_gep_copy / "demand.csv").write_text(demand)
        result = self.run("validate", "--data", mini_gep_copy)
        assert result.exit_code == 2
        assert "outside [0, 1]" in result.output

    def test_validate_missing_dataset(self, tmp_path):
        result = self.run("validate", "--data", tmp_path / "nope")
        assert result.exit_code == 2

    def test_validate_missing_csv_names_its_path(self, mini_gep_copy):
        (mini_gep_copy / "lines.csv").unlink()
        result = self.run("validate", "--data", mini_gep_copy)
        assert result.exit_code == 2
        assert result.output == f"data error: {mini_gep_copy / 'lines.csv'}: file not found\n"

    @pytest.mark.parametrize("file,old,new,location", [
        pytest.param("demand.csv", b"n1,el,1,1,1.0", b"n1,el", ":2", id="short-row"),
        pytest.param("demand.csv", b"n1,el,1,1,1.0", b"n1,el,1,1,1.0,7", ":2", id="long-row"),
        pytest.param("demand.csv", b"n1,el,1,1,1.0", b"n1,el,1,1,1.0\nn1,el,1,1,1.0", ":3",
                     id="repeated-row"),
        pytest.param("assets.csv", b"true,1,0,10,", b"true,1,0,nan,", ":2", id="nan-inv-cost"),
        pytest.param("assets.csv", b"true,1,0,10,", b"true,1,0,inf,", ":2", id="inf-inv-cost"),
        # a negative peak would leave the full model infeasible (exit 3)
        pytest.param("config.json", b'"el": 2.0', b'"el": -2.0', "", id="negative-peak"),
        # a zero year would drop every operating cost
        pytest.param("config.json", b'"hours_per_year": 2', b'"hours_per_year": 0', "",
                     id="zero-year"),
        # int() would read 1.9 periods as 1
        pytest.param("config.json", b'"num_periods": 1,', b'"num_periods": 1.9,', "",
                     id="fractional-periods"),
        pytest.param("demand.csv", b"n1,el,1,1,1.0", b"n1,el,1,1,1." + b"0" * 200_000, ":2",
                     id="long-cell"),
        # a decoding fault has no line: the decoder reads ahead of the rows
        pytest.param("demand.csv", b"n1,el,1,1,1.0", b"n1,el,1,1,1.0\xff\xfe", "",
                     id="not-utf8"),
    ])
    @pytest.mark.parametrize("command", ["validate", "solve-full"])
    def test_bad_cell_exits_2_with_location(self, mini_gep_copy, tmp_path, command,
                                            file, old, new, location):
        path = mini_gep_copy / file
        data = path.read_bytes()
        assert old in data
        path.write_bytes(data.replace(old, new, 1))
        args = ("--out", tmp_path / "sol") if command == "solve-full" else ()
        result = self.run(command, "--data", mini_gep_copy, *args)
        assert result.exit_code == 2
        assert f"data error: {file}{location}: " in result.output

    @pytest.mark.parametrize("command", ["validate", "solve-full"])
    def test_crossed_storage_bounds_exit_2(self, synthetic_gep_path, tmp_path, command):
        # the full model would be infeasible: a data error, not a solver
        # outcome (exit 3)
        root = tmp_path / "gep"
        shutil.copytree(synthetic_gep_path, root)
        (root / "storage_bounds.csv").write_text(
            "asset,period,min_frac,max_frac\nreservoir_n3,3,0.8,0.2\n")
        args = ("--out", tmp_path / "sol") if command == "solve-full" else ()
        result = self.run(command, "--data", root, *args)
        assert result.exit_code == 2, result.output
        assert "data error: storage_bounds.csv:2: min_frac 0.8 > max_frac 0.2" in result.output

    def test_names_with_commas_survive_csv(self, mini_gep_copy, tmp_path):
        # a node "n1,a" and an asset "g1,x" must come back as one cell each
        for file, old, new in (("config.json", '"n1"', '"n1,a"'),
                               ("demand.csv", "\nn1,", '\n"n1,a",'),
                               ("assets.csv", "\ng1,n1,", '\n"g1,x","n1,a",')):
            path = mini_gep_copy / file
            path.write_text(path.read_text().replace(old, new))
        system = load_system(mini_gep_copy)
        assert [a.name for a in system.assets] == ["g1,x"] and system.nodes == ["n1,a"]
        result = self.run("validate", "--data", mini_gep_copy)
        assert result.exit_code == 0, result.output
        out = tmp_path / "out"
        for args in (("cluster", "--n-rp", 1), ("solve-full",)):
            result = self.run(*args, "--data", mini_gep_copy, "--out", out)
            assert result.exit_code == 0, result.output
        expected = {"rep_matrix.csv": build_clustering_matrix(system).row_labels,
                    "full_solution.csv": build_full_model(system).var_names}
        for file, names in expected.items():
            with open(out / file, newline="", encoding="utf-8") as handle:
                header, *rows = csv.reader(handle)
            assert {len(row) for row in rows} == {len(header)}, file
            assert [row[0] for row in rows] == names, file
        assert "demand:n1,a:el:1" in expected["rep_matrix.csv"]
        assert "inv_g1,x" in expected["full_solution.csv"]

    def test_cluster_and_weights_outputs(self, synthetic_gep_path, tmp_path):
        out = tmp_path / "out"
        result = self.run("cluster", "--data", synthetic_gep_path, "--method",
                          "hull", "--weights", "subunit", "--n-rp", 3, "--out", out)
        assert result.exit_code == 0, result.output
        assert (out / "weights.csv").exists()
        assert (out / "reps.csv").exists()
        header = (out / "weights.csv").read_text().splitlines()[0]
        assert header == "period,rep,value"
        for path in out.iterdir():
            assert b"\r" not in path.read_bytes(), path.name

    def test_cluster_writes_the_weights_of_its_space(self, synthetic_gep_path, tmp_path):
        # --weights leaves the kmeans selection as it is and picks the fit
        values = build_clustering_matrix(load_system(synthetic_gep_path)).values
        written = {}
        for weight_type in ("dirac", "conic"):
            out = tmp_path / weight_type
            result = self.run("cluster", "--data", synthetic_gep_path, "--method", "kmeans",
                              "--weights", weight_type, "--n-rp", 3, "--out", out)
            assert result.exit_code == 0, result.output
            written[weight_type] = {path.name: path.read_bytes() for path in out.iterdir()}
        selection_files = ["assignment.csv", "rep_matrix.csv", "reps.csv"]
        assert sorted(written["dirac"]) == sorted(written["conic"]) == [
            *selection_files, "weights.csv"]
        for name in selection_files:
            assert written["dirac"][name] == written["conic"][name], name
        assert written["dirac"]["weights.csv"] != written["conic"]["weights.csv"]
        rows = np.loadtxt(tmp_path / "conic" / "weights.csv", delimiter=",", skiprows=1)
        expected = fit_weights(kmeans(values, 3, seed=1).rep_matrix, values, "conic").values
        np.testing.assert_array_equal(rows[:, 2].reshape(expected.shape), expected)

    @pytest.mark.parametrize("method", ["kmeans", "kmedoids", "hull"])
    def test_cluster_assignment_written(self, synthetic_gep_path, tmp_path, method):
        # every method writes each period's nearest representative
        out = tmp_path / "out"
        result = self.run("cluster", "--data", synthetic_gep_path, "--method",
                          method, "--n-rp", 3, "--out", out)
        assert result.exit_code == 0, result.output
        values = build_clustering_matrix(load_system(synthetic_gep_path)).values
        reps = np.loadtxt(out / "rep_matrix.csv", delimiter=",", skiprows=1,
                          usecols=(1, 2, 3), ndmin=2)
        nearest = [int(np.argmin(np.linalg.norm(reps - values[:, [d]], axis=0)))
                   for d in range(values.shape[1])]
        rows = np.loadtxt(out / "assignment.csv", delimiter=",", skiprows=1,
                          dtype=int, ndmin=2)
        np.testing.assert_array_equal(rows[:, 0], np.arange(1, values.shape[1] + 1))
        np.testing.assert_array_equal(rows[:, 1] - 1, nearest)

    @pytest.mark.parametrize("method", ["kmeans", "kmedoids", "hull"])
    def test_cluster_writes_a_line_per_rep_and_period(self, synthetic_gep_path, tmp_path,
                                                       method):
        out = tmp_path / "out"
        result = self.run("cluster", "--data", synthetic_gep_path, "--method", method,
                          "--n-rp", 4, "--seed", 2, "--out", out)
        assert result.exit_code == 0, result.output
        assert (out / "reps.csv").read_bytes().count(b"\n") == 1 + 4
        assert (out / "assignment.csv").read_bytes().count(b"\n") == 1 + 12

    def test_build_lp(self, mini_gep_copy, tmp_path):
        out = tmp_path / "lp"
        result = self.run("build-lp", "--data", mini_gep_copy, "--n-rp", 1,
                          "--method", "kmedoids", "--weights", "dirac", "--out", out)
        assert result.exit_code == 0
        assert (out / "model.lp").read_text().startswith("\\")

    def test_one_period_reduced_models_are_the_full_model(self, mini_gep_copy, tmp_path):
        # mini-gep has one period, so every reduction at --n-rp 1 writes the
        # full model's LP file byte for byte
        variants = {"kmeans": ("--n-rp", 1, "--method", "kmeans", "--weights", "dirac"),
                    "kmedoids": ("--n-rp", 1, "--method", "kmedoids", "--weights", "conic"),
                    "hull": ("--n-rp", 1, "--method", "hull", "--weights", "subunit"),
                    "full": ("--full",)}
        written = {}
        for name, args in variants.items():
            result = self.run("build-lp", "--data", mini_gep_copy, *args,
                              "--out", tmp_path / name)
            assert result.exit_code == 0, result.output
            written[name] = (tmp_path / name / "model.lp").read_bytes()
        assert [name for name, lp in written.items() if lp != written["full"]] == []

    def test_solve_full(self, mini_gep_copy, tmp_path):
        out = tmp_path / "sol"
        result = self.run("solve-full", "--data", mini_gep_copy, "--out", out)
        assert result.exit_code == 0
        assert "objective: 23.0" in result.output
        assert (out / "full_solution.csv").exists()

    def test_experiment_and_emit_plots(self, mini_gep_copy, tmp_path):
        out = tmp_path / "res"
        result = self.run("experiment", "--data", mini_gep_copy, "--method", "hull",
                          "--weights", "conic", "--n-rp", 1, "--seeds", "1,2", "--out", out)
        assert result.exit_code == 0, result.output
        assert sorted(path.name for path in out.iterdir()) == ["results.csv"]
        records = load_records(out / "results.csv")
        assert len(records) == 2
        result = self.run("emit-plots", out / "results.csv", "--out", out)
        assert result.exit_code == 0, result.output
        assert result.output == f"wrote {out / 'pareto.csv'}\n"
        # both seeds make one point
        header, row = (out / "pareto.csv").read_text().splitlines()
        assert header == ",".join(PARETO_COLUMNS)
        assert row.startswith("mini-gep,hull,conic,1,2,")
        # a second run reads the full solve from the one .npz cache file and
        # writes the same rows, timings aside
        result = self.run("experiment", "--data", mini_gep_copy, "--method", "hull",
                          "--weights", "conic", "--n-rp", 1, "--seeds", "1,2",
                          "--out", tmp_path / "again")
        assert result.exit_code == 0, result.output
        cache = mini_gep_copy / ".full_cache"
        assert len(list(cache.rglob("full_*.npz"))) == 1
        assert list(cache.rglob("*.json")) == []

        def untimed_rows(path):
            with open(path, newline="", encoding="utf-8") as handle:
                return [{k: v for k, v in row.items()
                         if not (k.startswith("t_") or k == "total_time")}
                        for row in csv.DictReader(handle)]

        assert untimed_rows(tmp_path / "again" / "results.csv") == untimed_rows(
            out / "results.csv")

    def test_cache_path_that_is_a_file_keeps_every_seed(self, mini_gep_copy, tmp_path):
        # the full solve cannot be cached, but both seeds are still scored
        # from that one solve
        (mini_gep_copy / ".full_cache").write_text("")
        with pytest.warns(UserWarning, match=r"full solve not cached in .*\.full_cache"):
            result = self.run("experiment", "--data", mini_gep_copy, "--n-rp", 1,
                              "--seeds", "1,2", "--out", tmp_path / "o")
        assert result.exit_code == 0, result.output
        lines = result.stdout.splitlines()
        for seed in (1, 2):
            assert sum(line.startswith(f"seed {seed}: regret") for line in lines) == 1
        assert "AttributeError" not in result.output

    def test_console_script(self, mini_gep_copy, tmp_path):
        # the real entry point: the installed script, or the module where
        # the package is not installed, importing this package either way
        script = shutil.which("repblend")
        command = [script] if script else [sys.executable, "-m", "repblend.cli"]
        package_root = str(Path(repblend.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / "out"
        for args, expected in ((("validate", "--data", mini_gep_copy), "ok: "),
                               (("experiment", "--data", mini_gep_copy, "--n-rp", 1,
                                 "--seeds", 1, "--out", out), "seed 1: regret ")):
            result = subprocess.run([*command, *map(str, args)], env=env, capture_output=True,
                                    text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            assert expected in result.stdout
        assert sorted(path.name for path in out.iterdir()) == ["results.csv"]
        for path in out.iterdir():
            assert b"\r" not in path.read_bytes(), path.name

    def test_emit_plots_leaves_results_csv_as_it_is(self, mini_gep_copy, tmp_path):
        # a hand-edited results.csv, one column dropped and one added, keeps
        # its bytes and gives the same pareto.csv
        out = tmp_path / "res"
        result = self.run("experiment", "--data", mini_gep_copy, "--method", "kmeans",
                          "--weights", "conic", "--n-rp", 1, "--seeds", "1,2", "--out", out)
        assert result.exit_code == 0, result.output
        results = out / "results.csv"
        result = self.run("emit-plots", results, "--out", out)
        assert result.exit_code == 0, result.output
        pareto = (out / "pareto.csv").read_bytes()
        lines = [line.split(",") for line in results.read_text().splitlines()]
        drop = lines[0].index("iterations_fixed")
        edited = "".join(",".join(cells[:drop] + cells[drop + 1:] + [note]) + "\n"
                         for cells, note in zip(lines, ["note", "kept", "kept too"],
                                                strict=True)).encode()
        results.write_bytes(edited)
        (out / "pareto.csv").unlink()
        result = self.run("emit-plots", results, "--out", out)
        assert result.exit_code == 0, result.output
        assert results.read_bytes() == edited
        assert (out / "pareto.csv").read_bytes() == pareto

    def test_emit_plots_one_point_per_config(self, synthetic_gep_path, tmp_path):
        # two configurations over seeds 1 and 2, from two experiment runs:
        # each point is one configuration, its rows' median total_time and
        # mean regret_pct
        data = tmp_path / "gep"
        shutil.copytree(synthetic_gep_path, data)
        paths = []
        for name, method in (("a", "kmeans"), ("b", "hull")):
            result = self.run("experiment", "--data", data, "--method", method,
                              "--weights", "conic", "--n-rp", 3, "--seeds", "1,2",
                              "--out", tmp_path / name)
            assert result.exit_code == 0, result.output
            paths.append(tmp_path / name / "results.csv")
        result = self.run("emit-plots", *paths, "--out", tmp_path / "front")
        assert result.exit_code == 0, result.output
        records = [record for path in paths for record in load_records(path)]
        with open(tmp_path / "front" / "pareto.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert rows and list(rows[0]) == list(PARETO_COLUMNS)
        configs = [(row["method"], row["weight_type"], row["n_rp"]) for row in rows]
        assert len(set(configs)) == len(configs)
        for row in rows:
            first, second = [r for r in records if r.method == row["method"]]
            assert row["seeds"] == "2"
            assert float(row["total_time"]) == (first.total_time + second.total_time) / 2
            assert float(row["regret_pct"]) == (first.regret_pct + second.regret_pct) / 2

    def test_emit_plots_without_results_csv_is_a_data_error(self, tmp_path):
        # each file must exist, not only the first
        write_results_csv([TestResultsCsv().make_record()], tmp_path / "good.csv")
        missing = tmp_path / "results.csv"
        result = self.run("emit-plots", tmp_path / "good.csv", missing, "--out", tmp_path)
        assert result.exit_code == 2
        assert result.output == f"data error: {missing}: file not found\n"
        assert not (tmp_path / "pareto.csv").exists()

    def test_emit_plots_without_seed_column_is_a_data_error(self, tmp_path):
        results = tmp_path / "results.csv"
        write_results_csv([TestResultsCsv().make_record()], results)
        header, row = [line.split(",") for line in results.read_text().splitlines()]
        drop = header.index("seed")
        results.write_text("\n".join(",".join(cells[:drop] + cells[drop + 1:])
                                     for cells in (header, row)) + "\n")
        result = self.run("emit-plots", results, "--out", tmp_path)
        assert result.exit_code == 2
        assert "results.csv:1: missing columns: seed" in result.output

    def test_emit_plots_without_records_is_a_data_error(self, tmp_path):
        # a header-only results.csv has no point to put on a front
        results = tmp_path / "results.csv"
        write_results_csv([], results)
        result = self.run("emit-plots", results, "--out", tmp_path)
        assert result.exit_code == 2
        assert "results.csv: no records to emit" in result.output
        assert not (tmp_path / "pareto.csv").exists()

    def test_repeated_seed_exits_2_before_any_work(self, mini_gep_copy, tmp_path):
        result = self.run("experiment", "--data", mini_gep_copy, "--n-rp", 1,
                          "--seeds", "1,1", "--out", tmp_path / "o")
        assert result.exit_code == 2
        assert result.output == "data error: seed 1 is repeated in (1, 1)\n"
        assert not (tmp_path / "o").exists() and not (mini_gep_copy / ".full_cache").exists()

    def test_experiment_data_error_exit_code(self, tmp_path):
        (tmp_path / "broken").mkdir()
        result = self.run("experiment", "--data", tmp_path / "broken",
                          "--n-rp", 1, "--out", tmp_path / "o")
        assert result.exit_code == 2

    @pytest.mark.parametrize("stage,error,exit_code", [
        ("full", PermissionError("cache not readable"), 1),
        ("full", SolverNumericalError("solver failed: full"), 3),
        ("reduced", SolverNumericalError("solver failed: reduced"), 3),
    ], ids=["os-error", "solver-error", "per-seed-solver-error"])
    def test_experiment_exit_code_follows_the_error(self, mini_gep_copy, tmp_path,
                                                    monkeypatch, stage, error, exit_code):
        # an error in the set-up (the full solve) or in every seed's pass
        # (the reduced solve) sets the exit code
        reduced_models = []

        def failing_full_solve(*args):
            raise error

        def recording_build(*args, **kwargs):
            reduced_models.append(build_model(*args, **kwargs))
            return reduced_models[-1]

        def failing_reduced_solve(model, *args, **kwargs):
            if any(model is reduced for reduced in reduced_models):
                raise error
            return solve(model, *args, **kwargs)

        if stage == "full":
            monkeypatch.setattr(harness, "solve_full_cached", failing_full_solve)
        else:
            monkeypatch.setattr(harness, "build_model", recording_build)
            monkeypatch.setattr(harness, "solve", failing_reduced_solve)
        result = self.run("experiment", "--data", mini_gep_copy, "--n-rp", 1,
                          "--seeds", "1,2", "--out", tmp_path / "o")
        assert result.exit_code == exit_code, result.output
        assert result.output.count(f"{type(error).__name__}: {error}") == 2
        assert len(reduced_models) == (2 if stage == "reduced" else 0)

    def test_bad_seeds_rejected(self, mini_gep_copy):
        result = self.run("experiment", "--data", mini_gep_copy, "--seeds", "a,b")
        assert result.exit_code != 0

    @pytest.mark.parametrize("args", [["cluster", "--seed", "-1"],
                                      ["experiment", "--seeds=-1"],
                                      ["experiment", "--seeds=1,-1"]])
    def test_negative_seed_rejected(self, mini_gep_copy, tmp_path, args):
        result = self.run(*args, "--data", mini_gep_copy, "--method", "kmeans", "--n-rp", 1,
                          "--out", tmp_path / "o")
        assert result.exit_code == 2, result.output
        assert "-1" in result.output and "Traceback" not in result.output
        assert not (tmp_path / "o").exists()

    def test_record_value_error_is_a_data_error(self, mini_gep_copy, tmp_path):
        # zero demand leaves the conic hull's mean column zero: cluster
        # raises the ValueError, experiment records it for every seed, and
        # both exit 2
        demand = mini_gep_copy / "demand.csv"
        demand.write_text(demand.read_text().replace(",1.0\n", ",0.0\n")
                          .replace(",0.5\n", ",0.0\n"))
        flags = ["--data", mini_gep_copy, "--method", "hull", "--weights", "conic", "--n-rp", 1]
        result = self.run("cluster", *flags, "--out", tmp_path / "c")
        assert result.exit_code == 2, result.output
        assert "data error: gnomonic projection undefined" in result.output
        result = self.run("experiment", *flags, "--seeds", "1,2", "--out", tmp_path / "e")
        assert result.exit_code == 2, result.output
        assert result.output.count("ValueError: gnomonic projection undefined") == 2

    @pytest.mark.parametrize("char", list(" -+:/[]*^<>=\\"))
    def test_lp_export_refuses_unwritable_names(self, mini_gep_copy, tmp_path, char):
        # LP readers split or end a name at these characters; the
        # experiment path makes no names, so it still runs
        name = f"gas{char}plant"
        assets = mini_gep_copy / "assets.csv"
        assets.write_text(assets.read_text().replace("\ng1,", f"\n{name},"))
        result = self.run("build-lp", "--data", mini_gep_copy, "--full",
                          "--out", tmp_path / "lp")
        assert result.exit_code == 2, result.output
        assert f"data error: name {name!r} cannot be written in LP format" in result.output
        assert not (tmp_path / "lp" / "model.lp").exists()
        if char == " ":
            result = self.run("experiment", "--data", mini_gep_copy, "--n-rp", 1,
                              "--seeds", "1", "--out", tmp_path / "e")
            assert result.exit_code == 0, result.output

    def test_lp_export_refuses_repeated_row_names(self, mini_gep_copy, tmp_path):
        # node "a" with carrier "b_c" and node "a_b" with carrier "c" both
        # name their balance rows balance_a_b_c_r{rep}_h{hour}
        for file, old, new in (
                ("config.json", '"nodes": ["n1"]', '"nodes": ["a", "a_b"]'),
                ("config.json", '"carriers": ["el"]', '"carriers": ["b_c", "c"]'),
                ("config.json", '{"n1": {"el": 2.0}}', '{"a": {"b_c": 2.0}}'),
                ("demand.csv", "n1,el,", "a,b_c,"),
                ("assets.csv", "g1,n1,producer,,el,", "g1,a,producer,,b_c,")):
            path = mini_gep_copy / file
            assert old in path.read_text()
            path.write_text(path.read_text().replace(old, new))
        result = self.run("build-lp", "--data", mini_gep_copy, "--full",
                          "--out", tmp_path / "lp")
        assert result.exit_code == 2, result.output
        assert "data error: row name 'balance_a_b_c_r1_h1' is not unique" in result.output
        assert not (tmp_path / "lp" / "model.lp").exists()

    @pytest.mark.parametrize("args", [
        ["cluster", "--n-rp", 1], ["build-lp", "--n-rp", 1],
        ["solve-full"], ["experiment", "--n-rp", 1, "--seeds", 1], ["emit-plots"],
    ], ids=lambda args: args[0])
    def test_out_that_is_a_file_exits_2_before_any_work(self, mini_gep_copy, tmp_path, args):
        # the solving commands would otherwise fail only after their solves
        taken = tmp_path / "taken"
        taken.write_text("kept")
        data = [] if args[0] == "emit-plots" else ["--data", mini_gep_copy]
        result = self.run(*args, *data, "--out", taken)
        assert result.exit_code == 2, result.output
        assert f"Directory '{taken}' is a file" in result.output
        assert taken.read_text() == "kept"
        assert not (mini_gep_copy / ".full_cache").exists()

    def test_oversized_rp_count_is_a_data_error(self, mini_gep_copy, tmp_path):
        result = self.run("cluster", "--data", mini_gep_copy, "--n-rp", 99,
                          "--out", tmp_path / "c")
        assert result.exit_code == 2
        assert "outside 1..1" in result.output
        result = self.run("experiment", "--data", mini_gep_copy, "--n-rp", 99,
                          "--seeds", "1,2", "--out", tmp_path / "e")
        assert result.exit_code == 2, result.output
        assert result.output.count("DataError: number of representatives 99 outside 1..1") == 2

    @pytest.mark.parametrize("args", [["solve-full"], ["build-lp", "--full"]])
    def test_full_model_commands_reject_invalid_profiles(self, mini_gep_copy, tmp_path, args):
        demand = (mini_gep_copy / "demand.csv").read_text().replace("0.5", "1.5")
        (mini_gep_copy / "demand.csv").write_text(demand)
        result = self.run(*args, "--data", mini_gep_copy, "--out", tmp_path / "o")
        assert result.exit_code == 2
        assert "profile violations; first: demand" in result.output
        assert not (tmp_path / "o").exists()

    def test_cluster_seed_matches_library(self, synthetic_gep_path, tmp_path):
        values = build_clustering_matrix(load_system(synthetic_gep_path)).values
        written = {}
        for seed in (1, 2):
            out = tmp_path / f"seed{seed}"
            result = self.run("cluster", "--data", synthetic_gep_path, "--method", "kmeans",
                              "--n-rp", 3, "--seed", seed, "--out", out)
            assert result.exit_code == 0, result.output
            written[seed] = {name: (out / name).read_text()
                             for name in ("reps.csv", "rep_matrix.csv", "assignment.csv")}
        assert written[1] != written[2]
        selection = kmeans(values, 3, seed=2)
        assert written[2]["reps.csv"] == "rep,source_period\n1,\n2,\n3,\n"
        rep_rows = [line.split(",")[1:] for line in written[2]["rep_matrix.csv"].splitlines()[1:]]
        np.testing.assert_array_equal(np.array(rep_rows, dtype=float), selection.rep_matrix)
        assign_rows = [line.split(",") for line in written[2]["assignment.csv"].splitlines()[1:]]
        np.testing.assert_array_equal(
            np.array(assign_rows, dtype=int)[:, 1] - 1,
            fit_weights(selection.rep_matrix, values, "dirac").values.argmax(axis=1))

    def test_each_command_takes_only_the_flags_it_reads(self):
        reduction = {"--data", "--method", "--weights", "--n-rp"}
        expected = {
            "validate": {"--data"},
            "cluster": reduction | {"--seed", "--out"},
            "build-lp": reduction | {"--seed", "--out", "--full"},
            "solve-full": {"--data", "--out"},
            "experiment": reduction | {"--seeds", "--out"},
            "emit-plots": {"--out"},
        }
        flags = {name: {opt for param in command.params if param.param_type_name == "option"
                        for opt in param.opts}
                 for name, command in main.commands.items()}
        assert flags == expected
        assert sum(len(f) for f in flags.values()) == 23
        # emit-plots' one argument: the results.csv files it reads
        arguments = {name: [(param.name, param.nargs) for param in command.params
                            if param.param_type_name == "argument"]
                     for name, command in main.commands.items()}
        assert {name: args for name, args in arguments.items() if args} == {
            "emit-plots": [("results", -1)]}
