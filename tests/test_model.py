"""Unit tests for LP assembly and decision fixing."""

import shutil
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import period_reps, value
from repblend.clustering import greedy_hull, kmeans, kmedoids
from repblend.data import (
    build_clustering_matrix,
    extract_rep_profiles,
    load_system,
    require_valid,
)
from repblend.model import (
    LpModel,
    build_full_model,
    build_model,
    fix_decisions,
    identity_weights,
)
from repblend.solve import Solution, SolverNumericalError, solve
from repblend.weights import WeightMatrix, fit_weights


def model_rows(model):
    """Every row in order as (name, terms, lower, upper), terms being the
    (variable index, coefficient) pairs in their stored order."""
    starts, cols, vals = model.starts.tolist(), model.col.tolist(), model.val.tolist()
    return [(name, list(zip(cols[a:b], vals[a:b])), lower, upper)
            for name, a, b, lower, upper in zip(model.row_names(), starts[:-1], starts[1:],
                                                model.lower.tolist(), model.upper.tolist())]


def row_coefficients(model):
    """Row name -> {variable name: coefficient}."""
    names = model.var_names
    return {name: {names[i]: v for i, v in terms} for name, terms, _, _ in model_rows(model)}


class TestLpModel:
    def test_repeated_column_refused(self):
        # add_rows appends the terms as given; HiGHS refuses a row that
        # names a column twice
        m = LpModel()
        x = int(m.add_vars(()))
        m.add_rows([x, x], [1.0, 2.0], "<=", 4.0)
        assert model_rows(m)[0][1] == [(x, 1.0), (x, 2.0)]
        with pytest.raises(SolverNumericalError, match="rejected the model"):
            solve(m)

    def test_unknown_index_rejected(self):
        m = LpModel()
        with pytest.raises(ValueError, match="unknown variable"):
            m.add_rows([3], 1.0, "==")

    @pytest.mark.parametrize("what", ["columns", "terms"])
    def test_int32_limit_refused_before_allocating(self, what):
        # HiGHS takes int32 indices; 2**31 of anything would wrap
        m = LpModel()
        m.add_vars((1,))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="at most 2147483647"):
                if what == "columns":
                    m.add_vars((2**31,))
                else:  # a read-only view: 2**31 terms that take no memory
                    m.add_rows(np.broadcast_to(np.int64(0), (2**16, 2**15)), 1.0, "<=")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert (m.num_vars, m.num_constraints, m.val.size) == (1, 0, 0)



class TestBuildModel:
    def test_mini_gep_balance_count(self, mini_gep_path):
        system = load_system(mini_gep_path)
        model = build_full_model(system)
        balance = [n for n in model.row_names() if n.startswith("balance_")]
        assert len(balance) == 2  # |N| * |X| * |R| * |H| = 1*1*1*2

    def test_identity_reduction_is_the_full_model(self, synthetic_gep_path):
        system = load_system(synthetic_gep_path)
        D = system.horizon.num_periods
        full = build_full_model(system)
        reduced = build_model(system, period_reps(system, np.arange(D)), identity_weights(D))
        assert full.var_names == reduced.var_names
        assert full.num_constraints == reduced.num_constraints
        obj_full = solve(full).objective
        obj_reduced = solve(reduced).objective
        assert obj_reduced == pytest.approx(obj_full, rel=1e-9)

    def test_permuted_full_selection_matches_optimum(self, synthetic_gep_path):
        # selecting all periods through the pipeline (in greedy order) must
        # reproduce the full optimum
        system = load_system(synthetic_gep_path)
        cm = build_clustering_matrix(system)
        D = system.horizon.num_periods
        selection = kmedoids(cm.values, D, seed=3)
        weights = fit_weights(selection.rep_matrix, cm.values, "dirac")
        rep = extract_rep_profiles(system, selection, cm)
        reduced = build_model(system, rep, weights)
        assert solve(reduced).objective == pytest.approx(
            solve(build_full_model(system)).objective, rel=1e-6)

    def test_p2x_has_no_investment_variables(self, synthetic_p2x_path):
        system = load_system(synthetic_p2x_path)
        model = build_full_model(system)
        assert not any(n.startswith("inv_") for n in model.var_names)
        assert not any(b.kind == "inv" for b in model.var_blocks)

    def test_p2x_conversion_carries_the_hydrogen_load(self, synthetic_p2x_path):
        # electricity through the electrolyzer undercuts the fallback
        # hydrogen producer at these costs, so the conversion link must be
        # active in the optimum and obey its efficiency balance
        system = load_system(synthetic_p2x_path)
        model = build_full_model(system)
        solution = solve(model)
        assert solution.status == "optimal"
        produced = sum(value(model, solution, k) for k in model.var_names
                       if k.startswith("pout_electrolyzer"))
        assert produced > 1.0
        eta_in, eta_out = 1.0, 0.7
        for r in range(1, system.horizon.num_periods + 1):
            for h in range(1, system.horizon.hours_per_period + 1):
                pin = value(model, solution, f"pin_electrolyzer_n1_r{r}_h{h}")
                pout = value(model, solution, f"pout_electrolyzer_n1_r{r}_h{h}")
                assert eta_in * pin == pytest.approx(pout / eta_out, abs=1e-6)

    def test_gep_mode_emits_investment_variables(self, synthetic_gep_path):
        system = load_system(synthetic_gep_path)
        model = build_full_model(system)
        inv_names = [n for n in model.var_names if n.startswith("inv_")]
        assert inv_names == ["inv_gas_n1", "inv_solar_n2", "inv_wind_n1"]

    def test_dimension_mismatch_rejected(self, synthetic_gep_path):
        system = load_system(synthetic_gep_path)
        cm = build_clustering_matrix(system)
        selection = greedy_hull(cm.values, 3, "convex")
        rep = extract_rep_profiles(system, selection, cm)
        bad_weights = WeightMatrix(np.ones((system.horizon.num_periods, 5)) / 5,
                                   "convex", np.zeros(system.horizon.num_periods))
        with pytest.raises(ValueError, match="representative columns"):
            build_model(system, rep, bad_weights)
        bad_rows = WeightMatrix(np.ones((3, 3)) / 3, "convex", np.zeros(3))
        with pytest.raises(ValueError, match="period rows"):
            build_model(system, rep, bad_rows)

    def test_operational_cost_uses_rep_totals(self, mini_gep_path):
        system = load_system(mini_gep_path)
        # one period, one rep, weight 0.25: cop coefficients scale with the
        # column sum rather than a hard-assignment count
        weights = WeightMatrix(np.array([[0.25]]), "subunit_conic", np.zeros(1))
        model = build_model(system, period_reps(system, [0]), weights)
        coefs = row_coefficients(model)["def_cop"]
        assert coefs["pout_g1_r1_h1"] == pytest.approx(-0.25)

    def test_seasonal_storage_rows(self, synthetic_gep_path):
        system = load_system(synthetic_gep_path)
        model = build_full_model(system)
        D = system.horizon.num_periods
        row_names = model.row_names()
        inter = [n for n in row_names if n.startswith("inter_reservoir_n3")]
        assert len(inter) == D
        for name in ("cyc0_reservoir_n3", "cycend_reservoir_n3", "tether_reservoir_n3"):
            assert any(n == name for n in row_names)
        assert "spill_reservoir_n3_r1_h1" in model.var_names
        assert "borrow_reservoir_n3_r1_h1" in model.var_names
        # battery cycles within the period instead
        assert any(n == "intracyc_battery_n2_r1" for n in row_names)
        assert "sinter_battery_n2_d1" not in model.var_names

    def test_interperiod_ramp_merges_single_hour(self, pinned_models, tmp_path):
        # with one hour per period the first and the last hour of a
        # representative are one variable: its inter-period ramp term is the
        # difference of its weights in period d and d - 1, as HiGHS refuses
        # a row that names a column twice
        from generators import make_gep

        system = load_system(make_gep(tmp_path / "one-hour", 12, 1))
        cm = build_clustering_matrix(system)
        selection = greedy_hull(cm.values, 3, "conic")
        weights = fit_weights(selection.rep_matrix, cm.values, "conic")
        W = weights.values
        assert np.any((W[1:] != 0.0) & (W[:-1] != 0.0))  # weighted in d and d - 1
        reduced = build_model(system, extract_rep_profiles(system, selection, cm), weights)
        coefficients = row_coefficients(reduced)
        for d in range(1, 12):
            up, dn = (coefficients[f"{kind}_gas_n1_d{d + 1}"] for kind in ("irampup", "irampdn"))
            for r in range(3):
                name = f"pout_gas_n1_r{r + 1}_h1"
                if W[d, r] == 0.0 and W[d - 1, r] == 0.0:
                    assert name not in up and name not in dn
                else:
                    assert (up[name], dn[name]) == (W[d, r] - W[d - 1, r], W[d - 1, r] - W[d, r])
        for label, model in {**pinned_models, "gep 12x1 hull+conic k=3": reduced}.items():
            for name, terms, _, _ in model_rows(model):
                assert len({col for col, _ in terms}) == len(terms), (label, name)


class TestTimestepScaling:
    def test_coefficients_carry_timestep_and_annualization(self):
        from conftest import make_system, producer
        from repblend.data import Asset

        tau, hours_per_year = 2.0, 48.0  # D*H = 4 model steps -> W_op = 12
        gen = producer("g", var_cost=7.0, ramp=0.5, unit_capacity=1.0,
                       existing_units=3.0)
        reservoir = Asset(name="r", node="n1", kind="storage_seasonal",
                          carrier_in="el", carrier_out="el", unit_capacity=1.0,
                          existing_units=1.0, eff_in=0.8, eff_out=0.9,
                          storage_cap=10.0, inflow_max=2.0, spill_cost=5.0,
                          borrow_cost=11.0)
        system = make_system(D=2, H=2, assets=[gen, reservoir],
                             inflow={"r": np.full((2, 2), 0.25)},
                             timestep_hours=tau, hours_per_year=hours_per_year)
        model = build_model(system, period_reps(system, np.arange(2)), identity_weights(2))
        w_op = hours_per_year / 4
        rows = row_coefficients(model)
        intra = rows["intra_r_r1_h1"]
        assert intra["pin_r_r1_h1"] == pytest.approx(-0.8 * tau)
        assert intra["pout_r_r1_h1"] == pytest.approx(tau / 0.9)
        assert intra["spill_r_r1_h1"] == 1.0 and intra["borrow_r_r1_h1"] == -1.0
        inflow = next(bounds for name, _, *bounds in model_rows(model) if name == "intra_r_r1_h1")
        assert inflow == pytest.approx([0.25 * 2.0] * 2)
        cop = rows["def_cop"]
        assert cop["pout_g_r1_h1"] == pytest.approx(-w_op * 1.0 * 7.0)
        assert cop["spill_r_r1_h1"] == pytest.approx(-w_op * 1.0 * 5.0 / tau)
        assert cop["borrow_r_r2_h2"] == pytest.approx(-w_op * 1.0 * 11.0 / tau)
        assert rows["rampup_g_r1_h2"]["cap_g"] == pytest.approx(-0.5 * tau)
        assert rows["irampup_g_d2"]["cap_g"] == pytest.approx(-0.5 * tau)


class TestInterPeriodRamping:
    def _two_period_system(self, ramp):
        from conftest import make_system, producer

        # one cheap ramp-limited unit plus an expensive fallback; demand jumps
        # from 2 MW to 10 MW between the two single-hour periods
        cheap = producer("cheap", var_cost=1.0, ramp=ramp, unit_capacity=10.0,
                         existing_units=1.0)
        dear = producer("dear", var_cost=100.0, unit_capacity=10.0,
                        existing_units=1.0)
        demand = {("n1", "el"): np.array([[0.2], [1.0]])}
        return make_system(D=2, H=1, assets=[cheap, dear], demand=demand,
                           hours_per_year=2.0)

    def test_ramp_limit_forces_expensive_unit(self):
        free = solve(build_full_model(self._two_period_system(ramp=None)))
        # unconstrained: cheap serves everything, cost = (2 + 10) * 1
        assert free.objective == pytest.approx(12.0)
        model = build_full_model(self._two_period_system(ramp=0.3))
        limited = solve(model)
        # cheap may move by 3 MW between periods: 2 -> 5, the dear unit
        # covers the remaining 5 MW of the second period
        assert limited.status == "optimal"
        assert value(model, limited, "pout_cheap_r2_h1") == pytest.approx(5.0, abs=1e-6)
        assert value(model, limited, "pout_dear_r2_h1") == pytest.approx(5.0, abs=1e-6)
        assert limited.objective == pytest.approx(2.0 + 5.0 + 5.0 * 100.0)


class TestBlendedReduction:
    """Hand-checkable case with genuinely fractional weights: period 1 is
    exactly half of period 2, so one representative with rows [0.5] and
    [1.0] reconstructs the data without error."""

    def _system(self, ramp=None):
        from conftest import make_system, producer

        gen = producer("g", var_cost=1.0, unit_capacity=10.0, existing_units=1.0,
                       ramp=ramp)
        demand = {("n1", "el"): np.array([[0.4], [0.8]])}
        return make_system(D=2, H=1, assets=[gen], demand=demand, hours_per_year=2.0)

    def _reduced(self, system):
        weights = WeightMatrix(np.array([[0.5], [1.0]]), "convex", np.zeros(2))
        return build_model(system, period_reps(system, [1]), weights)

    def test_weighted_cost_matches_full_model(self):
        system = self._system()
        # full: 4 MWh + 8 MWh at cost 1; reduced: rep dispatch 8 MWh taken
        # 1.5 times (the column sum of the weights)
        full = solve(build_full_model(system))
        model = self._reduced(system)
        reduced = solve(model)
        assert full.objective == pytest.approx(12.0)
        assert reduced.objective == pytest.approx(12.0)
        assert value(model, reduced, "pout_g_r1_h1") == pytest.approx(8.0)

    def test_blended_interperiod_ramp_is_literal(self):
        # the cross-period ramp couples the single representative to itself
        # through the two weight rows: |1.0*p - 0.5*p| <= ramp * cap
        tight = solve(self._reduced(self._system(ramp=0.04)))  # 0.4 < 4 MW jump
        assert tight.status == "infeasible"
        loose = solve(self._reduced(self._system(ramp=0.5)))  # 5 >= 4 MW jump
        assert loose.status == "optimal"
        assert loose.objective == pytest.approx(12.0)


class TestInterPeriodReconstruction:
    def test_reduced_inter_levels_are_the_blended_reconstruction(self, synthetic_p2x_path):
        # the reduced model carries inter-period levels on every base period;
        # they must equal the cumulative weighted intra-period deltas, which
        # is what decision fixing relies on
        system = load_system(synthetic_p2x_path)
        cm = build_clustering_matrix(system)
        selection = greedy_hull(cm.values, 3, "convex")
        weights = fit_weights(selection.rep_matrix, cm.values, "convex")
        rep = extract_rep_profiles(system, selection, cm)
        model = build_model(system, rep, weights)
        solution = solve(model)
        assert solution.status == "optimal"
        name = "reservoir_n2"
        H = system.horizon.hours_per_period
        level = next(a for a in system.assets if a.name == name).initial_storage
        for d in range(system.horizon.num_periods):
            level += sum(
                weights.values[d, r]
                * (value(model, solution, f"sintra_{name}_r{r + 1}_h{H}")
                   - value(model, solution, f"sintra0_{name}_r{r + 1}"))
                for r in range(weights.n_rp))
            assert value(model, solution, f"sinter_{name}_d{d + 1}") == \
                pytest.approx(level, abs=1e-6)


class TestFixDecisions:
    def test_self_fix_reproduces_optimum_gep(self, synthetic_gep_path):
        system = load_system(synthetic_gep_path)
        full = build_full_model(system)
        solution = solve(full)
        fixed = fix_decisions(full, full, solution)
        assert solve(fixed).objective == pytest.approx(solution.objective, rel=1e-8)

    def test_self_fix_reproduces_optimum_p2x(self, synthetic_p2x_path):
        system = load_system(synthetic_p2x_path)
        full = build_full_model(system)
        solution = solve(full)
        fixed = fix_decisions(full, full, solution)
        sinter = np.array([n.startswith("sinter_") for n in full.var_names])
        assert sinter.any()
        np.testing.assert_array_equal(fixed.lb == fixed.ub, sinter)
        np.testing.assert_array_equal(fixed.lb[~sinter], full.lb[~sinter])
        np.testing.assert_array_equal(fixed.ub[~sinter], full.ub[~sinter])
        assert solve(fixed).objective == pytest.approx(solution.objective, rel=1e-8)

    def test_fixing_leaves_the_full_model_untouched(self, synthetic_p2x_path):
        system = load_system(synthetic_p2x_path)
        full = build_full_model(system)
        lb, ub = full.lb.copy(), full.ub.copy()
        solution = solve(full)
        pinned = [i for i, n in enumerate(full.var_names) if n.startswith("sinter_")]
        first = fix_decisions(full, full, solution)
        at_zero = Solution(status="optimal", objective=0.0, x=np.zeros(full.num_vars))
        second = fix_decisions(full, full, at_zero)
        np.testing.assert_array_equal(full.lb, lb)
        np.testing.assert_array_equal(full.ub, ub)
        levels = np.clip([value(full, solution, full.var_names[i]) for i in pinned],
                         lb[pinned], ub[pinned])
        np.testing.assert_array_equal(first.lb[pinned], levels)
        np.testing.assert_array_equal(first.ub[pinned], levels)
        np.testing.assert_array_equal(second.lb[pinned], np.clip(0.0, lb[pinned], ub[pinned]))
        # the two fixes are independent of each other and of the full model
        first.lb[:] = -1.0
        first.ub[:] = -1.0
        np.testing.assert_array_equal(second.ub[pinned], second.lb[pinned])
        np.testing.assert_array_equal(full.lb, lb)
        np.testing.assert_array_equal(full.ub, ub)
        # rows are shared, not copied
        assert first.val is full.val and second.starts is full.starts

    def test_zero_investment_is_infeasible_when_demand_exceeds_existing(self, mini_gep_path):
        system = load_system(mini_gep_path)
        full = build_full_model(system)
        zero = Solution(status="optimal", objective=0.0, x=np.zeros(full.num_vars))
        assert value(full, zero, "inv_g1") == 0.0
        fixed = fix_decisions(full, full, zero)
        assert solve(fixed).status == "infeasible"

    def test_first_stage_follows_the_mode(self, mini_gep_path):
        system = load_system(mini_gep_path)
        full = build_full_model(system)
        solution = solve(full)
        assert full.first_stage == "inv"
        assert fix_decisions(full, full, solution).first_stage == "inv"
        assert build_full_model(replace(system, mode="p2x")).first_stage == "sinter"
        assert LpModel().first_stage is None

    def test_models_of_two_formulations_rejected(self, mini_gep_path):
        system = load_system(mini_gep_path)
        gep = build_full_model(system)
        p2x = build_full_model(replace(system, mode="p2x"))
        for full, reduced, message in (
                (gep, p2x, "first stage is inv, the reduced model's is sinter"),
                (p2x, gep, "first stage is sinter, the reduced model's is inv")):
            solution = Solution(status="optimal", objective=0.0, x=np.zeros(reduced.num_vars))
            with pytest.raises(ValueError, match=message):
                fix_decisions(full, reduced, solution)

    def test_model_without_first_stage_rejected(self):
        full = LpModel()
        full.name_vars("inv", "g1", "", full.add_vars(()))
        solution = Solution(status="optimal", objective=0.0, x=np.zeros(1))
        with pytest.raises(ValueError, match="the full model's first stage is None"):
            fix_decisions(full, full, solution)

    def test_missing_block_rejected(self, mini_gep_path):
        full = build_full_model(load_system(mini_gep_path))
        reduced = LpModel()
        reduced.first_stage = "inv"
        solution = Solution(status="optimal", objective=0.0, x=np.zeros(0))
        with pytest.raises(ValueError, match=r"no inv block of asset 'g1' shaped \(\)$"):
            fix_decisions(full, reduced, solution)

    def test_block_of_another_shape_rejected(self, mini_gep_path):
        full = build_full_model(load_system(mini_gep_path))
        reduced = LpModel()
        reduced.first_stage = "inv"
        reduced.name_vars("inv", "g1", "d", reduced.add_vars((2,)))
        solution = Solution(status="optimal", objective=0.0, x=np.zeros(2))
        with pytest.raises(ValueError, match=r"no inv block of asset 'g1' shaped \(\)$"):
            fix_decisions(full, reduced, solution)

    def test_non_optimal_solution_rejected(self, mini_gep_path):
        system = load_system(mini_gep_path)
        full = build_full_model(system)
        with pytest.raises(ValueError, match="not optimal"):
            fix_decisions(full, full, Solution(status="infeasible"))

    def test_fixing_cannot_improve_objective(self, synthetic_gep_path):
        system = load_system(synthetic_gep_path)
        cm = build_clustering_matrix(system)
        full = build_full_model(system)
        benchmark = solve(full).objective
        for n_rp in (2, 5):
            selection = greedy_hull(cm.values, n_rp, "convex")
            weights = fit_weights(selection.rep_matrix, cm.values, "convex")
            rep = extract_rep_profiles(system, selection, cm)
            reduced = build_model(system, rep, weights)
            reduced_solution = solve(reduced)
            assert reduced_solution.status == "optimal"
            fixed_solution = solve(fix_decisions(full, reduced, reduced_solution))
            assert fixed_solution.objective >= benchmark * (1 - 1e-6)


class TestBlendFeasibilityPreservation:
    def test_subunit_blend_respects_availability_capped_capacity(self, synthetic_gep_path):
        # reconstructed base-period production from a sub-unit blend stays
        # within every bound the representatives satisfy jointly: here the
        # sharpest shared bound is capacity times the best availability any
        # representative sees in that hour
        system = load_system(synthetic_gep_path)
        cm = build_clustering_matrix(system)
        selection = greedy_hull(cm.values, 4, "convex_null")
        weights = fit_weights(selection.rep_matrix, cm.values, "subunit_conic")
        rep = extract_rep_profiles(system, selection, cm)
        model = build_model(system, rep, weights)
        solution = solve(model)
        assert solution.status == "optimal"
        D = system.horizon.num_periods
        H = system.horizon.hours_per_period
        for g in system.producers:
            cap = value(model, solution, f"cap_{g.name}")
            avail = rep.profile("availability", g.name)
            for d in range(D):
                for h in range(H):
                    blended = sum(
                        weights.values[d, r]
                        * value(model, solution, f"pout_{g.name}_r{r + 1}_h{h + 1}")
                        for r in range(weights.n_rp))
                    shared_bound = cap * (avail[:, h].max() if avail is not None else 1.0)
                    assert blended <= shared_bound + 1e-6


class TestNonProducerAvailability:
    """An availability profile on an asset that is not a producer, the p2x
    electrolyzer, is stacked into the clustering matrix, so the reduced
    model of every method caps the asset's output by it."""

    @pytest.fixture(scope="class")
    def system(self, synthetic_p2x_path, tmp_path_factory):
        root = tmp_path_factory.mktemp("data") / "p2x-electrolyzer"
        shutil.copytree(synthetic_p2x_path, root)
        hz = load_system(root).horizon
        D, H = hz.num_periods, hz.hours_per_period
        profile = 0.5 + 0.4 * np.sin(np.arange(D * H) / 3.0).reshape(D, H)
        with open(root / "availability.csv", "a", encoding="utf-8") as handle:
            for (d, h), v in np.ndenumerate(profile):
                handle.write(f"electrolyzer_n1,{d + 1},{h + 1},{float(v)!r}\n")
        return require_valid(load_system(root))

    @staticmethod
    def profile_rows(cm):
        """Hour -> matrix row of the electrolyzer's availability."""
        return {key[2]: i for i, key in enumerate(cm.row_keys)
                if key[:2] == ("availability", "electrolyzer_n1")}

    def test_clustering_matrix_holds_the_profile(self, system):
        cm = build_clustering_matrix(system)
        rows = self.profile_rows(cm)
        H = system.horizon.hours_per_period
        assert sorted(rows) == list(range(1, H + 1))
        np.testing.assert_array_equal(cm.values[[rows[h] for h in range(1, H + 1)]],
                                      system.availability["electrolyzer_n1"].T)

    def test_kmeans_reduced_model_caps_output(self, system):
        cm = build_clustering_matrix(system)
        selection = kmeans(cm.values, 2, seed=1)
        weights = fit_weights(selection.rep_matrix, cm.values, "dirac")
        model = build_model(system, extract_rep_profiles(system, selection, cm), weights)
        coefs = row_coefficients(model)
        rows = self.profile_rows(cm)
        assert rows
        for r in range(2):
            for h, row in rows.items():
                centroid = selection.rep_matrix[row, r]
                assert centroid < 1.0
                assert coefs[f"maxout_electrolyzer_n1_r{r + 1}_h{h}"]["cap_electrolyzer_n1"] \
                    == -centroid
