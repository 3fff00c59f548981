"""Unit tests for the solver adapter and the LP file writer, including a
read-back of the emitted format through HiGHS's own LP reader."""

import ast
import hashlib
import importlib
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize._highspy._core as highspy

import repblend
from conftest import value
from oracles import linprog_solution, pin_by_name
from repblend.data import build_clustering_matrix, extract_rep_profiles, load_system
from repblend.harness import cluster_matrix
from repblend.model import LpModel, build_full_model, build_model, fix_decisions
from repblend.solve import (
    Solution,
    SolverHandle,
    SolverNumericalError,
    basis_codes,
    basis_from_codes,
    solve,
    write_lp_file,
)
from repblend.weights import fit_weights

BASIC = int(highspy.HighsBasisStatus.kBasic)
SOLVE_MODULE = importlib.import_module("repblend.solve")  # the package exports a solve function
HIGHS_CLASS = SOLVE_MODULE.highspy._Highs


class WrappedHighs:
    """A HiGHS instance whose methods a subclass may override; a test puts
    the subclass in place of ``highspy._Highs``."""

    def __init__(self):
        self._highs = HIGHS_CLASS()

    def __getattr__(self, name):
        return getattr(self._highs, name)


def add_var(model: LpModel, name: str, lb: float = 0.0, ub: float = math.inf) -> int:
    """Append one column named ``name``; returns its index."""
    index = model.add_vars((), lb, ub)
    model.name_vars(name, None, "", index)
    return int(index)


def add_row(model: LpModel, name: str, terms, sense: str, rhs: float):
    """Append one row named ``name`` from (column, coefficient) pairs."""
    cols = np.array([col for col, _ in terms], dtype=np.int64)
    model.name_rows(name, None, "", model.add_rows(cols, [val for _, val in terms], sense, rhs))


class TestSolve:
    def test_mini_gep_hand_lp(self, mini_gep_path):
        model = build_full_model(load_system(mini_gep_path))
        solution = solve(model)
        assert solution.status == "optimal"
        assert solution.objective == pytest.approx(23.0, abs=1e-8)
        assert value(model, solution, "inv_g1") == pytest.approx(2.0, abs=1e-8)

    def test_infeasible_when_demand_exceeds_capacity(self, mini_gep_path):
        system = load_system(mini_gep_path)
        next(a for a in system.assets if a.name == "g1").investable = False  # nothing buildable, U0 = 0
        assert solve(build_full_model(system)).status == "infeasible"

    def test_unbounded(self):
        m = LpModel()
        x = add_var(m, "x", lb=-math.inf)
        m.cost[x] = 1.0
        assert solve(m).status == "unbounded"

    @pytest.mark.parametrize("cause", ["lower bound +inf", "infinite coefficient",
                                       "NaN right-hand side"])
    def test_rejected_model_raises(self, cause):
        m = LpModel()
        x = add_var(m, "x", lb=math.inf if cause == "lower bound +inf" else 0.0)
        m.cost[x] = 1.0
        add_row(m, "row", [(x, math.inf if cause == "infinite coefficient" else 1.0)], ">=",
                math.nan if cause == "NaN right-hand side" else 1.0)
        with pytest.raises(SolverNumericalError, match="rejected the model"):
            solve(m)

    def test_highs_gets_the_model_arrays(self, mini_gep_path, monkeypatch):
        # the model holds its rows in passModel's form: nothing is converted
        passed = []

        class Recording(WrappedHighs):
            def passModel(self, *args):
                passed.extend(args)
                return self._highs.passModel(*args)

        monkeypatch.setattr(SOLVE_MODULE.highspy, "_Highs", Recording)
        model = build_full_model(load_system(mini_gep_path))
        assert solve(model).status == "optimal"
        own = (model.lower, model.upper, model.starts, model.col, model.val)
        assert [id(array) for array in passed[9:14]] == [id(array) for array in own]

    def test_solver_breakdown_raises(self, mini_gep_path, monkeypatch):
        # a status that is neither optimal, infeasible nor unbounded is a
        # solver failure, not a solution
        class StoppedEarly(WrappedHighs):
            def getModelStatus(self):
                return highspy.HighsModelStatus.kIterationLimit

        monkeypatch.setattr(SOLVE_MODULE.highspy, "_Highs", StoppedEarly)
        with pytest.raises(SolverNumericalError, match="^solver failed: Iteration limit reached$"):
            solve(build_full_model(load_system(mini_gep_path)))

    @pytest.mark.parametrize("make,message", [
        (lambda: Solution(status="bogus"), "status must be one of"),
        (lambda: SolverHandle(tolerance=0), "^tolerance must be > 0$")],
        ids=["solution-status", "handle-tolerance"])
    def test_bad_value_refused(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_empty_model(self, tmp_path):
        with pytest.raises(ValueError, match="cannot solve a model with no variables"):
            solve(LpModel())
        with pytest.raises(ValueError, match="^cannot write a model with no variables$"):
            write_lp_file(LpModel(), tmp_path / "m.lp")
        assert not (tmp_path / "m.lp").exists()

    def test_constant_rows_without_variables(self):
        # a constant row is refused whether it holds or not
        for sense, rhs in (("==", 5.0), ("==", 0.0), ("<=", -1.0), ("<=", 1.0),
                           (">=", 1.0), (">=", -1.0)):
            m = LpModel()
            add_row(m, "r", [], sense, rhs)
            with pytest.raises(ValueError, match="cannot solve a model with no variables"):
                solve(m)

    def test_no_objective_with_constraints(self):
        m = LpModel()
        x = add_var(m, "x")
        add_row(m, "row", [(x, 1.0)], ">=", 2.0)
        solution = solve(m)
        assert solution.status == "optimal"
        assert solution.objective == 0.0
        assert value(m, solution, "x") >= 2.0 - 1e-9


# dataset fixture and (method, weight type, k) of the reduced models the
# solver tests use
REDUCTIONS = {
    "mini-gep": ("mini_gep_path", ("kmeans", "dirac", 1)),
    "gep": ("synthetic_gep_path", ("hull", "conic", 3)),
    "p2x": ("synthetic_p2x_path", ("kmeans", "conic", 3)),
}


@pytest.fixture(scope="module")
def pipeline_models(request):
    """Per dataset of REDUCTIONS: (mode, full model, full solution with its
    basis, reduced model), built once per module."""
    built = {}

    def get(case):
        if case not in built:
            fixture, (method, weight_type, k) = REDUCTIONS[case]
            system = load_system(request.getfixturevalue(fixture))
            cm = build_clustering_matrix(system)
            selection = cluster_matrix(cm.values, method, weight_type, k, seed=1)
            weights = fit_weights(selection.rep_matrix, cm.values, weight_type)
            full = build_full_model(system)
            reduced = build_model(system, extract_rep_profiles(system, selection, cm), weights)
            built[case] = (system.mode, full, solve(full), reduced)
        return built[case]
    return get


class TestAgainstLinprog:
    """A cold solve is an optimum of the model it was given: it agrees with
    ``scipy.optimize.linprog`` on the objective, and its values satisfy
    every bound and row."""

    @pytest.mark.parametrize("which", ["full", "reduced", "self-fixed"])
    @pytest.mark.parametrize("case", sorted(REDUCTIONS))
    def test_cold_solve_is_repr_equal(self, pipeline_models, case, which):
        # the values are certified, not compared: at a degenerate optimum
        # HiGHS and linprog may return different optimal points
        _, full, full_solution, reduced = pipeline_models(case)
        model = {"full": full, "reduced": reduced,
                 "self-fixed": fix_decisions(full, full, full_solution)}[which]
        solution = full_solution if which == "full" else solve(model)
        objective, _ = linprog_solution(model)  # asserts linprog's optimality
        assert solution.status == "optimal"
        assert solution.objective == pytest.approx(objective, rel=1e-12, abs=0.0)

        x = solution.x
        assert (x.dtype, x.shape) == (np.float64, (model.num_vars,))
        assert model.cost @ x == pytest.approx(solution.objective, rel=1e-12, abs=0.0)
        assert np.all((model.lb <= x) & (x <= model.ub))
        # bincount, not add.reduceat: its sums are in term order
        row = np.repeat(np.arange(model.num_constraints), np.diff(model.starts))
        activity = np.bincount(row, weights=model.val * x[model.col],
                               minlength=model.num_constraints)
        lower, upper = model.lower, model.upper
        excess = np.maximum(lower - activity, activity - upper)
        scale = np.maximum(1.0, np.minimum(np.abs(lower), np.abs(upper)))
        assert np.all(excess <= SolverHandle().tolerance * scale)


class TestWarmStart:
    @pytest.mark.parametrize("case", ["gep", "p2x"])
    def test_every_optimal_solve_returns_its_basis(self, pipeline_models, case):
        _, full, full_solution, reduced = pipeline_models(case)
        first = basis_codes(full_solution.basis)
        again = solve(full)
        for codes, kept in zip(basis_codes(again.basis), first):
            np.testing.assert_array_equal(codes, kept)
        assert again.objective == full_solution.objective
        assert again.x.tobytes() == full_solution.x.tobytes()
        assert [b.size for b in basis_codes(solve(reduced).basis)] == [reduced.num_vars,
                                                                        reduced.num_constraints]
        # a start at the optimum pivots nowhere and comes back unchanged
        for codes, kept in zip(basis_codes(solve(full, basis=full_solution.basis).basis), first):
            np.testing.assert_array_equal(codes, kept)

    @pytest.mark.parametrize("case", ["gep", "p2x"])
    def test_fixed_solve_from_full_basis(self, pipeline_models, case):
        _, full, full_solution, reduced = pipeline_models(case)
        columns, rows = basis_codes(full_solution.basis)
        assert (columns.size, rows.size) == (full.num_vars, full.num_constraints)
        assert int((columns == BASIC).sum() + (rows == BASIC).sum()) == full.num_constraints

        fixed = fix_decisions(full, reduced, solve(reduced))
        cold = solve(fixed)
        warm = solve(fixed, basis=full_solution.basis)
        assert warm.status == cold.status == "optimal"
        assert abs(warm.objective - cold.objective) <= 1e-9 * abs(cold.objective)
        assert warm.iterations < cold.iterations

    @pytest.mark.parametrize("case", ["gep", "p2x"])
    def test_full_solve_from_its_own_basis(self, pipeline_models, case):
        # the basis codes come out, and go back in, in model order
        _, full, full_solution, _ = pipeline_models(case)
        again = solve(full, basis=basis_from_codes(*basis_codes(full_solution.basis)))
        assert again.status == "optimal"
        assert again.iterations == 0
        assert again.objective == full_solution.objective

    @pytest.mark.parametrize("case", ["gep", "p2x"])
    def test_start_basis_of_another_size_rejected(self, pipeline_models, case):
        _, full, full_solution, _ = pipeline_models(case)
        columns, rows = basis_codes(full_solution.basis)
        other_model = pipeline_models("mini-gep")[2].basis
        for basis in (basis_from_codes(columns, rows[:-1]), basis_from_codes(columns[:-1], rows),
                      other_model):
            with pytest.raises(SolverNumericalError, match="rejected the start basis"):
                solve(full, basis=basis)


class TestBasisCodec:
    @pytest.mark.parametrize("case", ["gep", "p2x"])
    def test_codes_are_the_status_values(self, pipeline_models, case):
        basis = pipeline_models(case)[2].basis
        columns, rows = basis_codes(basis)
        assert (columns.dtype, rows.dtype) == (np.int8, np.int8)
        assert columns.tolist() == [status.value for status in basis.col_status]
        assert rows.tolist() == [status.value for status in basis.row_status]
        assert len(set(columns.tolist() + rows.tolist())) > 1

    @pytest.mark.parametrize("case", ["gep", "p2x"])
    def test_round_trip(self, pipeline_models, case):
        basis = pipeline_models(case)[2].basis
        built = basis_from_codes(*basis_codes(basis))
        assert (built.col_status, built.row_status) == (basis.col_status, basis.row_status)
        for codes, kept in zip(basis_codes(built), basis_codes(basis)):
            np.testing.assert_array_equal(codes, kept)

    def test_every_code_and_not_alien(self):
        # marked non-alien as getBasis() returns it, so a start from it
        # needs no alien-basis refactor
        codes = np.arange(5, dtype=np.int8)
        basis = basis_from_codes(codes, codes[::-1])
        assert [status.name for status in basis.col_status] == [
            "kLower", "kBasic", "kUpper", "kZero", "kNonbasic"]
        assert basis.row_status == basis.col_status[::-1]
        assert basis.alien is False
        assert [b.tolist() for b in basis_codes(basis)] == [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0]]
        empty = basis_from_codes(np.zeros(0, np.int8), np.zeros(0, np.int64))
        assert (empty.col_status, empty.row_status, empty.alien) == ([], [], False)

    @pytest.mark.parametrize("codes", [
        np.array([1, 5], np.int8), np.array([-1, 1]), np.array([[1, 0]], np.int8),
        np.int8(1), np.array([1.0, 0.0]),
    ], ids=["above 4", "negative", "matrix", "scalar", "float"])
    @pytest.mark.parametrize("side", ["columns", "rows"])
    def test_bad_codes_rejected(self, codes, side):
        good = np.array([1, 0], np.int8)
        args = (codes, good) if side == "columns" else (good, codes)
        with pytest.raises(ValueError, match="must be a vector of codes 0-4"):
            basis_from_codes(*args)


def test_only_solve_imports_highs():
    # scipy's HiGHS bindings are private and may change with any release:
    # one module speaks to them, and model.py imports no scipy at all.  One
    # module speaks CSV too: data.py reads and writes every file
    imports = {}
    for path in sorted(Path(repblend.__file__).parent.glob("*.py")):
        names = []
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names += [f"{node.module}.{alias.name}" for alias in node.names]
        imports[path.name] = names
    assert {file for file, names in imports.items()
            if any(name.startswith("scipy.optimize._highspy") for name in names)} == {"solve.py"}
    assert [name for name in imports["model.py"] if name.startswith("scipy")] == []
    assert {file for file, names in imports.items() if "csv" in names} == {"data.py"}


class TestPinnedDecisions:
    @pytest.mark.parametrize("case", sorted(REDUCTIONS))
    def test_block_pin_matches_name_pin(self, pipeline_models, case):
        # fix_decisions matches blocks by kind and asset; the oracle matches
        # every pinned column by its name
        mode, full, _, reduced = pipeline_models(case)
        solution = solve(reduced)
        fixed = fix_decisions(full, reduced, solution)
        lb, ub = pin_by_name(full, reduced, solution.x, mode)
        assert fixed.lb.tobytes() == lb.tobytes()
        assert fixed.ub.tobytes() == ub.tobytes()
        assert np.any(ub != full.ub)  # something was pinned


class TestWriteLpFile:
    # sha256 of write_lp_file output for models whose bytes must not change
    # under refactoring.  The reduced hull+conic model depends on the fitted
    # weights and the self-fixed p2x model on the full solution values, so
    # those two also pin the numerics of the fit (numpy) and of HiGHS.
    PINNED = {
        "mini-gep full": "44e2f9e2e27f4fa85e10ed21194805a720e836bfd823144f5a523d9f9a1fdd8f",
        "gep full": "30e5e288bc08610acd19df8c3217911ef2b9d9319d79a26e7d0b63766f6c6c61",
        "gep hull+conic k=3": "8f2d3b91d25161236a202cba4b9231b9f506f2cd1b198cb7d14604af007001fa",
        "p2x full": "e8bd55d9d6cc29df3b147e6d695acf464cbabf93044aeaaa1f56d80c29528012",
        "p2x self-fixed": "db0a9e4debb1bccefa33de05f0bde1c603b27524f0faea5b9a7bf1e02698d3a2",
        "gep 12x1 full": "65e6b2b06a4e9608aeac875f8eaba7e49cf0e6fb67b1f97577668650b507a8b0",
    }

    def test_pinned_lp_bytes(self, pinned_models, tmp_path):
        digests = {}
        for label, model in pinned_models.items():
            write_lp_file(model, tmp_path / "m.lp")
            digests[label] = hashlib.sha256((tmp_path / "m.lp").read_bytes()).hexdigest()
        assert digests == self.PINNED

    def test_pinned_lp_bytes_in_small_chunks(self, pinned_models, tmp_path, monkeypatch):
        # many writes per model; mini-gep's 7 rows end in a partial chunk
        monkeypatch.setattr(SOLVE_MODULE, "_LP_CHUNK_ROWS", 3)
        self.test_pinned_lp_bytes(pinned_models, tmp_path)

    def test_highs_reads_back_pinned_models(self, pinned_models, tmp_path):
        # HiGHS's own LP reader is a parser independent of write_lp_file
        for label, model in pinned_models.items():
            write_lp_file(model, tmp_path / "m.lp")
            highs = highspy._Highs()
            highs.setOptionValue("output_flag", False)
            assert highs.readModel(str(tmp_path / "m.lp")) == highspy.HighsStatus.kOk, label
            assert (highs.getNumCol(), highs.getNumRow()) == \
                (model.num_vars, model.num_constraints), label
            highs.run()
            assert highs.getModelStatus() == highspy.HighsModelStatus.kOptimal, label
            assert highs.getInfo().objective_function_value == \
                pytest.approx(solve(model).objective, rel=1e-9), label

    def test_naming_scheme(self, mini_gep_path, tmp_path):
        system = load_system(mini_gep_path)
        model = build_full_model(system)
        write_lp_file(model, tmp_path / "m.lp")
        text = (tmp_path / "m.lp").read_text()
        inv_vars = {n for n in model.var_names if n.startswith("inv_")}
        assert inv_vars == {"inv_g1"}
        assert "inv_g1" in text
        assert "pout_g1_r1_h2" in text

    @pytest.mark.parametrize("section,columns,rows,repeat", [
        ("column", "xyyx", "rst", "y"), ("row", "xyz", "rssr", "s")])
    def test_repeated_names_refused(self, tmp_path, section, columns, rows, repeat):
        # HiGHS reads a file with a repeated name; other LP readers do not
        m = LpModel()
        for name in columns:
            add_var(m, name)
        for name in rows:
            add_row(m, name, [(0, 1.0)], ">=", 1.0)
        with pytest.raises(ValueError, match=f"^{section} name '{repeat}' is not unique"):
            write_lp_file(m, tmp_path / "m.lp")
        assert not (tmp_path / "m.lp").exists()

    @pytest.mark.parametrize("section,unnamed", [
        ("column", [1]), ("column", [1, 2]), ("row", [0]), ("row", [0, 1])],
        ids=["one-column", "two-columns", "one-row", "two-rows"])
    def test_unnamed_refused(self, tmp_path, section, unnamed):
        # a column or row outside every block has no name to write
        m = LpModel()
        for i in range(3):
            if section == "column" and i in unnamed:
                m.add_vars(())
            else:
                add_var(m, f"x{i}")
            m.cost[i] = 1.0
        for i in range(2):
            if section == "row" and i in unnamed:
                m.add_rows([i], 1.0, ">=", 1.0)
            else:
                add_row(m, f"r{i}", [(i, 1.0)], ">=", 1.0)
        with pytest.raises(ValueError, match=f"^{section} {unnamed[0]} has no name$"):
            write_lp_file(m, tmp_path / "m.lp")
        assert not (tmp_path / "m.lp").exists()

    def test_bounds_section_forms(self, tmp_path):
        m = LpModel()
        add_var(m, "a")                             # default, omitted
        add_var(m, "b", lb=-2.0, ub=3.0)
        add_var(m, "c", lb=-math.inf)               # free
        add_var(m, "d", lb=1.0)
        add_var(m, "e", lb=-math.inf, ub=4.0)
        add_var(m, "f", lb=2.5, ub=2.5)             # fixed
        write_lp_file(m, tmp_path / "m.lp")
        text = (tmp_path / "m.lp").read_text()
        assert " -2 <= b <= 3" in text
        assert " c free" in text
        assert " d >= 1" in text
        assert " -inf <= e <= 4" in text
        assert " f = 2.5" in text
        assert "\n a" not in text.split("Bounds")[1]
        highs = highspy._Highs()
        highs.setOptionValue("output_flag", False)
        assert highs.readModel(str(tmp_path / "m.lp")) == highspy.HighsStatus.kOk
        lp = highs.getLp()
        assert lp.col_names_ == m.var_names
        assert (lp.col_lower_, lp.col_upper_) == (m.lb.tolist(), m.ub.tolist())
