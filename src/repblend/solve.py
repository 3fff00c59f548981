"""LP solving through an in-process backend, plus deterministic LP-file
export as the portability escape hatch for external solvers."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .model import LpModel, Solution


class SolverError(Exception):
    """Base class for solver failures (distinct from model infeasibility)."""


class SolverUnavailableError(SolverError):
    pass


class SolveTimeLimitError(SolverError):
    pass


class SolverNumericalError(SolverError):
    pass


@dataclass(frozen=True)
class SolverHandle:
    """Backend selection and settings; one handle serves one solve at a time."""

    backend: str = "scipy-highs"
    tolerance: float = 1e-8
    time_limit: float | None = None

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")


def solve(model: LpModel, handle: SolverHandle | None = None) -> Solution:
    """Solve the model, returning objective and all variable values when
    optimal.

    Statuses 'infeasible' and 'unbounded' are regular outcomes; backend
    problems (unknown backend, time limit, numerical breakdown) raise a
    SolverError subclass.
    """
    handle = handle or SolverHandle()
    if handle.backend != "scipy-highs":
        raise SolverUnavailableError(f"unknown backend {handle.backend!r}")
    if model.num_vars == 0:
        return Solution(status="optimal", objective=0.0, values={})

    start = time.perf_counter()
    n = model.num_vars
    c = np.zeros(n)
    for idx, coef in model.objective.items():
        c[idx] = coef

    eq_rows, eq_cols, eq_vals, eq_rhs = [], [], [], []
    ub_rows, ub_cols, ub_vals, ub_rhs = [], [], [], []
    for constr in model.constraints:
        if constr.sense == "==":
            rows, cols, vals, rhs, sign = eq_rows, eq_cols, eq_vals, eq_rhs, 1.0
        elif constr.sense == "<=":
            rows, cols, vals, rhs, sign = ub_rows, ub_cols, ub_vals, ub_rhs, 1.0
        else:  # >= becomes <= with flipped signs
            rows, cols, vals, rhs, sign = ub_rows, ub_cols, ub_vals, ub_rhs, -1.0
        row = len(rhs)
        for idx, coef in constr.terms:
            rows.append(row)
            cols.append(idx)
            vals.append(sign * coef)
        rhs.append(sign * constr.rhs)

    def assemble(rows, cols, vals, rhs):
        if not rhs:
            return None, None
        matrix = sp.csr_matrix((vals, (rows, cols)), shape=(len(rhs), n))
        return matrix, np.array(rhs)

    a_eq, b_eq = assemble(eq_rows, eq_cols, eq_vals, eq_rhs)
    a_ub, b_ub = assemble(ub_rows, ub_cols, ub_vals, ub_rhs)
    bounds = [(v.lb if math.isfinite(v.lb) else None,
               v.ub if math.isfinite(v.ub) else None) for v in model.variables]

    options = {
        "presolve": True,
        "primal_feasibility_tolerance": handle.tolerance,
        "dual_feasibility_tolerance": handle.tolerance,
    }
    if handle.time_limit is not None:
        options["time_limit"] = handle.time_limit

    result = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                     bounds=bounds, method="highs", options=options)
    elapsed = time.perf_counter() - start

    if result.status == 0:
        values = {v.name: float(x) for v, x in zip(model.variables, result.x)}
        return Solution(status="optimal", objective=float(result.fun),
                        values=values, solve_time=elapsed)
    if result.status == 2:
        return Solution(status="infeasible", solve_time=elapsed)
    if result.status == 3:
        return Solution(status="unbounded", solve_time=elapsed)
    if result.status == 1:
        if handle.time_limit is not None:
            raise SolveTimeLimitError(
                f"time limit of {handle.time_limit}s reached: {result.message}")
        raise SolverNumericalError(f"iteration limit reached: {result.message}")
    raise SolverNumericalError(f"solver failed: {result.message}")


def _fmt(value: float) -> str:
    # repr of a float round-trips exactly and is stable across runs
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _terms_text(model: LpModel, terms) -> str:
    if not terms:
        # degenerate all-zero row; keep it explicit so readers see the rhs
        return f"0 {model.variables[0].name}"
    parts = []
    for idx, coef in terms:
        sign = "+" if coef >= 0 else "-"
        parts.append(f"{sign} {_fmt(abs(coef))} {model.variables[idx].name}")
    return " ".join(parts)


def write_lp_file(model: LpModel, path: Path | str):
    """Write the model in CPLEX LP text format, byte-identical across runs
    for identical models."""
    path = Path(path)
    if model.num_vars == 0:
        raise ValueError("cannot write a model with no variables")
    out = [f"\\ {model.name}", "Minimize"]
    obj_terms = sorted(model.objective.items())
    out.append(f" obj: {_terms_text(model, obj_terms)}")
    out.append("Subject To")
    sense_text = {"==": "=", "<=": "<=", ">=": ">="}
    for constr in model.constraints:
        out.append(f" {constr.name}: {_terms_text(model, constr.terms)} "
                   f"{sense_text[constr.sense]} {_fmt(constr.rhs)}")
    out.append("Bounds")
    for var in model.variables:
        lb, ub = var.lb, var.ub
        if lb == 0.0 and ub == math.inf:
            continue
        if lb == ub:
            out.append(f" {var.name} = {_fmt(lb)}")
        elif lb == -math.inf and ub == math.inf:
            out.append(f" {var.name} free")
        elif ub == math.inf:
            out.append(f" {var.name} >= {_fmt(lb)}")
        elif lb == -math.inf:
            out.append(f" -inf <= {var.name} <= {_fmt(ub)}")
        else:
            out.append(f" {_fmt(lb)} <= {var.name} <= {_fmt(ub)}")
    out.append("End")
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
