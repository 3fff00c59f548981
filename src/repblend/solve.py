"""LP solving with HiGHS through ``scipy.optimize.linprog``, plus
deterministic LP-file export as the portability escape hatch for external
solvers."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .model import SENSES, LpModel, Solution

EQ, LE, GE = range(len(SENSES))  # codes of "==", "<=", ">=" in LpModel.sense


class SolverError(Exception):
    """Base class for solver failures (distinct from model infeasibility)."""


class SolverNumericalError(SolverError):
    pass


@dataclass(frozen=True)
class SolverHandle:
    """Solver settings: the primal and dual feasibility tolerance."""

    tolerance: float = 1e-8

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")


def solve(model: LpModel, handle: SolverHandle | None = None) -> Solution:
    """Solve the model, returning objective and all variable values when
    optimal.

    Statuses 'infeasible' and 'unbounded' are regular outcomes; a solver
    breakdown (iteration limit, numerical failure) raises
    SolverNumericalError.  A model without variables is optimal with
    objective 0 unless one of its (constant) rows is violated by more than
    the tolerance, which makes it infeasible.
    """
    handle = handle or SolverHandle()
    sense, rhs = model.sense, model.rhs
    if model.num_vars == 0:
        # every row reads 0 (sense) rhs
        violated = np.where(sense == EQ, np.abs(rhs), np.where(sense == LE, -rhs, rhs))
        if np.any(violated > handle.tolerance):
            return Solution(status="infeasible")
        return Solution(status="optimal", objective=0.0, values={})

    start = time.perf_counter()
    n = model.num_vars
    row, col, val = model.row, model.col, model.val
    # >= rows become <= rows with flipped signs; each group keeps row order
    sign = np.where(sense == GE, -1.0, 1.0)

    def assemble(mask):
        if not mask.any():
            return None, None
        position = np.cumsum(mask) - 1
        entries = mask[row]
        rows = row[entries]
        matrix = sp.csr_matrix((val[entries] * sign[rows], (position[rows], col[entries])),
                               shape=(int(position[-1]) + 1, n))
        return matrix, rhs[mask] * sign[mask]

    a_eq, b_eq = assemble(sense == EQ)
    a_ub, b_ub = assemble(sense != EQ)

    options = {
        "presolve": True,
        "primal_feasibility_tolerance": handle.tolerance,
        "dual_feasibility_tolerance": handle.tolerance,
    }

    result = linprog(model.cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                     bounds=np.column_stack([model.lb, model.ub]), method="highs",
                     options=options)
    elapsed = time.perf_counter() - start

    if result.status == 0:
        values = dict(zip(model.var_names, result.x.tolist()))
        return Solution(status="optimal", objective=float(result.fun),
                        values=values, solve_time=elapsed)
    if result.status == 2:
        return Solution(status="infeasible", solve_time=elapsed)
    if result.status == 3:
        return Solution(status="unbounded", solve_time=elapsed)
    if result.status == 1:
        raise SolverNumericalError(f"iteration limit reached: {result.message}")
    raise SolverNumericalError(f"solver failed: {result.message}")


def _fmt(value: float) -> str:
    # repr of a float round-trips exactly and is stable across runs
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def write_lp_file(model: LpModel, path: Path | str):
    """Write the model in CPLEX LP text format, byte-identical across runs
    for identical models."""
    path = Path(path)
    if model.num_vars == 0:
        raise ValueError("cannot write a model with no variables")
    names = model.var_names

    def terms_text(cols: np.ndarray, vals: np.ndarray) -> list[str]:
        # one "+ coef name" string per term, each distinct magnitude
        # formatted once
        magnitudes, which = np.unique(np.abs(vals), return_inverse=True)
        text = [_fmt(x) for x in magnitudes.tolist()]
        signs = np.where(vals >= 0, "+", "-").tolist()
        return [f"{sign} {text[i]} {names[j]}"
                for sign, i, j in zip(signs, which.tolist(), cols.tolist())]

    def row_text(terms: list[str]) -> str:
        # a degenerate all-zero row stays explicit so readers see the rhs
        return " ".join(terms) if terms else f"0 {names[0]}"

    out = [f"\\ {model.name}", "Minimize"]
    objective = np.flatnonzero(model.cost)
    out.append(f" obj: {row_text(terms_text(objective, model.cost[objective]))}")
    out.append("Subject To")
    terms = terms_text(model.col, model.val)
    starts = np.searchsorted(model.row, np.arange(model.num_constraints + 1)).tolist()
    sense_text = ("=", "<=", ">=")  # in SENSES order
    for i, (name, sense, rhs) in enumerate(zip(model.row_names(), model.sense.tolist(),
                                                model.rhs.tolist())):
        out.append(f" {name}: {row_text(terms[starts[i]:starts[i + 1]])} "
                   f"{sense_text[sense]} {_fmt(rhs)}")
    out.append("Bounds")
    lb, ub = model.lb, model.ub
    for i in np.flatnonzero((lb != 0.0) | (ub != math.inf)).tolist():
        name, lo, hi = names[i], float(lb[i]), float(ub[i])
        if lo == hi:
            out.append(f" {name} = {_fmt(lo)}")
        elif lo == -math.inf and hi == math.inf:
            out.append(f" {name} free")
        elif hi == math.inf:
            out.append(f" {name} >= {_fmt(lo)}")
        elif lo == -math.inf:
            out.append(f" -inf <= {name} <= {_fmt(hi)}")
        else:
            out.append(f" {_fmt(lo)} <= {name} <= {_fmt(hi)}")
    out.append("End")
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
