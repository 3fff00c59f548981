"""LP solving with HiGHS through scipy's private HiGHS bindings
(``scipy.optimize._highspy._core``), which no other module imports, plus
deterministic LP-file export as the escape hatch for external solvers.

``solve`` passes HiGHS the ``LpModel``'s own arrays in one ``passModel``
call.  A solve can start from a basis: a model that differs from a
solved one only in its bounds, such as a full model with first-stage
decisions fixed, starts from that model's optimal basis instead of from
scratch.  Such a start is a few pivots from optimal, so it prices with
Devex, whose weights start at 1; HiGHS's default dual steepest edge would
first compute exact weights for the whole basis, which costs more than the
pivots.  Cold solves keep the default pricing.  The basis stays HiGHS's own
``HighsBasis`` object on the way out and on the way in: reading its
statuses into Python would cost about a third of a warm solve, so only the
full-solve cache converts it (``basis_codes``/``basis_from_codes``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.optimize._highspy._core as highspy

from .model import LpModel

_DUAL_SIMPLEX = highspy.simplex_constants.SimplexStrategy.kSimplexStrategyDual
_DEVEX = 1  # simplex_dual_edge_weight_strategy: -1 choose (default), 0 Dantzig, 1 Devex
_ROWWISE = int(highspy.MatrixFormat.kRowwise)
_MINIMIZE = int(highspy.ObjSense.kMinimize)
_BASIS_STATUS = [highspy.HighsBasisStatus(code) for code in range(5)]  # by code, see basis_codes

_REGULAR_STATUS = {
    highspy.HighsModelStatus.kOptimal: "optimal",
    highspy.HighsModelStatus.kInfeasible: "infeasible",
    highspy.HighsModelStatus.kUnbounded: "unbounded",
}


@dataclass
class Solution:
    """Outcome of one solve: objective and column values ``x`` when optimal.

    ``x`` is a float64 array in model column order.  ``iterations`` counts
    the solver's simplex iterations.  ``basis`` is the optimal basis, the
    ``HighsBasis`` object HiGHS returns (column and row statuses in model
    order), ready to start a solve of a model with the same columns and
    rows.  A HiGHS object cannot be pickled or copied, so neither can a
    ``Solution`` that carries a basis.
    """

    status: str
    objective: float | None = None
    x: np.ndarray | None = field(default=None, compare=False)
    iterations: int = 0
    basis: highspy.HighsBasis | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.status not in _REGULAR_STATUS.values():
            raise ValueError(f"status must be one of {tuple(_REGULAR_STATUS.values())}")


def basis_codes(basis: highspy.HighsBasis) -> tuple[np.ndarray, np.ndarray]:
    """The column and the row statuses of ``basis`` as int8 codes (0 lower,
    1 basic, 2 upper, 3 zero, 4 nonbasic), in model order."""
    return tuple(np.array([status.value for status in statuses], np.int8)
                 for statuses in (basis.col_status, basis.row_status))


def basis_from_codes(columns: np.ndarray, rows: np.ndarray) -> highspy.HighsBasis:
    """Inverse of ``basis_codes``: a ``HighsBasis`` marked non-alien, as from
    ``getBasis()``, so a start needs no alien-basis refactor.  ValueError
    unless ``columns`` and ``rows`` are each a vector of integer codes 0-4."""
    basis = highspy.HighsBasis()
    for side, codes in (("col_status", columns), ("row_status", rows)):
        codes = np.asarray(codes)
        if codes.ndim != 1 or codes.dtype.kind not in "iu" or np.any((codes < 0) | (codes > 4)):
            raise ValueError("basis status codes must be a vector of codes 0-4")
        setattr(basis, side, [_BASIS_STATUS[code] for code in codes.tolist()])
    basis.alien = False
    return basis


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


def solve(model: LpModel, handle: SolverHandle | None = None,
          basis: highspy.HighsBasis | None = None) -> Solution:
    """Solve the model: the objective, the column values ``x``, the simplex
    iteration count and the optimal basis when optimal.

    ``basis`` is a start: the ``Solution.basis`` of a model with the same
    columns and rows (any bounds), or a ``HighsBasis`` built to the same
    sizes.  A started solve prices with Devex; a cold one keeps HiGHS's
    default pricing.

    Statuses 'infeasible' and 'unbounded' are regular outcomes.  A model
    HiGHS rejects (a lower bound of +inf, an infinite coefficient, a NaN
    right-hand side) and a solver breakdown (iteration limit, numerical
    failure, a start basis HiGHS rejects, such as one of another size)
    raise SolverNumericalError.  A model without variables is a ValueError,
    as in ``write_lp_file``.
    """
    n, m = model.num_vars, model.num_constraints
    if n == 0:
        raise ValueError("cannot solve a model with no variables")
    handle = handle or SolverHandle()

    highs = highspy._Highs()
    for option, value in (("output_flag", False), ("presolve", "on"),
                          ("primal_feasibility_tolerance", handle.tolerance),
                          ("dual_feasibility_tolerance", handle.tolerance),
                          ("simplex_strategy", _DUAL_SIMPLEX)):
        highs.setOptionValue(option, value)
    if highs.passModel(
            n, m, model.val.size, _ROWWISE, _MINIMIZE, 0.0,
            model.cost, model.lb, model.ub, model.lower, model.upper,
            model.starts, model.col, model.val,
            np.zeros(n, np.int32),  # all continuous; an empty array is an error
    ) == highspy.HighsStatus.kError:
        raise SolverNumericalError("HiGHS rejected the model")
    if basis is not None:
        # dual steepest edge would start with one BTRAN per row to weigh a
        # basis that is a few pivots from optimal
        highs.setOptionValue("simplex_dual_edge_weight_strategy", _DEVEX)
        if highs.setBasis(basis) == highspy.HighsStatus.kError:
            raise SolverNumericalError("HiGHS rejected the start basis")
    highs.run()
    model_status = highs.getModelStatus()
    status = _REGULAR_STATUS.get(model_status)
    if status is None:
        raise SolverNumericalError(f"solver failed: {highs.modelStatusToString(model_status)}")
    info = highs.getInfo()
    iterations = int(info.simplex_iteration_count)
    if status != "optimal":
        return Solution(status=status, iterations=iterations)

    objective = float(info.objective_function_value)
    x = np.array(highs.getSolution().col_value)
    return Solution(status="optimal", objective=objective, x=x,
                    iterations=iterations, basis=highs.getBasis())


# whitespace and the characters at which LP readers (HiGHS among them) end
# or split a name
_LP_NAME_BREAKS = re.compile(r"[\s+\-:/\[\]*^<>=\\]")
_LP_CHUNK_ROWS = 4096  # rows that write_lp_file formats per write


def _fmt(value: float) -> str:
    # repr of a float round-trips exactly and is stable across runs
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def write_lp_file(model: LpModel, path: Path | str):
    """Write the model in CPLEX LP text format, byte-identical across runs
    for identical models; a name LP readers cannot parse, or a column or row
    name that repeats, is a ValueError.  A row with bounds ``[-inf, u]`` is
    written ``<= u``, one with ``[l, +inf]`` ``>= l`` and any other ``= l``."""
    path = Path(path)
    if model.num_vars == 0:
        raise ValueError("cannot write a model with no variables")
    for block in model.var_blocks + model.row_blocks:
        if block.asset is not None and _LP_NAME_BREAKS.search(block.asset):
            raise ValueError(f"name {block.asset!r} cannot be written in LP format")
    names, row_names = model.var_names, model.row_names()
    for what, group in (("column", names), ("row", row_names)):
        if None in group:  # outside every block
            raise ValueError(f"{what} {group.index(None)} has no name")
        if len(set(group)) < len(group):  # e.g. node a_b, carrier c and node a, carrier b_c
            seen = set()
            repeat = next(name for name in group if name in seen or seen.add(name))
            raise ValueError(f"{what} name {repeat!r} is not unique")

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

    objective = np.flatnonzero(model.cost)
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"\\ {model.name}\nMinimize\n"
                  f" obj: {row_text(terms_text(objective, model.cost[objective]))}\nSubject To\n")
        for first in range(0, model.num_constraints, _LP_CHUNK_ROWS):
            rows = slice(first, first + _LP_CHUNK_ROWS)  # the last chunk may be shorter
            starts = model.starts[first:rows.stop + 1].tolist()
            terms = terms_text(model.col[starts[0]:starts[-1]], model.val[starts[0]:starts[-1]])
            lower, upper = model.lower[rows], model.upper[rows]
            senses = np.where(lower == -math.inf, "<=", np.where(upper == math.inf, ">=", "="))
            rhs = np.where(lower == -math.inf, upper, lower)
            out.write("".join(
                f" {name}: {row_text(terms[a - starts[0]:b - starts[0]])} {sense} {_fmt(value)}\n"
                for name, a, b, sense, value in zip(row_names[rows], starts, starts[1:],
                                                    senses.tolist(), rhs.tolist())))
        bounds = ["Bounds"]
        lb, ub = model.lb, model.ub
        for i in np.flatnonzero((lb != 0.0) | (ub != math.inf)).tolist():
            name, lo, hi = names[i], float(lb[i]), float(ub[i])
            if lo == hi:
                bounds.append(f" {name} = {_fmt(lo)}")
            elif lo == -math.inf and hi == math.inf:
                bounds.append(f" {name} free")
            elif hi == math.inf:
                bounds.append(f" {name} >= {_fmt(lo)}")
            elif lo == -math.inf:
                bounds.append(f" -inf <= {name} <= {_fmt(hi)}")
            else:
                bounds.append(f" {_fmt(lo)} <= {name} <= {_fmt(hi)}")
        bounds.append("End")
        out.write("\n".join(bounds) + "\n")
