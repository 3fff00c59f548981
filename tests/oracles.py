"""Independent brute-force oracles and reference algorithms used by the
test suite.

These deliberately avoid the library's closed-form shortcuts: projections
are found by enumerating active sets (faces) of the constraint polytope and
keeping the feasible face-minimizer closest to the input point.  The
profile reader parses one CSV row at a time.

The paper's reference fitting algorithm, projected gradient descent with
the closed-form row-wise projections onto the four weight spaces, lives
here too: the package fits weights exactly with NNLS, and the acceptance
criteria check PGD's projections and descent against the oracles above.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog, nnls

from repblend.model import SENSES
from repblend.weights import canonical_weight_type, fit_weights


def proj_dirac_bruteforce(v: np.ndarray) -> np.ndarray:
    best, best_dist = None, np.inf
    for j in range(len(v)):
        e = np.zeros(len(v))
        e[j] = 1.0
        dist = float(np.linalg.norm(e - v))
        if dist < best_dist:
            best, best_dist = e, dist
    return best


def proj_conic_bruteforce(v: np.ndarray) -> np.ndarray:
    """Enumerate every zero-set; on each face the free coordinates keep
    their input values, feasible iff those are nonnegative."""
    n = len(v)
    best, best_dist = None, np.inf
    for size in range(n + 1):
        for zeros in combinations(range(n), size):
            w = np.array(v, dtype=float)
            w[list(zeros)] = 0.0
            if np.any(w < 0):
                continue
            dist = float(np.linalg.norm(w - v))
            if dist < best_dist:
                best, best_dist = w, dist
    return best


def _simplex_face_candidates(v: np.ndarray):
    n = len(v)
    for size in range(1, n + 1):
        for support in combinations(range(n), size):
            idx = list(support)
            shift = (v[idx].sum() - 1.0) / size
            w = np.zeros(n)
            w[idx] = v[idx] - shift
            if np.all(w[idx] >= -1e-12):
                yield np.maximum(w, 0.0)


def proj_simplex_bruteforce(v: np.ndarray) -> np.ndarray:
    best, best_dist = None, np.inf
    for w in _simplex_face_candidates(v):
        dist = float(np.linalg.norm(w - v))
        if dist < best_dist:
            best, best_dist = w, dist
    return best


def proj_subunit_bruteforce(v: np.ndarray) -> np.ndarray:
    """Faces with the sum constraint inactive (orthant faces with total at
    most one) plus faces on the sum = 1 boundary."""
    best, best_dist = None, np.inf
    free = np.maximum(np.array(v, dtype=float), 0.0)
    if free.sum() <= 1.0 + 1e-12:
        best, best_dist = free, float(np.linalg.norm(free - v))
    for w in _simplex_face_candidates(v):
        dist = float(np.linalg.norm(w - v))
        if dist < best_dist:
            best, best_dist = w, dist
    return best


PROJECTION_ORACLES = {
    "dirac": proj_dirac_bruteforce,
    "convex": proj_simplex_bruteforce,
    "subunit_conic": proj_subunit_bruteforce,
    "conic": proj_conic_bruteforce,
}


@dataclass(frozen=True)
class PgdParams:
    """Projected-gradient-descent settings: the iteration cap and the stall
    tolerance (the step size is an argument of ``pgd``)."""

    max_iter: int = 2000
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection onto the probability simplex
    {x >= 0, sum(x) = 1}, applied to every row along the last axis.

    Sort-based method (Held, Wolfe & Crowder 1974; Duchi et al. 2008): with
    u the row sorted in decreasing order, the threshold is
    theta = max_j (u_1 + ... + u_j - 1) / j and the projection is
    max(v - theta, 0).
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[-1] if v.ndim else 0
    if n == 0:
        raise ValueError("cannot project an empty vector")
    if n == 1:
        return np.ones_like(v)
    partial = np.sort(v, axis=-1)[..., ::-1].cumsum(axis=-1) - 1.0
    theta = (partial / np.arange(1, n + 1)).max(axis=-1, keepdims=True)
    return np.maximum(v - theta, 0.0)


def project_nonneg(v: np.ndarray) -> np.ndarray:
    """Projection onto the nonnegative orthant (conic weights)."""
    return np.maximum(np.asarray(v, dtype=float), 0.0)


def project_subunit(v: np.ndarray) -> np.ndarray:
    """Exact projection onto {x >= 0, sum(x) <= 1}, row by row.

    If clipping negatives already lands inside the set, that is the
    projection; otherwise the sum constraint is active and the answer
    coincides with the simplex projection.
    """
    v = np.asarray(v, dtype=float)
    out = project_nonneg(v)
    over = out.sum(axis=-1) > 1.0
    out[over] = project_simplex(v[over])
    return out


def project_dirac(v: np.ndarray) -> np.ndarray:
    """Projection onto the unit basis vectors, row by row: 1 at the largest
    coordinate (lowest index on ties), 0 elsewhere."""
    v = np.asarray(v, dtype=float)
    return (np.arange(v.shape[-1]) == np.argmax(v, axis=-1)[..., None]).astype(float)


_PROJECTORS = {
    "dirac": project_dirac,
    "convex": project_simplex,
    "subunit_conic": project_subunit,
    "conic": project_nonneg,
}


def project_weights(v: np.ndarray, weight_type: str) -> np.ndarray:
    """Exact Euclidean projection of ``v`` onto the given weight space."""
    return _PROJECTORS[canonical_weight_type(weight_type)](v)


def pgd(x0, objective_grad, projector, params: PgdParams, alpha: float) -> np.ndarray:
    """Projected gradient descent from ``x0`` with step size ``alpha``.

    Projects the start, then repeats gradient step + projection for at most
    ``params.max_iter`` iterations, stopping once the iterate moves by no
    more than ``tolerance / max_iter`` in the infinity norm.  This is the
    paper's reference algorithm; the package's ``fit_weights`` solves the
    same problems exactly with NNLS.
    """
    x = projector(np.array(x0, dtype=float))
    stall = params.tolerance / params.max_iter
    for iteration in range(params.max_iter):
        g = objective_grad(x)
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient at iteration {iteration}")
        stepped = projector(x - alpha * g)
        moved = float(np.abs(stepped - x).max())
        x = stepped
        if moved <= stall:
            break
    return x


def nnls_fit(rep_matrix: np.ndarray, target: np.ndarray, weight_type: str) -> np.ndarray:
    """Optimal weights of min ||R w - c|| over a blended weight space, from
    the Lawson-Hanson active-set solver ``scipy.optimize.nnls``.

    Conic weights are a plain NNLS problem.  Convex weights solve NNLS on
    the shifted system [R - c 1^T; lam 1^T] u ~ [0; lam] and take
    w = u / 1^T u: the minimizer is u = t w with w the simplex optimum and
    t = lam^2 / (lam^2 + d^2) > 0 at distance d, so the sum is exact however
    far c lies from the hull; lam = max(1, max|R - c 1^T|) keeps both blocks
    on one scale.  The simplex optimality conditions are asserted on the
    result.  Sub-unit weights are the conic optimum when it sums to at most
    one (the sum constraint is inactive), else the convex optimum (the
    objective is convex, so the constraint is then active).
    """
    R = np.asarray(rep_matrix, dtype=float)
    c = np.asarray(target, dtype=float)
    w, _ = nnls(R, c)
    if weight_type == "conic" or (weight_type == "subunit_conic" and w.sum() <= 1.0):
        return w
    shifted = R - c[:, None]
    lam = max(1.0, float(np.abs(shifted).max()))
    u, _ = nnls(np.vstack([shifted, np.full((1, R.shape[1]), lam)]),
                np.append(np.zeros(len(c)), lam))
    w = u / u.sum()
    # KKT on the simplex: feasible, and the gradient is minimal and equal on
    # the support
    grad = R.T @ (R @ w - c)
    gap = float(np.max((grad - grad.min())[w > 0], initial=0.0))
    assert w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-12, w
    assert gap <= 1e-9 * max(1.0, float(np.abs(grad).max())), gap
    return w


def nearest_column_bruteforce(rep_matrix: np.ndarray, target: np.ndarray) -> int:
    """Index of the representative column closest to ``target``, scanning
    in order so the lowest index wins ties."""
    best, best_dist = -1, np.inf
    for j in range(rep_matrix.shape[1]):
        dist = float(np.linalg.norm(rep_matrix[:, j] - target))
        if dist < best_dist:
            best, best_dist = j, dist
    return best


def greedy_hull_reference(matrix: np.ndarray, k: int,
                          initial: tuple[int, ...] = ()) -> tuple[list[int], list[float]]:
    """Plain convex greedy hull on exact distances: start from ``initial``,
    or else from the column farthest from the column mean, then repeatedly
    add the column farthest from the convex hull of the chosen ones (lowest
    index on ties) until ``k`` columns are chosen."""
    mean = matrix.mean(axis=1)
    reps = list(initial) or [int(np.argmax(np.linalg.norm(matrix - mean[:, None], axis=0)))]
    steps = []
    while len(reps) < k:
        R = matrix[:, reps]
        best, best_dist = -1, -np.inf
        for d in range(matrix.shape[1]):
            if d in reps:
                continue
            c = matrix[:, d]
            dist = float(np.linalg.norm(R @ nnls_fit(R, c, "convex") - c))
            if dist > best_dist:
                best, best_dist = d, dist
        reps.append(best)
        steps.append(best_dist)
    return reps, steps


def least_squares_objective(rep_matrix: np.ndarray, w: np.ndarray, target: np.ndarray) -> float:
    residual = rep_matrix @ w - target
    return 0.5 * float(residual @ residual)


def finite_difference_gradient(func, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(x, dtype=float)
    for i in range(x.size):
        forward = np.array(x, dtype=float)
        backward = np.array(x, dtype=float)
        forward[i] += step
        backward[i] -= step
        grad[i] = (func(forward) - func(backward)) / (2.0 * step)
    return grad


def best_medoid_set_bruteforce(matrix: np.ndarray, k: int):
    """Exhaustive k-medoid search: the lexicographically first index set
    minimizing the total Euclidean assignment distance."""
    n = matrix.shape[1]
    dist = np.zeros((n, n))
    for d in range(n):
        diff = matrix - matrix[:, d][:, None]
        dist[d] = np.sqrt(np.einsum("ij,ij->j", diff, diff))
    best, best_cost = None, np.inf
    for subset in combinations(range(n), k):
        cost = float(dist[:, list(subset)].min(axis=1).sum())
        if cost < best_cost - 1e-15:
            best, best_cost = subset, cost
    return set(best), best_cost


def dirac_cost(selection, matrix: np.ndarray, squared: bool) -> float:
    """Clustering cost of a selection under its dirac fit, whose rows are
    the assignment: the sum of squared projection errors (the k-means SSE)
    when ``squared``, else their sum (the k-medoids total distance)."""
    errors = fit_weights(selection.rep_matrix, matrix, "dirac").projection_errors
    return float(np.sum(errors ** 2 if squared else errors))


def linprog_solution(model, tolerance: float = 1e-8):
    """(objective, x) of ``model`` from ``scipy.optimize.linprog``, called
    with the arguments the package used before it drove HiGHS directly: the
    ``==`` rows as ``A_eq``, the ``<=`` and negated ``>=`` rows as ``A_ub``
    (each group in model order, as CSR), presolve on and both feasibility
    tolerances set.  The solve must be optimal."""
    eq, ge = SENSES.index("=="), SENSES.index(">=")
    sense, rhs = model.sense, model.rhs
    row, col, val = model.row, model.col, model.val
    sign = np.where(sense == ge, -1.0, 1.0)

    def assemble(mask):
        if not mask.any():
            return None, None
        position = np.cumsum(mask) - 1
        entries = mask[row]
        rows = row[entries]
        matrix = sp.csr_matrix((val[entries] * sign[rows], (position[rows], col[entries])),
                               shape=(int(position[-1]) + 1, model.num_vars))
        return matrix, rhs[mask] * sign[mask]

    a_eq, b_eq = assemble(sense == eq)
    a_ub, b_ub = assemble(sense != eq)
    result = linprog(model.cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                     bounds=np.column_stack([model.lb, model.ub]), method="highs",
                     options={"presolve": True,
                              "primal_feasibility_tolerance": tolerance,
                              "dual_feasibility_tolerance": tolerance})
    assert result.status == 0, result.message
    return float(result.fun), result.x


def pin_by_name(full_model, reduced_model, x, mode: str):
    """(lb, ub) of ``full_model`` with the reduced first-stage decisions
    pinned by variable name: each ``inv_*`` (gep) or ``sinter_*`` (p2x)
    column takes the value in ``x`` of the reduced model's column of the
    same name, clamped into its own bounds."""
    prefix = "inv_" if mode == "gep" else "sinter_"
    lb, ub = full_model.lb.copy(), full_model.ub.copy()
    reduced = {name: i for i, name in enumerate(reduced_model.var_names)}
    for i, name in enumerate(full_model.var_names):
        if name.startswith(prefix):
            lb[i] = ub[i] = min(max(x[reduced[name]], lb[i]), ub[i])
    return lb, ub


def read_hourly_rows(path, key_columns: tuple[str, ...], num_periods: int,
                     hours: int) -> dict:
    """The series of a valid hourly profile CSV, read one ``csv.DictReader``
    row at a time: key cells stripped (a string for one key column, else a
    tuple), period and hour by ``int``, the value by ``float``.  Series are
    (num_periods, hours) float64 arrays, NaN where the file sets no cell, in
    order of their key's first row.  Blank lines are skipped; a cell set
    twice fails an assertion."""
    series: dict = {}
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            key = tuple(row[c].strip() for c in key_columns)
            key = key[0] if len(key) == 1 else key
            if key not in series:
                series[key] = np.full((num_periods, hours), np.nan)
            cell = (int(row["period"]) - 1, int(row["hour"]) - 1)
            assert np.isnan(series[key][cell]), (key, cell)
            series[key][cell] = float(row["value"])
    return series


def period_profiles(system, idx) -> dict:
    """Every profile series of ``system`` at the base periods ``idx``
    (0-based), sliced from the system's own arrays: (len(idx), H) arrays
    keyed ("demand", node, carrier), ("availability", asset) and
    ("inflow", asset), as ``ClusteringMatrix.profile`` takes them."""
    idx = np.asarray(idx, dtype=int)
    out = {("demand", *key): arr[idx] for key, arr in system.demand.items()}
    out.update({("availability", key): arr[idx] for key, arr in system.availability.items()})
    out.update({("inflow", key): arr[idx] for key, arr in system.inflow.items()})
    return out
