"""Brute-force oracles and reference algorithms used by the test suite.

Projections and weight fits are found by enumerating active sets (faces)
of the constraint polytope and keeping the feasible face-minimizer closest
to the input point.  The package's ``fit_weights`` is checked against them
directly: a fit against the identity matrix is the Euclidean projection
onto the weight space, and ``fit_bruteforce`` gives the optimum of a
general fit; it is the fit's independent check.  ``nnls_fit``, the kernel
of ``greedy_hull_reference``, is not independent of the fit: it solves the
same shifted NNLS system as ``weights.nnls_weights``, so the reference
greedy checks the hull's selection loop, not its distances' construction.
The profile reader parses one CSV row at a time.
"""

from __future__ import annotations

import csv
import math
from itertools import combinations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog, nnls

from repblend.weights import fit_weights


def proj_dirac_bruteforce(v: np.ndarray) -> np.ndarray:
    """The nearest unit vector, lowest index on ties.  Each distance is the
    exactly rounded sum (``math.fsum``) of the squared differences, which
    does not depend on their order: two coordinates of ``v`` that are equal
    give two vertices at exactly equal distances, and the lower one wins."""
    best, best_dist = None, np.inf
    for j in range(len(v)):
        e = np.zeros(len(v))
        e[j] = 1.0
        dist = math.fsum((e - v) ** 2)
        if dist < best_dist:
            best, best_dist = e, dist
    return best


def _supports(n: int) -> np.ndarray:
    """Every subset of range(n) as a boolean row, smallest first and in
    lexicographic order within a size: the order that breaks ties."""
    return np.array([[i in subset for i in range(n)] for size in range(n + 1)
                     for subset in combinations(range(n), size)], dtype=bool)


def _closest(candidates: np.ndarray, feasible: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The feasible candidate row nearest to ``v``, the first one on ties."""
    dist = np.linalg.norm(candidates - v, axis=1)
    return candidates[np.argmin(np.where(feasible, dist, np.inf))]


def proj_conic_bruteforce(v: np.ndarray) -> np.ndarray:
    """Enumerate every zero-set; on each face the free coordinates keep
    their input values, feasible iff those are nonnegative."""
    w = np.where(_supports(len(v)), 0.0, v)
    return _closest(w, np.all(w >= 0, axis=1), v)


def _simplex_faces(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each face's minimizer on the sum = 1 plane, one row per nonempty
    support (shift the support's coordinates equally to sum 1), clipped at
    zero, and whether it is feasible (no support coordinate below zero)."""
    support = _supports(len(v))[1:]
    shift = (np.where(support, v, 0.0).sum(axis=1) - 1.0) / support.sum(axis=1)
    w = np.where(support, v - shift[:, None], 0.0)
    return np.maximum(w, 0.0), np.all(~support | (w >= -1e-12), axis=1)


def proj_simplex_bruteforce(v: np.ndarray) -> np.ndarray:
    return _closest(*_simplex_faces(v), v)


def proj_subunit_bruteforce(v: np.ndarray) -> np.ndarray:
    """Faces with the sum constraint inactive (orthant faces with total at
    most one) plus faces on the sum = 1 boundary."""
    free = np.maximum(np.array(v, dtype=float), 0.0)
    faces, feasible = _simplex_faces(v)
    return _closest(np.vstack([free, faces]),
                    np.append(free.sum() <= 1.0 + 1e-12, feasible), v)


PROJECTION_ORACLES = {
    "dirac": proj_dirac_bruteforce,
    "convex": proj_simplex_bruteforce,
    "subunit_conic": proj_subunit_bruteforce,
    "conic": proj_conic_bruteforce,
}


def fit_bruteforce(rep_matrix: np.ndarray, target: np.ndarray, weight_type: str) -> np.ndarray:
    """Optimal weights of min ||R w - c|| over a blended weight space, by
    enumerating every support, the empty one included (a point far outside
    the cone can have w = 0 as its optimum).  On each support, conic
    candidates solve the least squares and convex candidates the KKT system
    with the sum row [A^T A, 1; 1^T, 0] [w; mu] = [A^T c; 1]; sub-unit takes
    the conic candidates that sum to at most one and the convex ones.  The
    best nonnegative candidate wins: the optimum's own support gives it
    exactly, with no weight below zero."""
    R = np.asarray(rep_matrix, dtype=float)
    c = np.asarray(target, dtype=float)
    n = R.shape[1]
    candidates = []
    for size in range(n + 1):
        for support in combinations(range(n), size):
            idx = list(support)
            A = R[:, idx]
            if weight_type != "convex":
                w = np.zeros(n)
                w[idx] = np.linalg.lstsq(A, c, rcond=None)[0]
                if weight_type == "conic" or w.sum() <= 1.0:
                    candidates.append(w)
            if weight_type != "conic" and size:
                kkt = np.block([[A.T @ A, np.ones((size, 1))],
                                [np.ones((1, size)), np.zeros((1, 1))]])
                w = np.zeros(n)
                w[idx] = np.linalg.lstsq(kkt, np.append(A.T @ c, 1.0), rcond=None)[0][:size]
                candidates.append(w)
    return min((w for w in candidates if w.min() >= 0.0),
               key=lambda w: float(np.linalg.norm(R @ w - c)))


def nnls_fit(rep_matrix: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Optimal convex weights of min ||R w - c||, from the Lawson-Hanson
    active-set solver ``scipy.optimize.nnls``: NNLS on the shifted system
    [R - c 1^T; lam 1^T] u ~ [0; lam], then w = u / 1^T u.  The minimizer is
    u = t w with w the simplex optimum and t = lam^2 / (lam^2 + d^2) > 0 at
    distance d, so the sum is exact however far c lies from the hull;
    lam = max(1, max|R - c 1^T|) keeps both blocks on one scale.  The
    simplex optimality conditions are asserted on the result.  This is the
    kernel of ``greedy_hull_reference``, where ``fit_bruteforce`` would be
    too slow.
    """
    R = np.asarray(rep_matrix, dtype=float)
    c = np.asarray(target, dtype=float)
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
            dist = float(np.linalg.norm(R @ nnls_fit(R, c) - c))
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
    tolerances set.  The solve must be optimal.  A row bounded only from
    above is a ``<=`` row, one bounded only from below a ``>=`` row, and
    any other an ``==`` row."""
    lower, upper = model.lower, model.upper
    le, ge = lower == -np.inf, (upper == np.inf) & (lower != -np.inf)
    rhs = np.where(le, upper, lower)
    row = np.repeat(np.arange(model.num_constraints), np.diff(model.starts))
    col, val = model.col, model.val
    sign = np.where(ge, -1.0, 1.0)

    def assemble(mask):
        if not mask.any():
            return None, None
        position = np.cumsum(mask) - 1
        entries = mask[row]
        rows = row[entries]
        matrix = sp.csr_matrix((val[entries] * sign[rows], (position[rows], col[entries])),
                               shape=(int(position[-1]) + 1, model.num_vars))
        return matrix, rhs[mask] * sign[mask]

    a_eq, b_eq = assemble(~(le | ge))
    a_ub, b_ub = assemble(le | ge)
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
