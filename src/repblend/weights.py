"""Blending-weight fitting: exact row-wise projections onto the four weight
spaces and one batched projected gradient descent that solves the
least-squares problem of every period at once.

A weight row expresses one base period as a combination of representative
periods.  Four row spaces are supported, nested from most to least
restrictive:

- ``dirac``          one entry equal to 1, all others 0 (hard assignment)
- ``convex``         nonnegative, summing to exactly 1
- ``subunit_conic``  nonnegative, summing to at most 1
- ``conic``          nonnegative

Sub-unit rows are the largest class that keeps every upper-bound inequality
satisfied by the representatives valid for the reconstructed base periods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WEIGHT_TYPES = ("dirac", "convex", "subunit_conic", "conic")

_WEIGHT_ALIASES = {"subunit": "subunit_conic", "sub_unit": "subunit_conic"}


def canonical_weight_type(tag: str) -> str:
    """Normalize a weight-type tag, accepting the short CLI alias 'subunit'."""
    tag = _WEIGHT_ALIASES.get(tag, tag)
    if tag not in WEIGHT_TYPES:
        raise ValueError(f"unknown weight type {tag!r}; expected one of {WEIGHT_TYPES}")
    return tag


@dataclass(frozen=True)
class PgdParams:
    """Projected-gradient-descent settings.

    ``learning_rate`` may be a positive float or ``"auto"``, in which case the
    caller resolves it to ``1 / L`` where ``L`` is the largest eigenvalue of
    the Gram matrix of the representative columns (guarantees monotone
    descent of the least-squares objective).
    """

    max_iter: int = 2000
    tolerance: float = 1e-8
    learning_rate: float | str = "auto"

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")
        if self.learning_rate != "auto" and not float(self.learning_rate) > 0:
            raise ValueError("learning_rate must be > 0 or 'auto'")


@dataclass
class WeightMatrix:
    """Fitted blending weights, one row per base period.

    ``projection_errors[d]`` is the Euclidean residual between base-period
    column d and its weighted reconstruction from the representatives.
    ``iterations[d]`` is the number of PGD steps row d took (0 for rows
    taken from a hard assignment); a row that reports ``params.max_iter``
    stopped at the cap rather than at the stall rule.
    """

    values: np.ndarray  # (n_periods, n_rp)
    weight_type: str
    projection_errors: np.ndarray  # (n_periods,)
    iterations: np.ndarray | None = None  # (n_periods,) PGD steps per row

    def __post_init__(self):
        if self.iterations is None:
            self.iterations = np.zeros(self.values.shape[0], dtype=int)

    @property
    def n_periods(self) -> int:
        return self.values.shape[0]

    @property
    def n_rp(self) -> int:
        return self.values.shape[1]

    @property
    def rep_totals(self) -> np.ndarray:
        """Per-representative total weight (number of periods it stands for,
        generalized to fractional blends)."""
        return self.values.sum(axis=0)


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


def least_squares_init(rep_matrix: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Unconstrained least-squares weights (minimum-norm on rank deficiency).

    Equals the pseudoinverse solution of ``rep_matrix @ w = target``; used as
    the starting guess before projecting and descending.
    """
    R = np.asarray(rep_matrix, dtype=float)
    if R.ndim != 2 or R.shape[1] == 0:
        raise ValueError("rep_matrix must be a nonempty 2-d array")
    sol, *_ = np.linalg.lstsq(R, np.asarray(target, dtype=float), rcond=None)
    return sol


def lipschitz_constant(rep_matrix: np.ndarray) -> float:
    """Largest eigenvalue of R^T R, the Lipschitz constant of the gradient
    of the least-squares objective.  Zero for an all-zero matrix."""
    R = np.asarray(rep_matrix, dtype=float)
    return float(np.linalg.eigvalsh(R.T @ R).max())


def resolve_learning_rate(params: PgdParams, rep_matrix: np.ndarray) -> float:
    """Turn PgdParams.learning_rate into a concrete step size for the
    least-squares objective built on ``rep_matrix``."""
    if params.learning_rate != "auto":
        return float(params.learning_rate)
    lip = lipschitz_constant(rep_matrix)
    if lip <= 0.0:
        return 1.0
    return 1.0 / lip


def pgd(
    x0,
    objective_grad,
    projector,
    params: PgdParams,
    alpha: float | None = None,
    return_iterations: bool = False,
):
    """Projected gradient descent on one point or on every row of a batch.

    ``x0`` is a 1-d point or a 2-d array with one point per row; the
    gradient and the projector act on the whole array (row-wise along the
    last axis).  Projects the start, then repeats gradient step +
    projection for at most ``params.max_iter`` iterations.  A row stops once
    its iterate moves by no more than ``tolerance / max_iter`` in the
    infinity norm; stopped rows are frozen while the others go on, so each
    row follows the iterates it would follow on its own.

    ``alpha`` overrides the step size; otherwise ``params.learning_rate``
    must be numeric (callers resolve "auto" against their matrix).  With
    ``return_iterations`` the result is ``(x, iterations)``, the number of
    steps taken per row.
    """
    if alpha is None:
        if params.learning_rate == "auto":
            raise ValueError("learning_rate 'auto' must be resolved by the caller")
        alpha = float(params.learning_rate)
    x = projector(np.array(x0, dtype=float))
    iterations = np.zeros(x.shape[:-1], dtype=int)
    active = np.ones(x.shape[:-1], dtype=bool)
    stall = params.tolerance / params.max_iter
    for iteration in range(params.max_iter):
        if not active.any():
            break
        g = objective_grad(x)
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient at iteration {iteration}")
        if active.all():  # whole-array step; keeps a 1-d point 1-d for the projector
            stepped = projector(x - alpha * g)
            moved = np.abs(stepped - x).max(axis=-1)
            x = stepped
        else:
            stepped = projector(x[active] - alpha * g[active])
            moved = np.abs(stepped - x[active]).max(axis=-1)
            x[active] = stepped
        iterations[active] += 1
        active[active] = moved > stall
    return (x, iterations) if return_iterations else x


def _nearest_rep_indices(rep_matrix: np.ndarray, data_matrix: np.ndarray) -> np.ndarray:
    """Per data column, the index of the closest representative column
    (lowest index on ties)."""
    diffs = rep_matrix[:, None, :] - data_matrix[:, :, None]
    return np.argmin(np.einsum("fdj,fdj->dj", diffs, diffs), axis=1)


def fit_weights(
    rep_matrix: np.ndarray,
    data_matrix: np.ndarray,
    weight_type: str,
    params: PgdParams | None = None,
    dirac_assignment: np.ndarray | None = None,
) -> WeightMatrix:
    """Fit one weight row per base-period column of ``data_matrix``.

    Each row solves min ||R w - c_d||^2 over the declared weight space; one
    batched projected gradient descent runs over all rows at once.  The
    start of each row is the better (smaller residual) of the projected
    pseudoinverse solution and a hard-assignment row; the latter comes from
    ``dirac_assignment`` when a clustering provided one, else from the
    nearest representative.

    For ``weight_type="dirac"`` no descent is run: the rows are the
    assignment when one is given, else the nearest representative, which is
    the exact optimum over hard assignments.
    """
    weight_type = canonical_weight_type(weight_type)
    params = params or PgdParams()
    R = np.asarray(rep_matrix, dtype=float)
    C = np.asarray(data_matrix, dtype=float)
    if C.ndim == 1:
        C = C[:, None]
    if R.shape[0] != C.shape[0]:
        raise ValueError(
            f"representative and data matrices disagree on feature count: {R.shape[0]} vs {C.shape[0]}"
        )
    n_rp = R.shape[1]
    n_periods = C.shape[1]
    if dirac_assignment is not None:
        hard = np.asarray(dirac_assignment, dtype=int)
        if hard.shape != (n_periods,):
            raise ValueError("dirac_assignment must have one entry per period")
    else:
        hard = _nearest_rep_indices(R, C)
    init_hard = np.zeros((n_periods, n_rp))
    init_hard[np.arange(n_periods), hard] = 1.0
    hard_errors = np.linalg.norm(R[:, hard] - C, axis=0)

    if weight_type == "dirac":
        return WeightMatrix(init_hard, weight_type, hard_errors)

    projector = _PROJECTORS[weight_type]
    alpha = resolve_learning_rate(params, R)
    gram = R.T @ R
    rtc = C.T @ R
    init_ls = projector((np.linalg.pinv(R) @ C).T)
    use_ls = np.linalg.norm(R @ init_ls.T - C, axis=0) <= hard_errors
    start = np.where(use_ls[:, None], init_ls, init_hard)
    W, iterations = pgd(start, lambda w: w @ gram - rtc, projector, params,
                        alpha=alpha, return_iterations=True)
    return WeightMatrix(W, weight_type, np.linalg.norm(R @ W.T - C, axis=0), iterations)
