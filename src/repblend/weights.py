"""Blending-weight fitting: exact least-squares weights over the four
weight spaces, one active-set NNLS kernel shared with the greedy hull.

A weight row expresses one base period as a combination of representative
periods.  Four row spaces are supported, nested from most to least
restrictive:

- ``dirac``          one entry equal to 1, all others 0 (hard assignment)
- ``convex``         nonnegative, summing to exactly 1
- ``subunit_conic``  nonnegative, summing to at most 1
- ``conic``          nonnegative

Sub-unit rows are the largest class that keeps every upper-bound inequality
satisfied by the representatives valid for the reconstructed base periods.

``fit_weights`` is the one map from base periods to representatives, and
the greedy hull's distance measure: exact ``nnls_weights`` rows, or dirac
rows at the nearest representative by ``squared_distances``, the one
distance kernel, which ``clustering`` also measures every distance by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import lsq_linear, nnls

WEIGHT_TYPES = ("dirac", "convex", "subunit_conic", "conic")

_WEIGHT_ALIASES = {"subunit": "subunit_conic"}


def canonical_weight_type(tag: str) -> str:
    """Normalize a weight-type tag, accepting the short CLI alias 'subunit'."""
    tag = _WEIGHT_ALIASES.get(tag, tag)
    if tag not in WEIGHT_TYPES:
        raise ValueError(f"unknown weight type {tag!r}; expected one of {WEIGHT_TYPES}")
    return tag


@dataclass
class WeightMatrix:
    """Fitted blending weights, one row per base period.

    Blended rows (convex, sub-unit, conic) are the exact least-squares
    optimum of their space; each dirac row is the nearest representative.
    ``projection_errors[d]`` is the Euclidean residual between base-period
    column d and its weighted reconstruction from the representatives.
    """

    values: np.ndarray  # (n_periods, n_rp)
    weight_type: str
    projection_errors: np.ndarray  # (n_periods,)

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


def _bvls(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, None]:
    """argmin ||A x - b|| over x >= 0 by the bounded-variable least squares
    of ``lsq_linear``, returned the way ``scipy.optimize.nnls`` returns it."""
    return lsq_linear(A, b, bounds=(0.0, np.inf), method="bvls").x, None


def nnls_weights(rep_matrix: np.ndarray, points: np.ndarray, weight_type: str) -> np.ndarray:
    """Exact minimizer of ||R w - x||^2 over the blended weight space
    ``weight_type`` ("convex", "subunit_conic" or "conic") for every column
    x of ``points``, one row per point, by active-set NNLS (Lawson & Hanson
    1974, ``scipy.optimize.nnls``).

    - ``conic``: NNLS on (R, x) directly.
    - ``convex``: with A = R - x 1^T, NNLS solves
      min_{u >= 0} ||A u||^2 + lam^2 (1^T u - 1)^2.  Its minimizer is
      u = t w with w the nearest-point simplex weights and
      t = lam^2 / (lam^2 + d^2) > 0 at distance d, so w = u / 1^T u
      exactly; lam = max(1, max|A|) keeps both blocks on the same scale.
    - ``subunit_conic``: the convex optimum over [R, 0], the representatives
      and the null point (the ``convex_null`` hull), without the null
      point's weight.  Against no representatives this is the null point
      itself: rows of width 0.

    A point identical to a representative column gets that column's unit
    row, which is optimal in every space.  Every row's KKT conditions are
    checked, and a row that fails them is fitted again by bounded-variable
    least squares.
    """
    R = np.asarray(rep_matrix, dtype=float)
    if R.ndim != 2:
        raise ValueError("rep_matrix must be two-dimensional")
    if weight_type == "subunit_conic":
        return nnls_weights(np.hstack([R, np.zeros((R.shape[0], 1))]), points, "convex")[:, :-1]
    if R.shape[1] == 0:
        raise ValueError("rep_matrix must have at least one column")
    X = np.asarray(points, dtype=float)
    same = np.all(X[:, :, None] == R[:, None, :], axis=0)  # (n_points, n_reps)
    hit = same.any(axis=1)
    W = np.zeros((X.shape[1], R.shape[1]))
    W[hit, np.argmax(same[hit], axis=1)] = 1.0
    augmented = np.empty((R.shape[0] + 1, R.shape[1]))
    target = np.zeros(R.shape[0] + 1)

    def fit(d, solve):
        if weight_type == "conic":
            W[d], _ = solve(R, X[:, d])
            return
        A = R - X[:, d, None]
        lam = max(1.0, float(np.abs(A).max()))
        augmented[:-1] = A
        augmented[-1] = lam
        target[-1] = lam
        u, _ = solve(augmented, target)
        W[d] = u / u.sum()

    for d in np.flatnonzero(~hit):
        fit(d, nnls)
    # scipy's nnls can stop short of the optimum when columns tie: on the
    # convex fit of (0, 0, 0, -9.0625, 0.1, -6.40625, 0.9) against the
    # identity its point is not even stationary on its own support.  So
    # every row's KKT conditions are checked, with the gradient G of
    # 0.5 ||R w - x||^2 shifted by the sum constraint's multiplier for
    # convex rows, to 1e-9 of a bound on G; a row that fails is fitted
    # again by bounded-variable least squares
    G = (W @ R.T - X.T) @ R
    if weight_type == "convex":
        G -= G.min(axis=1, keepdims=True)
    violation = np.where(W > 0, np.abs(G), -G).max(axis=1)
    top = np.abs(R).max(initial=0.0)
    tol = 1e-9 * R.shape[0] * top * (top * W.sum(axis=1).max(initial=0.0)
                                     + np.abs(X).max(initial=0.0))
    for d in np.flatnonzero(violation > tol):
        fit(d, _bvls)
    return W


def squared_distances(points: np.ndarray, rep_matrix: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from every column of ``points`` to every
    column of ``rep_matrix``, shaped (n_points, n_reps)."""
    diffs = points[:, :, None] - rep_matrix[:, None, :]
    return np.einsum("fdj,fdj->dj", diffs, diffs)


def fit_weights(rep_matrix: np.ndarray, data_matrix: np.ndarray, weight_type: str) -> WeightMatrix:
    """Fit one weight row per base-period column of ``data_matrix``: the one
    map from base periods to representatives.

    Each blended row is the exact minimizer of ||R w - c_d||^2 over the
    declared weight space, from ``nnls_weights``; a convex fit's
    ``projection_errors`` are the distances to the representatives' convex
    hull.  Each dirac row is the nearest representative (lowest index on
    ties), which is the exact optimum over hard assignments.
    """
    weight_type = canonical_weight_type(weight_type)
    R = np.asarray(rep_matrix, dtype=float)
    C = np.asarray(data_matrix, dtype=float)
    if C.ndim == 1:
        C = C[:, None]
    if R.shape[0] != C.shape[0]:
        raise ValueError(
            f"representative and data matrices disagree on feature count: {R.shape[0]} vs {C.shape[0]}"
        )
    n_periods = C.shape[1]
    if weight_type == "dirac":
        sq = squared_distances(C, R)
        hard = np.argmin(sq, axis=1)
        # a float sum of F squares is within F ulps of exact, so two equal
        # distances whose terms add in another order can differ by that much:
        # such near ties are settled on exactly rounded sums (math.fsum),
        # which no order changes, and the lower index wins a tie
        near = sq <= sq.min(axis=1, keepdims=True) * (1.0 + 2.0 * C.shape[0] * np.finfo(float).eps)
        for d in np.flatnonzero(near.sum(axis=1) > 1):
            tied = np.flatnonzero(near[d])
            hard[d] = tied[np.argmin([math.fsum((R[:, j] - C[:, d]) ** 2) for j in tied])]
        W = np.zeros((n_periods, R.shape[1]))
        W[np.arange(n_periods), hard] = 1.0
        return WeightMatrix(W, weight_type, np.linalg.norm(R[:, hard] - C, axis=0))
    W = nnls_weights(R, C, weight_type)
    return WeightMatrix(W, weight_type, np.linalg.norm(R @ W.T - C, axis=0))
