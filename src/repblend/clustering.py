"""Representative-period selection on a feature-by-period matrix.

Three families of methods:

- ``kmeans``: synthetic representatives (centroids), Lloyd iterations;
- ``kmedoids``: representatives are actual data columns, alternating
  assign/update sweeps;
- ``greedy_hull``: grows a set of extreme data columns so that the chosen
  hull (convex, convex-with-null, or conic) covers the remaining columns as
  well as possible.  Conic coverage is reduced to the convex case by scaling
  every column onto the hyperplane <x, q> = 1 (gnomonic projection), and
  convex-with-null coverage by adding a zero column.  Each greedy step
  takes the exact distance of every remaining column to the convex hull of
  the selection, as the projection error of a convex ``weights.fit_weights``
  (active-set NNLS, Lawson & Hanson 1974), and adds the true farthest
  column.

Every method returns a ``RepSelection`` and nothing else.  All methods are
deterministic functions of the matrix, the parameters and the seed;
argmax/argmin ties always resolve to the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .weights import fit_weights, squared_distances

HULL_TYPES = ("convex", "convex_null", "conic")

DEGENERATE_TOL = 1e-12


@dataclass
class RepSelection:
    """Chosen representative periods, the result of every selection method.

    ``rep_matrix`` holds one column per representative in selection order.
    ``source_indices`` gives the originating column of each representative
    when they are actual data columns (medoids, hull points); it is None for
    synthetic centroids.  ``step_max_distances`` records, for hull methods,
    the maximal point-to-hull distance seen at each greedy step.  The map
    from base periods to the representatives is ``weights.fit_weights``: a
    dirac fit's rows are the clustering assignment, and its projection
    errors give the cost.
    """

    rep_matrix: np.ndarray
    source_indices: np.ndarray | None = None
    step_max_distances: list[float] = field(default_factory=list)

    @property
    def n_rp(self) -> int:
        return self.rep_matrix.shape[1]


def _check_k(k: int, n_periods: int):
    if not 1 <= k <= n_periods:
        raise ValueError(f"number of representatives {k} outside 1..{n_periods}")


def _column_distances(matrix: np.ndarray, col: np.ndarray) -> np.ndarray:
    return np.sqrt(squared_distances(matrix, col[:, None])[:, 0])


def _farthest_point_init(matrix: np.ndarray, k: int, seed: int) -> list[int]:
    """Seeded greedy farthest-point start: a random first column, then
    repeatedly the column farthest from the chosen set."""
    n_periods = matrix.shape[1]
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n_periods))]
    dmin = _column_distances(matrix, matrix[:, chosen[0]])
    dmin[chosen[0]] = -np.inf
    while len(chosen) < k:
        nxt = int(np.argmax(dmin))
        chosen.append(nxt)
        dmin = np.minimum(dmin, _column_distances(matrix, matrix[:, nxt]))
        dmin[nxt] = -np.inf
    return chosen


def kmeans(matrix: np.ndarray, k: int, seed: int, max_iter: int = 300) -> RepSelection:
    """Lloyd's algorithm with greedy farthest-point initialization.

    Returns synthetic centroid columns (no source indices).
    """
    C = np.asarray(matrix, dtype=float)
    n_periods = C.shape[1]
    _check_k(k, n_periods)
    centers = C[:, _farthest_point_init(C, k, seed)].copy()
    assign = np.full(n_periods, -1)
    for _ in range(max_iter):
        new_assign = np.argmin(squared_distances(C, centers), axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = np.nonzero(assign == j)[0]
            if members.size:
                centers[:, j] = C[:, members].mean(axis=1)
        centers = _relocate_empty(C, centers, assign)
    return RepSelection(rep_matrix=centers)


def _relocate_empty(C: np.ndarray, centers: np.ndarray, assign: np.ndarray) -> np.ndarray:
    """Move each empty cluster's center to the point worst-served by its own
    center; keep the center in place when every point is served exactly."""
    k = centers.shape[1]
    taken: set[int] = set()
    d2 = squared_distances(C, centers)
    own = d2[np.arange(C.shape[1]), assign].copy()
    for j in range(k):
        if np.any(assign == j):
            continue
        for idx in np.argsort(-own, kind="stable"):
            if int(idx) not in taken:
                break
        if own[idx] > 0.0:
            centers[:, j] = C[:, idx]
            taken.add(int(idx))
    return centers


def kmedoids(matrix: np.ndarray, k: int, seed: int, max_iter: int = 300) -> RepSelection:
    """Alternating assign/update k-medoids on Euclidean distances.

    Medoids are actual data columns; each update sweep re-centers every
    cluster on the member minimizing the within-cluster total distance, so
    the total cost never increases.
    """
    C = np.asarray(matrix, dtype=float)
    n_periods = C.shape[1]
    _check_k(k, n_periods)
    dist = np.zeros((n_periods, n_periods))
    for d in range(n_periods):
        dist[d] = _column_distances(C, C[:, d])
    medoids = _farthest_point_init(C, k, seed)
    for _ in range(max_iter):
        assign = np.argmin(dist[:, medoids], axis=1)
        new_medoids = list(medoids)
        for j in range(k):
            members = np.nonzero(assign == j)[0]
            if members.size == 0:
                continue
            within = dist[np.ix_(members, members)].sum(axis=0)
            new_medoids[j] = int(members[np.argmin(within)])
        if new_medoids == medoids:
            break
        medoids = new_medoids
    return RepSelection(rep_matrix=C[:, medoids].copy(), source_indices=np.array(medoids))


def gnomonic_project(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Scale every column onto the hyperplane <x, q> = 1, where q is the
    normalized column mean: (scaled, degenerate).

    A point lies in the conic hull of a column set exactly when its scaled
    image lies in the convex hull of the scaled set, so conic selection can
    reuse the convex machinery.  ``degenerate`` lists the columns whose
    inner product with q is at most ``DEGENERATE_TOL``; they cannot be
    rescaled and are left as zero columns.
    """
    C = np.asarray(matrix, dtype=float)
    mean = C.mean(axis=1)
    norm = np.linalg.norm(mean)
    if norm == 0.0:
        raise ValueError("gnomonic projection undefined: mean column is zero")
    q = mean / norm
    inner = q @ C
    degenerate = [int(d) for d in np.nonzero(inner <= DEGENERATE_TOL)[0]]
    scaled = np.zeros_like(C)
    ok = inner > DEGENERATE_TOL
    scaled[:, ok] = C[:, ok] / inner[ok]
    return scaled, degenerate


def _greedy_select(
    matrix: np.ndarray,
    n_rp: int,
    initial: list[int],
    candidates: np.ndarray,
) -> tuple[list[int], list[float]]:
    """Core greedy loop: repeatedly add the candidate column farthest from
    the convex hull of the current selection.

    Every step computes the exact hull distance of every remaining
    candidate and takes the true argmax (lowest index on ties).
    """
    reps = list(initial)
    steps: list[float] = []
    if not reps:
        mean = matrix.mean(axis=1)
        dist_to_mean = _column_distances(matrix, mean)
        masked = np.where(candidates, dist_to_mean, -np.inf)
        reps.append(int(np.argmax(masked)))
    while len(reps) < n_rp:
        remaining = candidates.copy()
        remaining[reps] = False
        cols = np.flatnonzero(remaining)
        if cols.size == 0:
            raise ValueError("not enough selectable columns to reach the requested count")
        dist = fit_weights(matrix[:, reps], matrix[:, cols], "convex").projection_errors
        best = int(np.argmax(dist))
        reps.append(int(cols[best]))
        steps.append(float(dist[best]))
    return reps, steps


def greedy_hull(matrix: np.ndarray, n_rp: int, hull_type: str = "convex") -> RepSelection:
    """Greedy hull clustering in one of three variants.

    - ``convex``: run the greedy loop on the matrix directly;
    - ``convex_null``: append a zero column, force it as the initial
      representative, select one extra point, then drop the zero column
      (covers weight rows summing to at most one);
    - ``conic``: select on the gnomonically scaled matrix and return the
      unscaled columns; degenerate columns are excluded from selection.

    Selection starts from the column farthest from the column mean (after
    the forced zero column for ``convex_null``).
    """
    if hull_type not in HULL_TYPES:
        raise ValueError(f"unknown hull type {hull_type!r}; expected one of {HULL_TYPES}")
    C = np.asarray(matrix, dtype=float)
    n_periods = C.shape[1]
    _check_k(n_rp, n_periods)

    points, initial, candidates = C, [], np.ones(n_periods, dtype=bool)
    if hull_type == "convex_null":
        points = np.hstack([C, np.zeros((C.shape[0], 1))])
        initial, candidates = [n_periods], np.ones(n_periods + 1, dtype=bool)
    elif hull_type == "conic":
        points, degenerate = gnomonic_project(C)
        candidates[degenerate] = False
        if candidates.sum() < n_rp:
            raise ValueError(
                f"only {int(candidates.sum())} non-degenerate columns available for {n_rp} representatives"
            )
    reps, steps = _greedy_select(points, n_rp + len(initial), initial, candidates)
    chosen = reps[len(initial):]
    return RepSelection(
        rep_matrix=C[:, chosen].copy(),
        source_indices=np.array(chosen),
        step_max_distances=steps,
    )
