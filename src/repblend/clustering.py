"""Representative-period selection on a feature-by-period matrix.

Three families of methods:

- ``kmeans``: synthetic representatives (centroids), Lloyd iterations;
- ``kmedoids``: representatives are actual data columns, alternating
  assign/update sweeps;
- ``greedy_hull``: grows a set of extreme data columns so that the chosen
  hull (convex, convex-with-null, or conic) covers the remaining columns as
  well as possible.  Conic coverage is reduced to the convex case by scaling
  every column onto the hyperplane <x, q> = 1 (gnomonic projection).  Each
  greedy step takes the exact distance of every remaining column to the
  hull of the selection, as the projection error of a ``weights.fit_weights``
  in the hull's space (active-set NNLS, Lawson & Hanson 1974): convex, or
  sub-unit for convex-with-null.  It adds the true farthest column.

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

MAX_ITER = 300  # cap on k-means Lloyd iterations and k-medoids sweeps


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


def check_integer(value, name: str):
    """Raise ValueError unless ``value`` is a Python or numpy int (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer: got {value!r}")


def _check_k(k: int, n_periods: int):
    check_integer(k, "number of representatives")
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


def kmeans(matrix: np.ndarray, k: int, seed: int) -> RepSelection:
    """Lloyd's algorithm with greedy farthest-point initialization.

    Returns synthetic centroid columns (no source indices).
    """
    C = np.asarray(matrix, dtype=float)
    n_periods = C.shape[1]
    _check_k(k, n_periods)
    centers = C[:, _farthest_point_init(C, k, seed)].copy()
    assign = np.full(n_periods, -1)
    for _ in range(MAX_ITER):
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


def kmedoids(matrix: np.ndarray, k: int, seed: int) -> RepSelection:
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
    for _ in range(MAX_ITER):
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


def _greedy_select(matrix: np.ndarray, n_rp: int, weight_type: str,
                   candidates: np.ndarray) -> tuple[list[int], list[float]]:
    """Core greedy loop: repeatedly add the candidate column farthest from
    the hull of the selection, by the projection errors of ``fit_weights``
    in ``weight_type``'s space (lowest index on ties).  A convex hull starts
    from the column farthest from the column mean, a sub-unit hull from the
    empty selection, whose hull is the origin.
    """
    reps: list[int] = []
    steps: list[float] = []
    if weight_type == "convex":
        dist_to_mean = _column_distances(matrix, matrix.mean(axis=1))
        reps.append(int(np.argmax(np.where(candidates, dist_to_mean, -np.inf))))
    while len(reps) < n_rp:
        remaining = candidates.copy()
        remaining[reps] = False
        cols = np.flatnonzero(remaining)
        dist = fit_weights(matrix[:, reps], matrix[:, cols], weight_type).projection_errors
        best = int(np.argmax(dist))
        reps.append(int(cols[best]))
        steps.append(float(dist[best]))
    return reps, steps


def greedy_hull(matrix: np.ndarray, n_rp: int, hull_type: str = "convex") -> RepSelection:
    """Greedy hull clustering in one of three variants.

    - ``convex``: select on the matrix directly by convex fits, starting
      from the column farthest from the column mean;
    - ``convex_null``: select on the matrix directly by sub-unit fits, whose
      hull is the convex hull of the selection and the origin (covers weight
      rows summing to at most one), starting from the empty selection;
    - ``conic``: select as ``convex`` on the gnomonically scaled matrix and
      return the unscaled columns; degenerate columns are excluded from
      selection.
    """
    if hull_type not in HULL_TYPES:
        raise ValueError(f"unknown hull type {hull_type!r}; expected one of {HULL_TYPES}")
    C = np.asarray(matrix, dtype=float)
    n_periods = C.shape[1]
    _check_k(n_rp, n_periods)

    points, candidates = C, np.ones(n_periods, dtype=bool)
    if hull_type == "conic":
        points, degenerate = gnomonic_project(C)
        candidates[degenerate] = False
        if candidates.sum() < n_rp:
            raise ValueError(
                f"only {int(candidates.sum())} non-degenerate columns available for {n_rp} representatives"
            )
    weight_type = "subunit_conic" if hull_type == "convex_null" else "convex"
    reps, steps = _greedy_select(points, n_rp, weight_type, candidates)
    return RepSelection(
        rep_matrix=C[:, reps].copy(),
        source_indices=np.array(reps),
        step_max_distances=steps,
    )
