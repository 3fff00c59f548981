"""Unit tests for representative-period selection."""

import numpy as np
import pytest

from repblend import clustering
from repblend.clustering import gnomonic_project, greedy_hull, kmeans, kmedoids
from repblend.data import build_clustering_matrix, load_system
from repblend.harness import ExperimentConfig
from repblend.weights import fit_weights
from conftest import face_instances
from oracles import best_medoid_set_bruteforce, dirac_cost, greedy_hull_reference, nnls_fit


def random_matrix(rows, cols, seed):
    return np.random.default_rng(seed).uniform(0, 1, (rows, cols))


class TestKmeans:
    def test_two_clusters(self):
        C = np.array([[0, 0, 1], [0, 0, 1]], dtype=float)
        selection = kmeans(C, 2, seed=4)
        centers = sorted(map(tuple, selection.rep_matrix.T))
        assert centers == [(0.0, 0.0), (1.0, 1.0)]
        assert dirac_cost(selection, C, squared=True) == 0.0
        assert selection.source_indices is None

    def test_k_equals_periods(self):
        C = random_matrix(5, 7, seed=1)
        selection = kmeans(C, 7, seed=2)
        assert dirac_cost(selection, C, squared=True) == pytest.approx(0.0, abs=1e-20)
        assert sorted(map(tuple, selection.rep_matrix.T)) == sorted(map(tuple, C.T))

    def test_k_out_of_range(self):
        C = random_matrix(3, 4, seed=0)
        with pytest.raises(ValueError):
            kmeans(C, 5, seed=0)
        with pytest.raises(ValueError):
            kmeans(C, 0, seed=0)

    def test_sse_nonincreasing_across_iterations(self, monkeypatch):
        C = random_matrix(8, 40, seed=5)
        costs = []
        for it in range(1, 12):
            monkeypatch.setattr(clustering, "MAX_ITER", it)
            costs.append(dirac_cost(kmeans(C, 5, seed=0), C, squared=True))
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))


class TestKmedoids:
    def test_matches_bruteforce_pair(self):
        C = np.array([[0.0, 0.1, 1.0], [0.0, 0.0, 1.0]])
        selection = kmedoids(C, 2, seed=1)
        expected_set, expected_cost = best_medoid_set_bruteforce(C, 2)
        assert set(selection.source_indices.tolist()) == expected_set == {0, 2}
        assert dirac_cost(selection, C, squared=False) == pytest.approx(expected_cost) \
            == pytest.approx(0.1)

    def test_medoids_are_actual_columns(self):
        C = random_matrix(6, 15, seed=7)
        selection = kmedoids(C, 4, seed=3)
        for j, src in enumerate(selection.source_indices):
            np.testing.assert_array_equal(selection.rep_matrix[:, j], C[:, src])

    def test_k_equals_periods(self):
        C = random_matrix(4, 6, seed=2)
        selection = kmedoids(C, 6, seed=5)
        assert sorted(selection.source_indices.tolist()) == list(range(6))
        assert dirac_cost(selection, C, squared=False) == 0.0

    def test_duplicates_collapse(self):
        C = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        selection = kmedoids(C, 2, seed=0)
        assignment = fit_weights(selection.rep_matrix, C, "dirac").values.argmax(axis=1)
        assert assignment[0] == assignment[1]
        assert dirac_cost(selection, C, squared=False) == 0.0

    def test_cost_nonincreasing_across_sweeps(self, monkeypatch):
        C = random_matrix(10, 30, seed=11)
        costs = []
        for it in range(1, 10):
            monkeypatch.setattr(clustering, "MAX_ITER", it)
            costs.append(dirac_cost(kmedoids(C, 4, seed=1), C, squared=False))
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))


class TestGnomonic:
    @staticmethod
    def direction(C):
        """The reference direction q: the normalized column mean."""
        mean = C.mean(axis=1)
        return mean / np.linalg.norm(mean)

    def test_closed_form_two_axes(self):
        C = np.array([[1.0, 0.0], [0.0, 1.0]])
        scaled, degenerate = gnomonic_project(C)
        np.testing.assert_allclose(self.direction(C), [np.sqrt(2) / 2, np.sqrt(2) / 2])
        np.testing.assert_allclose(scaled, [[np.sqrt(2), 0.0], [0.0, np.sqrt(2)]])
        assert degenerate == []

    def test_zero_column_degenerate(self):
        scaled, degenerate = gnomonic_project(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert degenerate == [1]
        np.testing.assert_array_equal(scaled[:, 1], [0.0, 0.0])

    def test_scaled_columns_on_hyperplane(self):
        C = random_matrix(12, 30, seed=3)
        scaled, _ = gnomonic_project(C)
        inner = self.direction(C) @ scaled
        np.testing.assert_allclose(inner, np.ones(30), atol=1e-12)

    def test_all_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="mean column is zero"):
            gnomonic_project(np.zeros((3, 4)))


class TestHullDistance:
    """The distance of a point to the convex hull of the representatives is
    the projection error of its convex fit."""

    @staticmethod
    def hull_fit(c, R):
        fit = fit_weights(R, c, "convex")
        return fit.projection_errors[0], fit.values[0]

    def test_exact_column_is_zero(self):
        R = random_matrix(5, 3, seed=1)
        dist, w = self.hull_fit(R[:, 1], R)
        assert dist == 0.0
        np.testing.assert_array_equal(w, [0.0, 1.0, 0.0])

    def test_midpoint_projection(self):
        dist, w = self.hull_fit(np.array([1.0, 1.0]), np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert dist == pytest.approx(np.sqrt(2) / 2, abs=1e-9)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-6)

    @staticmethod
    def simplex_kkt_residual(R, w, c):
        """Largest violation of the optimality conditions of
        min ||R w - c||^2 over the simplex: feasibility, and a gradient that
        is minimal and equal on the support."""
        grad = R.T @ (R @ w - c)
        gap = grad - grad.min()
        return max(abs(w.sum() - 1.0), -w.min(), float(np.max(gap[w > 0], initial=0.0)))

    @pytest.mark.parametrize("offset", [0.0, 100.0])
    def test_weights_match_nnls_and_kkt(self, offset):
        # offset 0: the point lies in the hull (distance 0, no column equal
        # to it); offset 100: far outside (distance >> the unit data
        # scale), straight above the same face point, which stays nearest
        for R, w_true, C in face_instances((offset,)):
            c = C[:, 0]
            dist, w = self.hull_fit(c, R)
            assert dist == pytest.approx(offset, abs=1e-9)
            assert self.simplex_kkt_residual(R, w, c) <= 1e-9
            np.testing.assert_allclose(w, nnls_fit(R, c), rtol=0, atol=1e-5)
            np.testing.assert_allclose(w, w_true, rtol=0, atol=1e-9)

    def test_nnls_oracle_far_from_hull(self):
        # the oracle's convex weights stay exact at distance 1e4 from the hull
        for R, w_true, C in face_instances((1e4,)):
            np.testing.assert_allclose(nnls_fit(R, C[:, 0]), w_true, rtol=0, atol=1e-7)


class TestGreedyHull:
    def test_first_rep_farthest_from_mean(self):
        # mean (1/3, 1/3); both outer columns tie at distance sqrt(5)/3 and
        # the lower index wins
        C = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        selection = greedy_hull(C, 1, "convex")
        assert selection.source_indices.tolist() == [1]

    def test_matches_exact_reference_greedy(self):
        # a reference greedy on exact hull distances from an active-set
        # solver must pick the same columns with the same step distances
        for seed in range(5):
            C = random_matrix(20, 50, seed=seed)
            selection = greedy_hull(C, 10, "convex")
            expected, expected_steps = greedy_hull_reference(C, 10)
            assert selection.source_indices.tolist() == expected
            np.testing.assert_allclose(selection.step_max_distances, expected_steps,
                                       rtol=0, atol=1e-6)

    def test_convex_null_matches_exact_reference_greedy(self):
        # the reference greedy on the zero-augmented matrix, started from
        # the zero column
        for seed in range(5):
            C = random_matrix(12, 40, seed=seed)
            selection = greedy_hull(C, 8, "convex_null")
            augmented = np.hstack([C, np.zeros((12, 1))])
            expected, expected_steps = greedy_hull_reference(augmented, 9, initial=(40,))
            assert selection.source_indices.tolist() == expected[1:]
            np.testing.assert_allclose(selection.step_max_distances, expected_steps,
                                       rtol=0, atol=1e-6)

    def test_conic_matches_exact_reference_greedy(self):
        # the reference greedy on the gnomonically scaled matrix (uniform
        # data has no degenerate columns)
        for seed in range(5):
            C = random_matrix(12, 40, seed=seed)
            selection = greedy_hull(C, 8, "conic")
            expected, expected_steps = greedy_hull_reference(gnomonic_project(C)[0], 8)
            assert selection.source_indices.tolist() == expected
            np.testing.assert_allclose(selection.step_max_distances, expected_steps,
                                       rtol=0, atol=1e-6)

    def test_convex_null_drops_null_and_counts(self):
        C = random_matrix(4, 8, seed=6)
        selection = greedy_hull(C, 3, "convex_null")
        assert selection.n_rp == 3
        assert all(0 <= s < 8 for s in selection.source_indices)
        for j, src in enumerate(selection.source_indices):
            np.testing.assert_array_equal(selection.rep_matrix[:, j], C[:, src])

    def test_conic_returns_unscaled_columns(self):
        C = random_matrix(5, 12, seed=8)
        selection = greedy_hull(C, 4, "conic")
        for j, src in enumerate(selection.source_indices):
            np.testing.assert_array_equal(selection.rep_matrix[:, j], C[:, src])

    def test_conic_excludes_degenerate_columns(self):
        C = np.array([[1.0, 0.0, 0.5], [0.5, 0.0, 1.0]])
        selection = greedy_hull(C, 2, "conic")
        assert 1 not in selection.source_indices.tolist()

    def test_conic_too_few_nondegenerate(self):
        C = np.array([[1.0, 0.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="non-degenerate"):
            greedy_hull(C, 2, "conic")

    def test_bad_arguments(self):
        C = random_matrix(3, 5, seed=0)
        with pytest.raises(ValueError):
            greedy_hull(C, 6, "convex")
        with pytest.raises(ValueError, match="hull type"):
            greedy_hull(C, 2, "fancy")


SELECTORS = {
    "kmeans": lambda C, k: kmeans(C, k, seed=1),
    "kmedoids": lambda C, k: kmedoids(C, k, seed=1),
    "hull": lambda C, k: greedy_hull(C, k, "convex"),
    "config": lambda C, k: ExperimentConfig("data", "hull", "convex", k, seeds=(1,)),
}


class TestIntegerCounts:
    """A representative count, and an experiment's seed, is a Python or
    numpy integer: a fraction is not rounded and a bool is not a count."""

    @pytest.mark.parametrize("k", [2.5, 2.0, True])
    @pytest.mark.parametrize("select", sorted(SELECTORS))
    def test_non_integer_count_rejected(self, select, k):
        with pytest.raises(ValueError, match=f"integer: got {k!r}"):
            SELECTORS[select](random_matrix(3, 6, seed=0), k)

    @pytest.mark.parametrize("select", ["kmeans", "kmedoids", "hull"])
    def test_numpy_integer_count(self, select):
        assert SELECTORS[select](random_matrix(3, 6, seed=0), np.int64(2)).n_rp == 2

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match=f"seed must be an integer: got {seed!r}"):
            ExperimentConfig("data", "kmeans", "dirac", 2, seeds=(seed,))


class TestDiracRowsAreTheAssignment:
    """The dirac rows of a k-means or k-medoids selection are the
    clustering's assignment, and the selection is a fixed point of the
    clustering's update step under them: every non-empty k-means cluster is
    centred exactly on its members' mean, and every medoid minimizes the
    total distance to its cluster's members."""

    @staticmethod
    def assert_fixed_point(cluster, C, k, seed):
        selection = cluster(C, k, seed)
        assign = fit_weights(selection.rep_matrix, C, "dirac").values.argmax(axis=1)
        for j in range(k):
            members = np.flatnonzero(assign == j)
            if members.size == 0:
                continue
            if cluster is kmeans:
                np.testing.assert_array_equal(selection.rep_matrix[:, j],
                                              C[:, members].mean(axis=1))
                continue
            M = C[:, members]
            medoid_total = np.linalg.norm(M - selection.rep_matrix[:, [j]], axis=0).sum()
            best_total = min(np.linalg.norm(M - M[:, [i]], axis=0).sum()
                             for i in range(members.size))
            assert medoid_total <= best_total + 1e-12 * (1.0 + best_total)

    @pytest.mark.parametrize("cluster", [kmeans, kmedoids], ids=["kmeans", "kmedoids"])
    @pytest.mark.parametrize("dataset", ["synthetic_gep_path", "synthetic_p2x_path"])
    def test_fixture_matrices(self, request, dataset, cluster):
        C = build_clustering_matrix(load_system(request.getfixturevalue(dataset))).values
        D = C.shape[1]
        for k in sorted({1, 2, 3, D // 2, D - 1, D}):
            for seed in range(1, 6):
                self.assert_fixed_point(cluster, C, k, seed)

    # repeated columns whose mean is not bitwise the column: three 0.7s
    # average to 0.6999999999999998, and eight 1/3s to 0.33333333333333337
    # (one feature: eight columns at 1/3, one at 2/3, two more at 1/3)
    INEXACT_MEANS = [
        (np.full((1, 3), 0.7), 3, range(4)),
        (np.array([[1 / 3] * 8 + [2 / 3] + [1 / 3] * 2]), 10, range(1, 6)),
    ]

    @pytest.mark.parametrize("cluster", [kmeans, kmedoids], ids=["kmeans", "kmedoids"])
    def test_repeated_columns(self, cluster):
        # three distinct columns repeated: k > 3 leaves clusters empty, and
        # an empty kmeans cluster keeps its center
        C = np.repeat(random_matrix(4, 3, seed=5), [3, 2, 4], axis=1)
        cases = [(C, (2, 3, 4, 6), range(1, 6))]
        cases += [(C, (k,), seeds) for C, k, seeds in self.INEXACT_MEANS]
        for C, ks, seeds in cases:
            for k in ks:
                for seed in seeds:
                    self.assert_fixed_point(cluster, C, k, seed)

    @pytest.mark.parametrize("cluster", [kmeans, kmedoids], ids=["kmeans", "kmedoids"])
    def test_selection_does_not_depend_on_the_iteration_cap(self, monkeypatch, cluster):
        # the loop stops at its fixed point, well inside every cap; a loop
        # that cycled with period 2 would end apart at 300 and 299
        for C, k, seeds in self.INEXACT_MEANS:
            for seed in seeds:
                reps = []
                for cap in (300, 299, 50):
                    monkeypatch.setattr(clustering, "MAX_ITER", cap)
                    reps.append(cluster(C, k, seed).rep_matrix)
                for rep in reps[1:]:
                    np.testing.assert_array_equal(rep, reps[0])


class TestPinnedSelections:
    """Pinned selections on the two synthetic fixtures: a change that moves
    any selection fails here.  k-means pins the dirac assignment, k-medoids
    the medoids, and each hull type the chosen columns and step distances."""

    KMEANS_ASSIGNMENT = {
        ("gep", 2, 1): [1, 1, 1, 1, 0, 0, 0, 0, 0, 1, 0, 1],
        ("gep", 2, 2): [0, 0, 1, 1, 1, 1, 0, 0, 0, 1, 0, 0],
        ("gep", 2, 3): [0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0],
        ("gep", 4, 1): [2, 2, 1, 3, 0, 0, 0, 2, 2, 1, 2, 2],
        ("gep", 4, 2): [0, 0, 3, 1, 2, 2, 2, 0, 0, 3, 0, 0],
        ("gep", 4, 3): [2, 2, 0, 3, 1, 1, 2, 2, 2, 0, 2, 2],
        ("p2x", 2, 1): [1, 0, 0, 0, 1, 1],
        ("p2x", 2, 2): [0, 1, 1, 1, 0, 0],
        ("p2x", 2, 3): [0, 1, 1, 0, 0, 0],
        ("p2x", 4, 1): [3, 0, 0, 2, 1, 1],
        ("p2x", 4, 2): [3, 1, 1, 2, 0, 0],
        ("p2x", 4, 3): [2, 1, 1, 3, 0, 0],
    }
    KMEDOIDS = {
        ("gep", 2, 1): [6, 1],
        ("gep", 2, 2): [11, 2],
        ("gep", 2, 3): [1, 4],
        ("gep", 4, 1): [5, 2, 11, 3],
        ("gep", 4, 2): [11, 3, 5, 2],
        ("gep", 4, 3): [2, 4, 11, 3],
        ("p2x", 2, 1): [2, 5],
        ("p2x", 2, 2): [5, 2],
        ("p2x", 2, 3): [5, 1],
        ("p2x", 4, 1): [1, 4, 3, 0],
        ("p2x", 4, 2): [4, 1, 3, 0],
        ("p2x", 4, 3): [4, 1, 0, 3],
    }
    HULL = {
        ("gep", "convex", 2): ([3, 10], [3.236502466886144]),
        ("gep", "convex_null", 2): ([3, 10], [4.440658373980941, 2.6324421275968084]),
        ("gep", "conic", 2): ([4, 10], [0.9403797738009321]),
        ("gep", "convex", 4): ([3, 10, 4, 9], [3.236502466886144, 1.8648548786534564, 1.4800236856260511]),
        ("gep", "convex_null", 4): ([3, 10, 4, 9], [4.440658373980941, 2.6324421275968084, 1.681677230678105, 1.4538664740646068]),
        ("gep", "conic", 4): ([4, 10, 9, 3], [0.9403797738009321, 0.6587183067397865, 0.2341210617600668]),
        ("p2x", "convex", 2): ([2, 5], [2.25108401815104]),
        ("p2x", "convex_null", 2): ([2, 5], [3.045706339295066, 2.0697666512546933]),
        ("p2x", "conic", 2): ([2, 5], [0.806861177462388]),
        ("p2x", "convex", 4): ([2, 5, 0, 4], [2.25108401815104, 0.7619342870668607, 0.6878248478969712]),
        ("p2x", "convex_null", 4): ([2, 5, 0, 4], [3.045706339295066, 2.0697666512546933, 0.7488071825701345, 0.6835475185557555]),
        ("p2x", "conic", 4): ([2, 5, 0, 4], [0.806861177462388, 0.27934471310181813, 0.24852676402126786]),
    }

    @pytest.fixture(params=["gep", "p2x"])
    def case(self, request):
        path = request.getfixturevalue(f"synthetic_{request.param}_path")
        return request.param, build_clustering_matrix(load_system(path)).values

    def test_kmeans_assignment(self, case):
        name, C = case
        for (dataset, k, seed), expected in self.KMEANS_ASSIGNMENT.items():
            if dataset == name:
                rep_matrix = kmeans(C, k, seed).rep_matrix
                assign = fit_weights(rep_matrix, C, "dirac").values.argmax(axis=1)
                assert assign.tolist() == expected, (k, seed)

    def test_kmedoids(self, case):
        name, C = case
        for (dataset, k, seed), expected in self.KMEDOIDS.items():
            if dataset == name:
                assert kmedoids(C, k, seed).source_indices.tolist() == expected, (k, seed)

    def test_greedy_hull(self, case):
        name, C = case
        for (dataset, hull_type, k), (expected, steps) in self.HULL.items():
            if dataset == name:
                selection = greedy_hull(C, k, hull_type)
                assert selection.source_indices.tolist() == expected, (hull_type, k)
                np.testing.assert_allclose(selection.step_max_distances, steps,
                                           rtol=0, atol=1e-12)
