"""Unit tests for exact weight fitting, checked against the brute-force
oracles in ``oracles``.  A fit against the identity matrix is the Euclidean
projection onto the weight space, so the projection tests call
``fit_weights(np.eye(n), ...)`` through ``project``."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repblend.weights import canonical_weight_type, fit_weights

from conftest import face_instances
from oracles import (
    PROJECTION_ORACLES,
    finite_difference_gradient,
    fit_bruteforce,
    least_squares_objective,
    nearest_column_bruteforce,
)

WEIGHT_TYPES = ("dirac", "convex", "subunit_conic", "conic")

finite_vectors = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=8
).map(lambda xs: np.array(xs, dtype=float))

finite_batches = arrays(
    float,
    st.tuples(st.integers(1, 6), st.integers(1, 8)),
    elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
)


def project(v: np.ndarray, weight_type: str) -> np.ndarray:
    """Euclidean projection of ``v`` (each row of a 2-d ``v``) onto the
    weight space: the package's fit against the identity matrix."""
    v = np.asarray(v, dtype=float)
    return fit_weights(np.eye(v.shape[-1]), np.atleast_2d(v).T, weight_type).values.reshape(v.shape)


class TestProjectSimplex:
    def test_already_on_simplex(self):
        np.testing.assert_allclose(project(np.array([0.5, 0.5]), "convex"), [0.5, 0.5])

    def test_nearest_vertex(self):
        np.testing.assert_allclose(project(np.array([2.0, 0.0]), "convex"), [1.0, 0.0])

    def test_uniform_shift(self):
        # closed form: shift both coordinates by -0.2 to reach sum 1
        np.testing.assert_allclose(project(np.array([0.4, 0.2]), "convex"), [0.6, 0.4],
                                   atol=1e-12)
        oracle = PROJECTION_ORACLES["convex"](np.array([0.4, 0.2]))
        np.testing.assert_allclose(oracle, [0.6, 0.4], atol=1e-12)

    def test_single_coordinate(self):
        np.testing.assert_allclose(project(np.array([-3.0]), "convex"), [1.0])

    @given(finite_vectors)
    @settings(max_examples=200, deadline=None)
    def test_matches_bruteforce(self, v):
        # the oracles enumerate faces, so they see at most 6 coordinates
        v = v[:6]
        for weight_type in WEIGHT_TYPES:
            got = project(v, weight_type)
            expected = PROJECTION_ORACLES[weight_type](v)
            # near-degenerate inputs admit several candidates whose distances
            # collapse at double precision; 1e-6 covers that resolution limit
            np.testing.assert_allclose(got, expected, atol=1e-6, err_msg=weight_type)
            # the strict check: no farther than the oracle's best
            assert np.linalg.norm(got - v) <= np.linalg.norm(expected - v) + 1e-9

    @given(finite_vectors)
    @settings(max_examples=200, deadline=None)
    def test_feasible(self, v):
        # at every length up to 8
        for weight_type in WEIGHT_TYPES:
            w = project(v, weight_type)
            total = w.sum()
            assert np.all(w >= 0)
            if weight_type == "dirac":
                assert np.all((w == 0.0) | (w == 1.0)) and total == 1.0
            if weight_type == "convex":
                assert abs(total - 1.0) < 1e-9
            if weight_type == "subunit_conic":
                assert total <= 1.0 + 1e-9


class TestProjectWeights:
    def test_conic_thresholds(self):
        np.testing.assert_allclose(project(np.array([-1.0, 2.0]), "conic"), [0.0, 2.0])

    def test_dirac_largest_coordinate(self):
        np.testing.assert_allclose(project(np.array([0.3, 0.7]), "dirac"), [0.0, 1.0])

    def test_dirac_tie_lowest_index(self):
        np.testing.assert_allclose(project(np.array([0.5, 0.5]), "dirac"), [1.0, 0.0])
        # the two equal distances sum their terms in different orders, and
        # plain float sums put the last vertex nearer by an ulp
        np.testing.assert_allclose(project(np.array([1.2, -1.2, -3.0, 1.2]), "dirac"),
                                   [1.0, 0.0, 0.0, 0.0])

    def test_subunit_interior_and_boundary(self):
        np.testing.assert_allclose(project(np.array([0.2, 0.3]), "subunit_conic"), [0.2, 0.3])
        np.testing.assert_allclose(project(np.array([0.9, 0.9]), "subunit_conic"), [0.5, 0.5])
        for v in (np.array([0.2, 0.3]), np.array([0.9, 0.9])):
            np.testing.assert_allclose(PROJECTION_ORACLES["subunit_conic"](v),
                                       project(v, "subunit_conic"), atol=1e-12)

    def test_subunit_alias(self):
        assert canonical_weight_type("subunit") == "subunit_conic"
        with pytest.raises(ValueError):
            canonical_weight_type("cubic")

    @pytest.mark.parametrize("weight_type", WEIGHT_TYPES)
    @given(v=finite_vectors)
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, weight_type, v):
        once = project(v, weight_type)
        twice = project(once, weight_type)
        np.testing.assert_allclose(once, twice, atol=1e-12)

    @pytest.mark.parametrize("weight_type", WEIGHT_TYPES)
    @given(batch=finite_batches)
    # the KKT check that sends a row to the bounded refit bounds each row on
    # its own: with one bound for the batch, the large second row hid the
    # first row's stop short of the optimum
    @example(batch=np.array([[0.0, 0.0, 0.0, -9.0625, 0.1, -6.40625, 0.9], [1e9] * 7]))
    @settings(max_examples=100, deadline=None)
    def test_batch_equals_row_by_row(self, weight_type, batch):
        rows = np.array([project(v, weight_type) for v in batch])
        np.testing.assert_array_equal(project(batch, weight_type), rows)

    @given(v=finite_vectors)
    # scipy's nnls alone stops short of the optimum on this augmented point
    @example(v=np.array([0.0, 0.0, 0.0, -9.0625, 0.1, -6.40625]))
    @settings(max_examples=100, deadline=None)
    def test_subunit_equals_null_augmented_simplex(self, v):
        # appending a slack coordinate holding the unused mass turns the
        # sub-unit projection into a plain simplex projection
        direct = project(v, "subunit_conic")
        slack = 1.0 - np.maximum(v, 0.0).sum()
        augmented = project(np.concatenate([v, [slack]]), "convex")
        np.testing.assert_allclose(direct, augmented[:-1], atol=1e-9)


class TestFitWeights:
    def test_exact_column_any_type(self):
        # a point equal to a representative is that representative's unit
        # row, exactly, at error 0
        for R in (np.eye(2), np.random.default_rng(1).uniform(0, 1, (5, 3))):
            for weight_type in WEIGHT_TYPES:
                wm = fit_weights(R, R[:, [1]], weight_type)
                np.testing.assert_array_equal(wm.values, np.eye(R.shape[1])[[1]])
                assert wm.projection_errors[0] == 0.0, weight_type

    def test_analytic_optima_convex_vs_conic(self):
        R = np.array([[1.0, 0.0], [0.0, 1.0]])
        c = np.array([[1.0], [1.0]])
        convex = fit_weights(R, c, "convex")
        np.testing.assert_allclose(convex.values, [[0.5, 0.5]], atol=1e-6)
        assert convex.projection_errors[0] == pytest.approx(np.sqrt(2) / 2, abs=1e-9)
        conic = fit_weights(R, c, "conic")
        np.testing.assert_allclose(conic.values, [[1.0, 1.0]], atol=1e-6)
        assert conic.projection_errors[0] == pytest.approx(0.0, abs=1e-6)

    def test_single_column(self):
        r = np.array([[0.2], [0.4]])
        c = np.array([1.0, 1.0])
        wm = fit_weights(r, c, "convex")
        assert wm.projection_errors[0] == pytest.approx(np.linalg.norm(r[:, 0] - c))
        np.testing.assert_array_equal(wm.values[0], [1.0])

    def test_dirac_without_assignment_picks_nearest(self):
        R = np.array([[0.0, 1.0], [0.0, 1.0]])
        C = np.array([[0.1, 0.9], [0.0, 1.0]])
        wm = fit_weights(R, C, "dirac")
        np.testing.assert_array_equal(wm.values, [[1.0, 0.0], [0.0, 1.0]])

    def test_dirac_without_assignment_matches_nearest_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            R = rng.uniform(0, 1, (7, 4))
            R[:, 3] = R[:, 1]  # a duplicate column: ties go to the lower index
            C = np.hstack([rng.uniform(0, 1, (7, 10)), R[:, [3]]])
            wm = fit_weights(R, C, "dirac")
            expected = np.zeros((11, 4))
            for d in range(11):
                expected[d, nearest_column_bruteforce(R, C[:, d])] = 1.0
            np.testing.assert_array_equal(wm.values, expected)
            np.testing.assert_allclose(wm.projection_errors,
                                       np.linalg.norm(R @ expected.T - C, axis=0))

    def test_rep_totals_are_column_sums(self):
        rng = np.random.default_rng(8)
        R = rng.uniform(0, 1, (6, 3))
        C = rng.uniform(0, 1, (6, 7))
        wm = fit_weights(R, C, "convex")
        np.testing.assert_allclose(wm.rep_totals, wm.values.sum(axis=0))
        np.testing.assert_allclose(wm.values.sum(axis=1), np.ones(7), atol=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        R = rng.uniform(0, 1, (9, 4))
        c = rng.uniform(0, 1, 9)
        w = rng.uniform(0, 1, 4)
        analytic = R.T @ (R @ w - c)
        numeric = finite_difference_gradient(
            lambda x: least_squares_objective(R, x, c), w)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)

    def test_subunit_ties_at_a_zero_representative(self):
        # with a zero representative the sub-unit optimum is not unique: the
        # null point ties with it, and the zero representative gets the
        # missing mass
        a = np.array([1.0, 2.0, 3.0])
        wm = fit_weights(np.column_stack([a, np.zeros(3)]), 0.5 * a[:, None], "subunit_conic")
        np.testing.assert_allclose(wm.values, [[0.5, 0.5]], atol=1e-12)
        assert wm.projection_errors[0] == pytest.approx(0.0, abs=1e-12)

    def test_zero_period_gets_a_zero_subunit_row(self):
        R = np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 4.0]])
        wm = fit_weights(R, np.column_stack([np.zeros(3), 0.5 * R[:, 0]]), "subunit_conic")
        np.testing.assert_array_equal(wm.values[0], [0.0, 0.0])
        np.testing.assert_allclose(wm.values[1], [0.5, 0.0], atol=1e-12)
        np.testing.assert_allclose(wm.projection_errors, 0.0, atol=1e-12)

    def test_subunit_fit_against_no_representatives_is_the_null_point(self):
        # the greedy convex_null hull's first step: with no representatives
        # the sub-unit hull is the origin, so every row is empty and every
        # error is the column norm; the convex and conic hulls are empty
        C = np.random.default_rng(5).uniform(-1, 1, (4, 6))
        wm = fit_weights(np.zeros((4, 0)), C, "subunit_conic")
        assert wm.values.shape == (6, 0)
        np.testing.assert_array_equal(wm.projection_errors, np.linalg.norm(C, axis=0))
        for weight_type in ("convex", "conic"):
            with pytest.raises(ValueError, match="at least one column"):
                fit_weights(np.zeros((4, 0)), C, weight_type)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="feature count"):
            fit_weights(np.zeros((3, 2)), np.zeros((4, 2)), "convex")
        with pytest.raises(ValueError, match="^rep_matrix must be two-dimensional$"):
            fit_weights(np.zeros(4), np.zeros((4, 2)), "convex")


def _random_instances():
    """Random 10x4 representatives and points, then one instance whose
    representatives are nearly collinear (rank-deficient up to 1e-9)."""
    rng = np.random.default_rng(99)
    for _ in range(8):
        yield rng.uniform(0, 1, (10, 4)), rng.uniform(0, 1.5, 10)
    base = rng.uniform(0, 1, 10)
    R = np.column_stack([base, base + 1e-9 * rng.standard_normal(10),
                         rng.uniform(0, 1, 10), rng.uniform(0, 1, 10)])
    yield R, rng.uniform(0, 1.5, 10)


FACE_OFFSETS = (0.0, 100.0, 1e4)


def _instances():
    """(R, c) pairs: the random instances, then every face-point column."""
    yield from _random_instances()
    for R, _, C in face_instances(FACE_OFFSETS):
        for c in C.T:
            yield R, c


class TestAgainstNnls:
    """The package's NNLS fit reaches the optimum that the support-enumeration
    oracle finds, on random instances (one nearly collinear) and on points
    in, near and far outside the hull."""

    @pytest.mark.parametrize("weight_type", ("convex", "subunit_conic", "conic"))
    def test_fitting_reaches_nnls_optimum(self, weight_type):
        for R, c in _instances():
            fitted = fit_weights(R, c[:, None], weight_type).projection_errors[0]
            optimum = float(np.linalg.norm(R @ fit_bruteforce(R, c, weight_type) - c))
            assert fitted == pytest.approx(optimum, abs=1e-9)


@pytest.mark.parametrize("weight_type", ("convex", "subunit_conic", "conic"))
def test_fit_satisfies_kkt(weight_type):
    """The Karush-Kuhn-Tucker conditions of min 0.5 ||R w - c||^2 over the
    weight space hold at every fitted row: feasibility, a nonnegative
    gradient on the zero set and a zero gradient on the support (after
    adding the sum constraint's multiplier where it is active), and
    complementarity."""
    for R, c in _instances():
        w = fit_weights(R, c[:, None], weight_type).values[0]
        grad = R.T @ (R @ w - c)
        tol = 1e-9 * max(1.0, float(np.abs(grad).max()))
        assert w.min() >= 0.0
        total = w.sum()
        if weight_type == "convex":
            assert abs(total - 1.0) <= 1e-12
        if weight_type == "subunit_conic":
            assert total <= 1.0 + 1e-12
        active = weight_type == "convex" or (weight_type == "subunit_conic"
                                            and total >= 1.0 - 1e-12)
        # the multiplier of sum(w) = 1 (or <= 1) that zeroes the gradient's
        # w-weighted mean; it must be nonnegative for the sub-unit inequality
        mu = -float(w @ grad) if active else 0.0
        if weight_type == "subunit_conic":
            assert mu >= -tol
        reduced = grad + mu
        support = w > 0
        assert np.all(reduced[~support] >= -tol), (weight_type, reduced)
        assert np.all(np.abs(reduced[support]) <= tol), (weight_type, reduced)
        assert np.all(np.abs(w * reduced) <= tol)
