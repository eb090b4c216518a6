"""The k-means loop against the per-cluster loop and kernels it replaced.

``KMeans`` computes all centroids of an iteration with two ``np.bincount``
calls, stops early once an iteration reproduces the labels that produced
the current centroids, takes every distance from one reused column-major
kernel and draws k-means++ seeds without ``Generator.choice``.  All of it
must leave every fit bit-identical to the oracle kept below, which shares no
code with the module: one ``mean`` per cluster, a fresh ``(n, k, d)``
distance array per pass, ``rng.choice`` seeding and one more distance pass
after convergence.  Labels, centroid bytes, inertia and iteration count are
compared for two or more columns.  With one column numpy's ``mean`` sums
pairwise, so centroids may differ in the last bit, and a row lying halfway
between two centroids may go either way: there only the labels of rows
whose nearest centroid is unique by more than a few ulps are compared.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ml import kmeans
from repro.ml.kmeans import KMeans, KMeansResult


def _reference_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance between every point and every centroid."""
    diff = points[:, None, :] - centroids[None, :, :]
    diff *= diff
    return np.add.reduce(diff, axis=2)


def _reference_init(matrix: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding with ``rng.choice`` draws."""
    n_points = matrix.shape[0]
    centroids = np.empty((k, matrix.shape[1]), dtype=float)
    first = int(rng.integers(n_points))
    centroids[0] = matrix[first]
    closest_sq = np.sum((matrix - centroids[0]) ** 2, axis=1)
    for index in range(1, k):
        total = float(closest_sq.sum())
        if total <= 0.0:
            choice = int(rng.integers(n_points))
        else:
            choice = int(rng.choice(n_points, p=closest_sq / total))
        centroids[index] = matrix[choice]
        new_sq = np.sum((matrix - centroids[index]) ** 2, axis=1)
        closest_sq = np.minimum(closest_sq, new_sq)
    return centroids


class ReferenceKMeans(KMeans):
    """``KMeans`` with the per-cluster centroid loop and no early exit."""

    init = staticmethod(_reference_init)
    #: whether a pass against updated centroids, before the last pass, had
    #: a row nearly tied between two centroids (set by ``fit``)
    tied_midway = False

    def _single_run(self, matrix, k, rng, squared_distances=None) -> KMeansResult:
        centroids = self.init(matrix, k, rng)
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            if iterations > 1 and not _decided_rows(matrix, centroids).all():
                self.tied_midway = True
            distances = _reference_distances(matrix, centroids)
            labels = np.argmin(distances, axis=1)
            new_centroids = centroids.copy()
            for label in range(k):
                members = matrix[labels == label]
                if members.shape[0] == 0:
                    farthest = int(np.argmax(np.min(distances, axis=1)))
                    new_centroids[label] = matrix[farthest]
                else:
                    new_centroids[label] = members.mean(axis=0)
            movement = float(np.linalg.norm(new_centroids - centroids))
            centroids = new_centroids
            if movement <= self.tolerance:
                break
        distances = _reference_distances(matrix, centroids)
        labels = np.argmin(distances, axis=1)
        inertia = float(np.sum(np.min(distances, axis=1)))
        return KMeansResult(centroids=centroids, labels=labels, inertia=inertia,
                            iterations=iterations)


@st.composite
def clustering_problems(draw, widths=st.integers(2, 12)):
    """A point matrix plus KMeans settings.

    Values are rounded to a drawn number of decimals, so ties between
    distances occur, and a drawn share of the rows repeat earlier rows, so
    k can exceed the number of distinct points (empty clusters).
    """
    n = draw(st.integers(1, 2000))
    width = draw(widths)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = np.round(rng.normal(size=(n, width)) * draw(st.sampled_from([0.5, 1.0, 20.0])),
                      draw(st.integers(0, 3)))
    duplicated = rng.random(n) < draw(st.sampled_from([0.0, 0.5, 0.95]))
    duplicated[0] = False
    sources = rng.integers(0, np.arange(n) + 1)
    matrix[duplicated] = matrix[sources[duplicated]]
    settings_ = {
        "n_clusters": draw(st.integers(1, 8)),
        "max_iterations": draw(st.sampled_from([1, 2, 100])),
        "tolerance": draw(st.sampled_from([1e-6, 0.0, -1.0, 0.5])),
        "n_init": draw(st.integers(1, 4)),
        "seed": draw(st.integers(0, 1000)),
    }
    return matrix, settings_


#: 57 one-column points where -1.9 lies halfway between the centroids -2.3
#: and -1.5; the two fits' centroids differ in the last bit and label that
#: row differently (a tie hypothesis found)
_HALFWAY_ROW = (
    np.array([
        -1.5, -0.4, -2.4, 1.0, -1.2, -0.2, 0.6, 0.1, -0.9, 1.1, -0.1, -0.5, -0.9, -1.4, 1.0,
        -0.9, -0.1, -1.6, -0.3, 1.8, -1.4, 0.1, -0.8, 1.0, 1.8, 1.6, -1.5, 0.7, -1.9, -1.4,
        0.3, 0.3, -0.1, 0.1, 0.5, -1.2, 0.6, -0.9, 0.2, 1.1, 0.8, -0.2, -0.6, 0.6, 1.1, -0.3,
        0.5, -0.9, 0.7, 1.1, -0.9, 1.3, -1.3, -0.7, -2.2, -0.4, -0.3,
    ])[:, None],
    {"n_clusters": 4, "max_iterations": 1, "tolerance": 1e-06, "n_init": 1, "seed": 0},
)


def _decided_rows(matrix: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Rows whose nearest centroid beats the runner-up by more than a few ulps.

    The margin is measured in distance, not squared distance, so a centroid
    moved by a few ulps of the data's scale moves it by about as much.
    """
    if centroids.shape[0] < 2:
        return np.ones(matrix.shape[0], dtype=bool)
    distances = np.sort(np.sqrt(_reference_distances(matrix, centroids)), axis=1)
    scale = max(float(np.abs(matrix).max()), float(np.abs(centroids).max()))
    return distances[:, 1] - distances[:, 0] > 16 * np.spacing(scale)


def _both(matrix: np.ndarray, settings_: dict) -> tuple[KMeansResult, KMeansResult]:
    return KMeans(**settings_).fit(matrix), ReferenceKMeans(**settings_).fit(matrix)


class TestOnePassUpdate:
    @settings(max_examples=120, deadline=None)
    @given(problem=clustering_problems())
    def test_bit_identical_to_the_per_cluster_loop(self, problem):
        matrix, settings_ = problem
        got, want = _both(matrix, settings_)
        assert np.array_equal(got.labels, want.labels)
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert got.inertia == want.inertia
        assert got.iterations == want.iterations

    @settings(max_examples=40, deadline=None)
    @given(problem=clustering_problems(widths=st.just(1)))
    @example(problem=_HALFWAY_ROW)
    def test_one_column_keeps_the_labels(self, problem):
        matrix, settings_ = problem
        reference = ReferenceKMeans(**settings_)
        got, want = KMeans(**settings_).fit(matrix), reference.fit(matrix)
        # every row that is not tied goes to its nearest centroid
        decided = _decided_rows(matrix, got.centroids)
        nearest = np.argmin(_reference_distances(matrix, got.centroids), axis=1)
        assert np.array_equal(got.labels[decided], nearest[decided])
        if reference.tied_midway:
            return  # that row may have sent the two fits down different paths
        decided = _decided_rows(matrix, want.centroids)
        assert np.array_equal(got.labels[decided], want.labels[decided])

    def test_more_clusters_than_distinct_points(self):
        matrix = np.repeat(np.array([[0.0, 1.0], [3.0, 2.0], [5.0, 5.0]]), 10, axis=0)
        got, want = _both(matrix, {"n_clusters": 6, "seed": 1})
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert np.array_equal(got.labels, want.labels)
        assert len(set(got.labels.tolist())) <= 3

    def test_early_exit_skips_the_confirming_iteration_only(self):
        # well separated blobs converge; the early exit must report the same
        # iteration count as the loop that ran the zero-movement update
        rng = np.random.default_rng(5)
        matrix = np.vstack([rng.normal(c, 0.1, size=(50, 3)) for c in (0.0, 4.0, 9.0)])
        got, want = _both(matrix, {"n_clusters": 3, "seed": 2})
        assert got.iterations == want.iterations > 1
        assert got.inertia == want.inertia

    def test_negative_tolerance_runs_every_iteration(self):
        matrix = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
        got, want = _both(matrix, {"n_clusters": 2, "tolerance": -1.0, "max_iterations": 7})
        assert got.iterations == want.iterations == 7
        assert got.centroids.tobytes() == want.centroids.tobytes()

    def test_no_early_exit_after_a_reseeded_cluster(self, monkeypatch):
        # iteration 1 leaves cluster 2 empty and re-seeds it on the farthest
        # point (10, 0), which is also the mean of cluster 0; iteration 2
        # repeats the labels, but the re-seed there picks (0, 0) instead, so
        # the centroids still move and stopping would be wrong
        matrix = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 0.0]])
        start = np.array([[7.0, 0.0], [1.0, 0.0], [100.0, 0.0]])
        monkeypatch.setattr(kmeans, "_kmeans_plus_plus_init", lambda m, k, rng: start.copy())
        monkeypatch.setattr(ReferenceKMeans, "init", staticmethod(lambda m, k, rng: start.copy()))
        got, want = _both(matrix, {"n_clusters": 3, "n_init": 1})
        assert got.iterations == want.iterations > 2
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert np.array_equal(got.labels, want.labels)


class TestDistanceKernel:
    @pytest.mark.parametrize("width", range(1, 13))
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_bit_identical_to_a_fresh_last_axis_reduction(self, width, k):
        # below 8 columns the kernel sums over a leading axis, from 8 on over
        # the last one; either way every bit must match the reference
        rng = np.random.default_rng(width * 10 + k)
        points = rng.normal(size=(257, width)) * rng.uniform(0.01, 100.0, size=width)
        kernel = kmeans._SquaredDistances(points, k)
        for _ in range(3):
            centroids = rng.normal(size=(k, width))
            want = _reference_distances(points, centroids)
            # the kernel returns distances by centroid, (k, n)
            assert kernel(centroids).T.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(problem=clustering_problems(widths=st.integers(1, 12)), seed=st.integers(0, 2**32 - 1))
    def test_predict_is_the_reference_argmin(self, problem, seed):
        matrix, settings_ = problem
        model = KMeans(**settings_)
        centroids = model.fit(matrix).centroids
        others = np.random.default_rng(seed).normal(size=(37, matrix.shape[1]))
        for points in (matrix, others):
            want = np.argmin(_reference_distances(points, centroids), axis=1)
            assert np.array_equal(model.predict(points), want)


@st.composite
def draw_weights(draw):
    """Non-negative k-means++ weights with at least one positive entry."""
    n = draw(st.integers(1, 60))
    entries = st.sampled_from([0.0, 1e-300, 1e-9, 0.25, 1.0, 3.0, 1e12]) | st.floats(0.0, 1e3)
    weights = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    if not weights.any():
        weights[draw(st.integers(0, n - 1))] = draw(st.floats(1e-6, 1e6))
    return weights


class TestDirectDraw:
    @staticmethod
    def _assert_draws_agree(weights: np.ndarray, seed: int) -> None:
        probabilities = weights / float(weights.sum())
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        want = int(numpys.choice(len(probabilities), p=probabilities))
        assert kmeans._weighted_draw(probabilities, ours) == want
        assert ours.random() == numpys.random()

    @settings(max_examples=300, deadline=None)
    @given(weights=draw_weights(), seed=st.integers(0, 2**32 - 1))
    def test_same_index_and_generator_state_as_choice(self, weights, seed):
        self._assert_draws_agree(weights, seed)

    @pytest.mark.parametrize("seed", range(20))
    def test_one_nonzero_entry(self, seed):
        weights = np.zeros(9)
        weights[seed % 9] = 0.5
        self._assert_draws_agree(weights, seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_one_point(self, seed):
        self._assert_draws_agree(np.array([2.0]), seed)
