"""Unit tests for k-means clustering."""

import numpy as np
import pytest

from repro.exceptions import ModelFitError
from repro.ml.kmeans import KMeans, choose_k_by_elbow


@pytest.fixture()
def three_blobs():
    rng = np.random.default_rng(42)
    return np.vstack(
        [
            rng.normal((0, 0), 0.2, size=(40, 2)),
            rng.normal((5, 5), 0.2, size=(40, 2)),
            rng.normal((0, 8), 0.2, size=(40, 2)),
        ]
    )


class TestKMeans:
    def test_recovers_well_separated_blobs(self, three_blobs):
        result = KMeans(3, seed=0).fit(three_blobs)
        assert sorted(result.cluster_sizes()) == [40, 40, 40]
        # each true blob maps to exactly one label
        for start in (0, 40, 80):
            assert len(set(result.labels[start:start + 40].tolist())) == 1

    def test_deterministic_under_seed(self, three_blobs):
        first = KMeans(3, seed=123).fit(three_blobs)
        second = KMeans(3, seed=123).fit(three_blobs)
        assert np.array_equal(first.labels, second.labels)
        assert first.inertia == pytest.approx(second.inertia)

    def test_inertia_decreases_with_k(self, three_blobs):
        inertias = [KMeans(k, seed=0).fit(three_blobs).inertia for k in (1, 2, 3)]
        assert inertias[0] > inertias[1] > inertias[2]

    def test_k_capped_at_number_of_points(self):
        points = np.array([[0.0], [1.0]])
        result = KMeans(5, seed=0).fit(points)
        assert result.k == 2

    def test_single_cluster(self, three_blobs):
        result = KMeans(1, seed=0).fit(three_blobs)
        assert set(result.labels.tolist()) == {0}

    def test_identical_points(self):
        points = np.ones((10, 3))
        result = KMeans(3, seed=0).fit(points)
        assert result.inertia == pytest.approx(0.0)

    def test_one_dimensional_input_reshaped(self):
        result = KMeans(2, seed=0).fit(np.array([0.0, 0.1, 10.0, 10.1]))
        assert sorted(result.cluster_sizes()) == [2, 2]

    def test_predict_assigns_nearest_centroid(self, three_blobs):
        model = KMeans(3, seed=0)
        model.fit(three_blobs)
        labels = model.predict(np.array([[0.0, 0.0], [5.0, 5.0]]))
        assert labels[0] != labels[1]

    def test_predict_before_fit_rejected(self):
        with pytest.raises(ModelFitError):
            KMeans(2).predict(np.zeros((2, 2)))

    def test_nan_input_rejected(self):
        with pytest.raises(ModelFitError):
            KMeans(2).fit(np.array([[np.nan, 1.0]]))

    def test_overflowing_distances_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(ModelFitError, match="overflow"):
            KMeans(2).fit(np.array([[1e200], [-1e200], [0.0], [5.0]]))

    def test_empty_input_rejected(self):
        with pytest.raises(ModelFitError):
            KMeans(2).fit(np.empty((0, 2)))

    def test_invalid_k_rejected(self):
        with pytest.raises(ModelFitError):
            KMeans(0)

    def test_labels_within_range(self, three_blobs):
        result = KMeans(4, seed=1).fit(three_blobs)
        assert result.labels.min() >= 0
        assert result.labels.max() < result.k


class TestElbow:
    def test_elbow_finds_three_blobs(self, three_blobs):
        assert choose_k_by_elbow(three_blobs, k_max=6, seed=0) == 3

    def test_elbow_respects_improvement_threshold(self):
        rng = np.random.default_rng(0)
        noise = rng.normal(size=(50, 2)) * 0.01
        strict = choose_k_by_elbow(noise, k_max=5, seed=0, improvement_threshold=0.6)
        assert strict <= 2
        assert 1 <= choose_k_by_elbow(noise, k_max=5, seed=0) <= 5

    def test_elbow_identical_points_returns_one(self):
        assert choose_k_by_elbow(np.ones((20, 2)), k_max=5) == 1

    def test_elbow_empty_rejected(self):
        with pytest.raises(ModelFitError):
            choose_k_by_elbow(np.empty((0, 2)))
