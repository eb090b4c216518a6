"""K-means clustering with k-means++ initialisation.

Partition discovery in ChARLES clusters rows "based on the distance from the
regression line" over the condition attributes (paper §2).  This module
supplies the clustering primitive: a deterministic-under-seed k-means with
k-means++ seeding, empty-cluster repair, and an elbow-style helper for
choosing k when the caller does not fix it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.exceptions import ModelFitError

__all__ = ["KMeans", "KMeansResult", "choose_k_by_elbow"]


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of a k-means fit."""

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    iterations: int

    @property
    def k(self) -> int:
        """Number of clusters."""
        return int(self.centroids.shape[0])

    def cluster_sizes(self) -> list[int]:
        """Number of points assigned to each cluster, indexed by label."""
        return [int(np.sum(self.labels == label)) for label in range(self.k)]


@dataclass
class KMeans:
    """Lloyd's algorithm with k-means++ initialisation.

    Each update computes every centroid at once: one ``np.bincount`` sums the
    members' coordinates per (label, column) and one counts the members.
    ``bincount`` adds the rows in row order starting from 0.0, exactly as an
    axis-0 ``mean`` of a cluster's members does for two or more columns, so
    the centroids are bit-identical to the per-cluster means (an all-zero sum
    may differ in sign only, which no distance sees).  For a single column
    ``mean`` sums pairwise, and centroids can then differ in the last bit.
    Every empty cluster is re-seeded at the point farthest from its centroid.

    A run stops early, exactly, when an iteration assigns the same labels
    whose means are the current centroids (and no cluster was re-seeded):
    the next update would reproduce those centroids bit for bit, so the
    movement is 0 and the current distances are final.  This only applies
    when ``tolerance >= 0``.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k``.
    max_iterations:
        Upper bound on Lloyd iterations.
    tolerance:
        Convergence threshold on centroid movement (Frobenius norm).
    n_init:
        Number of independent restarts; the run with the lowest inertia wins.
    seed:
        Seed for the internal random generator, making fits reproducible.
    """

    n_clusters: int
    max_iterations: int = 100
    tolerance: float = 1e-6
    n_init: int = 4
    seed: int | None = 0
    result: KMeansResult | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.n_clusters < 1:
            raise ModelFitError(f"n_clusters must be >= 1, got {self.n_clusters}")

    # -- fitting --------------------------------------------------------------

    def fit(self, points: np.ndarray | Sequence[Sequence[float]]) -> KMeansResult:
        """Cluster ``points`` and return (and store) the best :class:`KMeansResult`."""
        matrix = np.asarray(points, dtype=float)
        if matrix.ndim == 1:
            matrix = matrix.reshape(-1, 1)
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise ModelFitError(f"cannot cluster an array of shape {matrix.shape}")
        if np.isnan(matrix).any():
            raise ModelFitError("k-means input contains NaN values")
        n_points = matrix.shape[0]
        k = min(self.n_clusters, n_points)
        rng = np.random.default_rng(self.seed)
        best: KMeansResult | None = None
        for _ in range(max(1, self.n_init)):
            result = self._single_run(matrix, k, rng)
            if best is None or result.inertia < best.inertia:
                best = result
        assert best is not None
        self.result = best
        return best

    def predict(self, points: np.ndarray | Sequence[Sequence[float]]) -> np.ndarray:
        """Assign each point to the nearest centroid of the stored fit."""
        if self.result is None:
            raise ModelFitError("predict called before fit")
        matrix = np.asarray(points, dtype=float)
        if matrix.ndim == 1:
            matrix = matrix.reshape(-1, 1)
        distances = _pairwise_squared_distances(matrix, self.result.centroids)
        return np.argmin(distances, axis=1)

    # -- internals ------------------------------------------------------------

    def _single_run(self, matrix: np.ndarray, k: int, rng: np.random.Generator) -> KMeansResult:
        width = matrix.shape[1]
        values = matrix.ravel()
        # bin of every matrix entry in the flattened (k, width) centroid sums
        columns = np.arange(width)
        centroids = _kmeans_plus_plus_init(matrix, k, rng)
        # labels whose exact means are `centroids` (no cluster was re-seeded)
        settled: np.ndarray | None = None
        distances: np.ndarray | None = None
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            distances = _pairwise_squared_distances(matrix, centroids)
            labels = np.argmin(distances, axis=1)
            if settled is not None and np.array_equal(labels, settled):
                # the update would return `centroids` bit for bit (movement 0)
                # and the final pass would recompute these distances
                break
            counts = np.bincount(labels, minlength=k)
            sums = np.bincount(
                (labels[:, None] * width + columns).ravel(), weights=values, minlength=k * width
            ).reshape(k, width)
            new_centroids = sums / np.maximum(counts, 1)[:, None]
            empty = counts == 0
            if empty.any():
                # re-seed every empty cluster at the point farthest from its centroid
                farthest = int(np.argmax(np.min(distances, axis=1)))
                new_centroids[empty] = matrix[farthest]
                settled = None
            else:
                settled = labels if self.tolerance >= 0 else None
            movement = float(np.linalg.norm(new_centroids - centroids))
            centroids = new_centroids
            distances = None
            if movement <= self.tolerance:
                break
        if distances is None:
            distances = _pairwise_squared_distances(matrix, centroids)
            labels = np.argmin(distances, axis=1)
        inertia = float(np.sum(np.min(distances, axis=1)))
        return KMeansResult(centroids=centroids, labels=labels, inertia=inertia,
                            iterations=iterations)


def _pairwise_squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance between every point and every centroid."""
    diff = points[:, None, :] - centroids[None, :, :]
    diff *= diff
    return np.add.reduce(diff, axis=2)


def _kmeans_plus_plus_init(matrix: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread the initial centroids proportionally to distance."""
    n_points = matrix.shape[0]
    centroids = np.empty((k, matrix.shape[1]), dtype=float)
    first = int(rng.integers(n_points))
    centroids[0] = matrix[first]
    closest_sq = np.sum((matrix - centroids[0]) ** 2, axis=1)
    for index in range(1, k):
        total = float(closest_sq.sum())
        if total <= 0.0:
            # all remaining points coincide with an existing centroid
            choice = int(rng.integers(n_points))
        else:
            probabilities = closest_sq / total
            choice = int(rng.choice(n_points, p=probabilities))
        centroids[index] = matrix[choice]
        new_sq = np.sum((matrix - centroids[index]) ** 2, axis=1)
        closest_sq = np.minimum(closest_sq, new_sq)
    return centroids


def choose_k_by_elbow(
    points: np.ndarray | Sequence[Sequence[float]],
    k_max: int = 8,
    seed: int | None = 0,
    improvement_threshold: float = 0.2,
) -> int:
    """Pick a cluster count by the elbow rule.

    Starting from ``k = 1``, k is increased while the relative inertia
    improvement of going from ``k`` to ``k + 1`` exceeds
    ``improvement_threshold``.  Used when the caller does not supply an
    explicit number of partitions.
    """
    matrix = np.asarray(points, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix.reshape(-1, 1)
    n_points = matrix.shape[0]
    if n_points == 0:
        raise ModelFitError("cannot choose k for zero points")
    k_max = max(1, min(k_max, n_points))
    previous_inertia = KMeans(1, seed=seed).fit(matrix).inertia
    if previous_inertia <= 0.0:
        return 1
    best_k = 1
    for k in range(2, k_max + 1):
        inertia = KMeans(k, seed=seed).fit(matrix).inertia
        improvement = (previous_inertia - inertia) / previous_inertia if previous_inertia > 0 else 0.0
        if improvement < improvement_threshold:
            break
        best_k = k
        previous_inertia = inertia
        if inertia <= 0.0:
            break
    return best_k
