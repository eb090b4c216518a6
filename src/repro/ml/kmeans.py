"""K-means clustering with k-means++ initialisation.

Partition discovery in ChARLES clusters rows "based on the distance from the
regression line" over the condition attributes (paper §2).  This module
supplies the clustering primitive: a deterministic-under-seed k-means with
k-means++ seeding, empty-cluster repair, and an elbow-style helper for
choosing k when the caller does not fix it.

Every squared distance comes from one kernel, :class:`_SquaredDistances`,
built once per point set and reused for each centroid set: it subtracts into
a preallocated buffer, squares in place and sums over the width into a
preallocated ``(k, n)`` output, one row per centroid.  Its summation order
is the one a last-axis ``np.add.reduce`` of an ``(n, k, d)`` difference
array uses, so fits are bit-identical to computing that array afresh.  Below
8 columns numpy adds a last axis one element at a time, in column order.
The kernel stores the points column-major, ``(d, 1, n)``, builds a
``(d, k, n)`` buffer and reduces over the leading axis, which adds the same
columns in the same order, with every inner loop running over all n points
instead of over 3 to 7 columns.  From 8 columns on numpy sums a last axis
pairwise, so there the kernel reduces the last axis of a ``(k, n, d)``
buffer, whose per-element sums are the ones of ``(n, k, d)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.exceptions import ModelFitError

__all__ = ["KMeans", "KMeansResult", "choose_k_by_elbow"]

#: the shortest last axis numpy's ``add.reduce`` sums pairwise rather than in order
_PAIRWISE_MIN_WIDTH = 8


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

    Distances come from one :class:`_SquaredDistances` kernel per fit, shared
    by every restart (see the module docstring for why its sums are
    bit-identical to a fresh ``(n, k, d)`` reduction).

    Each update computes every centroid at once: one ``np.bincount`` sums the
    members' coordinates per (column, label) and one counts the members.
    The entries go in column by column, so each bin still receives its rows
    in row order, and ``bincount`` adds them starting from 0.0, exactly as
    an axis-0 ``mean`` of a cluster's members does for two or more columns,
    so the centroids are bit-identical to the per-cluster means (an all-zero
    sum may differ in sign only, which no distance sees).  For a single column
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
        matrix = _as_matrix(points)
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise ModelFitError(f"cannot cluster an array of shape {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise ModelFitError("k-means input contains non-finite values")
        k = min(self.n_clusters, matrix.shape[0])
        distances = _SquaredDistances(matrix, k)
        rng = np.random.default_rng(self.seed)
        best: KMeansResult | None = None
        for _ in range(max(1, self.n_init)):
            result = self._single_run(matrix, k, rng, distances)
            if best is None or result.inertia < best.inertia:
                best = result
        assert best is not None
        self.result = best
        return best

    def predict(self, points: np.ndarray | Sequence[Sequence[float]]) -> np.ndarray:
        """Assign each point to the nearest centroid of the stored fit."""
        if self.result is None:
            raise ModelFitError("predict called before fit")
        centroids = self.result.centroids
        return _SquaredDistances(_as_matrix(points), len(centroids))(centroids).argmin(axis=0)

    # -- internals ------------------------------------------------------------

    def _single_run(
        self,
        matrix: np.ndarray,
        k: int,
        rng: np.random.Generator,
        squared_distances: _SquaredDistances,
    ) -> KMeansResult:
        n_points, width = matrix.shape
        # the entries column by column, and the bin of each in the flattened
        # (width, k) centroid sums, less its label
        values = np.ascontiguousarray(matrix.T).ravel()
        offsets = np.repeat(np.arange(width) * k, n_points).reshape(width, n_points)
        centroids = _kmeans_plus_plus_init(matrix, k, rng)
        # labels whose exact means are `centroids` (no cluster was re-seeded)
        settled: np.ndarray | None = None
        distances: np.ndarray | None = None
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            distances = squared_distances(centroids)
            labels = distances.argmin(axis=0)
            if settled is not None and (labels == settled).all():
                # the update would return `centroids` bit for bit (movement 0)
                # and the final pass would recompute these distances
                break
            counts = np.bincount(labels, minlength=k)
            sums = np.bincount((labels + offsets).ravel(), weights=values, minlength=width * k)
            new_centroids = (sums.reshape(width, k) / np.maximum(counts, 1)).T
            if counts.all():
                settled = labels if self.tolerance >= 0 else None
            else:
                # re-seed every empty cluster at the point farthest from its centroid
                farthest = int(distances.min(axis=0).argmax())
                new_centroids[counts == 0] = matrix[farthest]
                settled = None
            # what np.linalg.norm computes for a real array
            step = (new_centroids - centroids).ravel()
            movement = math.sqrt(step.dot(step))
            centroids = new_centroids
            distances = None
            if movement <= self.tolerance:
                break
        if distances is None:
            distances = squared_distances(centroids)
            labels = distances.argmin(axis=0)
        inertia = float(distances.min(axis=0).sum())
        # an update leaves the centroids column-major; results are row-major
        return KMeansResult(centroids=np.ascontiguousarray(centroids), labels=labels,
                            inertia=inertia, iterations=iterations)


def _as_matrix(points: np.ndarray | Sequence[Sequence[float]]) -> np.ndarray:
    matrix = np.asarray(points, dtype=float)
    return matrix.reshape(-1, 1) if matrix.ndim == 1 else matrix


class _SquaredDistances:
    """Squared Euclidean distances from fixed points to ``k`` centroids at a time.

    Calling it with a ``(k, d)`` centroid array returns a ``(k, n)`` array
    that the next call overwrites.  Below ``_PAIRWISE_MIN_WIDTH`` columns the
    points are stored as ``(d, 1, n)`` and the sum runs over the leading axis;
    from there on they stay ``(1, n, d)`` and the sum runs over the last axis
    (see the module docstring).
    """

    def __init__(self, matrix: np.ndarray, k: int) -> None:
        n_points, width = matrix.shape
        if width < _PAIRWISE_MIN_WIDTH:
            self._axis = 0
            self._points = np.ascontiguousarray(matrix.T).reshape(width, 1, n_points)
            self._buffer = np.empty((width, k, n_points))
        else:
            self._axis = 2
            self._points = matrix[None, :, :]
            self._buffer = np.empty((k, n_points, width))
        self._out = np.empty((k, n_points))

    def __call__(self, centroids: np.ndarray) -> np.ndarray:
        shaped = centroids.T[:, :, None] if self._axis == 0 else centroids[:, None, :]
        buffer = self._buffer
        np.subtract(self._points, shaped, out=buffer)
        np.multiply(buffer, buffer, out=buffer)
        return np.add.reduce(buffer, axis=self._axis, out=self._out)


def _kmeans_plus_plus_init(matrix: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread the initial centroids proportionally to distance."""
    n_points = matrix.shape[0]
    centroids = np.empty((k, matrix.shape[1]), dtype=float)
    squared_distances = _SquaredDistances(matrix, 1)
    first = int(rng.integers(n_points))
    centroids[0] = matrix[first]
    closest_sq = squared_distances(centroids[:1])[0].copy()
    for index in range(1, k):
        total = float(closest_sq.sum())
        if not math.isfinite(total):
            # an overflowed total leaves no valid probabilities to draw from
            raise ModelFitError("k-means++ distances overflow float64")
        if total <= 0.0:
            # all remaining points coincide with an existing centroid
            choice = int(rng.integers(n_points))
        else:
            choice = _weighted_draw(closest_sq / total, rng)
        centroids[index] = matrix[choice]
        np.minimum(closest_sq, squared_distances(centroids[index:index + 1])[0], out=closest_sq)
    return centroids


def _weighted_draw(probabilities: np.ndarray, rng: np.random.Generator) -> int:
    """The index ``rng.choice(len(probabilities), p=probabilities)`` returns.

    It is the arithmetic ``Generator.choice`` itself runs, on the same single
    uniform double, without that call's validation of ``p``.
    """
    cdf = np.cumsum(probabilities)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


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
    matrix = _as_matrix(points)
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
