"""Feature scaling utilities.

The condition attributes fed to k-means mix magnitudes (years of experience
vs. six-figure salaries) and the residual-from-regression feature has its own
scale, so clustering without normalisation would be dominated by whichever
column happens to have the largest numbers.  These scalers bring every feature
to a comparable range before clustering and are also reused by the encoders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.exceptions import ModelFitError

__all__ = ["StandardScaler", "MinMaxScaler"]


def _as_matrix(values: np.ndarray | Sequence[Sequence[float]]) -> np.ndarray:
    matrix = np.asarray(values, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix.reshape(-1, 1)
    if matrix.ndim != 2:
        raise ModelFitError(f"expected a 2-d matrix, got shape {matrix.shape}")
    return matrix


@dataclass
class StandardScaler:
    """Scale each column to zero mean and unit variance.

    Columns with zero variance are left centred but unscaled (divisor 1), so
    constant features do not produce NaNs.
    """

    means: np.ndarray = field(default_factory=lambda: np.zeros(0))
    stds: np.ndarray = field(default_factory=lambda: np.zeros(0))
    _fitted: bool = False

    def fit(self, values: np.ndarray | Sequence[Sequence[float]]) -> "StandardScaler":
        """Learn per-column means and standard deviations."""
        matrix = _as_matrix(values)
        if matrix.shape[0] == 0:
            raise ModelFitError("cannot fit a scaler on zero rows")
        self.means = np.nanmean(matrix, axis=0)
        stds = np.nanstd(matrix, axis=0)
        stds[stds == 0.0] = 1.0
        self.stds = stds
        self._fitted = True
        return self

    def transform(self, values: np.ndarray | Sequence[Sequence[float]]) -> np.ndarray:
        """Apply the learned scaling."""
        if not self._fitted:
            raise ModelFitError("transform called before fit")
        matrix = _as_matrix(values)
        return (matrix - self.means) / self.stds

    def fit_transform(self, values: np.ndarray | Sequence[Sequence[float]]) -> np.ndarray:
        """Fit and transform in one step."""
        return self.fit(values).transform(values)

    def inverse_transform(self, values: np.ndarray | Sequence[Sequence[float]]) -> np.ndarray:
        """Undo the scaling."""
        if not self._fitted:
            raise ModelFitError("inverse_transform called before fit")
        matrix = _as_matrix(values)
        return matrix * self.stds + self.means


@dataclass
class MinMaxScaler:
    """Scale each column linearly into ``[0, 1]``.

    Constant columns map to 0.5 so they carry no distance information.
    """

    minimums: np.ndarray = field(default_factory=lambda: np.zeros(0))
    ranges: np.ndarray = field(default_factory=lambda: np.zeros(0))
    _fitted: bool = False

    def fit(self, values: np.ndarray | Sequence[Sequence[float]]) -> "MinMaxScaler":
        """Learn per-column minimums and ranges."""
        matrix = _as_matrix(values)
        if matrix.shape[0] == 0:
            raise ModelFitError("cannot fit a scaler on zero rows")
        # which of -0.0 and +0.0 nanmin returns depends on the array's memory
        # layout; +0.0 makes a column scale alike alone and inside a matrix
        self.minimums = np.nanmin(matrix, axis=0) + 0.0
        ranges = np.nanmax(matrix, axis=0) - self.minimums
        self.ranges = ranges
        self._fitted = True
        return self

    def transform(self, values: np.ndarray | Sequence[Sequence[float]]) -> np.ndarray:
        """Apply the learned scaling (constant columns become 0.5)."""
        if not self._fitted:
            raise ModelFitError("transform called before fit")
        matrix = _as_matrix(values)
        safe_ranges = np.where(self.ranges == 0.0, 1.0, self.ranges)
        scaled = (matrix - self.minimums) / safe_ranges
        constant = self.ranges == 0.0
        if constant.any():
            scaled[:, constant] = 0.5
        return scaled

    def fit_transform(self, values: np.ndarray | Sequence[Sequence[float]]) -> np.ndarray:
        """Fit and transform in one step."""
        return self.fit(values).transform(values)

    def inverse_transform(self, values: np.ndarray | Sequence[Sequence[float]]) -> np.ndarray:
        """Undo the scaling (constant columns return their original minimum)."""
        if not self._fitted:
            raise ModelFitError("inverse_transform called before fit")
        matrix = _as_matrix(values)
        return matrix * self.ranges + self.minimums
