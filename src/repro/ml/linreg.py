"""Linear regression (ordinary least squares and ridge) built on numpy.

ChARLES fits linear models in two places: once globally over all rows to guide
partition discovery, and once per partition to produce the transformation of
each conditional transformation (paper §2, "Partition discovery" and
"Transformation discovery").  :class:`LinearRegression` provides those fits,
including the degenerate cases the search inevitably hits (no features,
constant features, fewer rows than features), plus the regression metrics used
by scoring and the evaluation harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.exceptions import ModelFitError

__all__ = [
    "LinearRegression",
    "RegressionMetrics",
    "fit_linear_model",
    "r_squared",
    "mean_absolute_error",
    "total_absolute_error",
    "root_mean_squared_error",
]


def _as_matrix(features: np.ndarray | Sequence[Sequence[float]]) -> np.ndarray:
    matrix = np.asarray(features, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix.reshape(-1, 1)
    if matrix.ndim != 2:
        raise ModelFitError(f"feature matrix must be 2-dimensional, got shape {matrix.shape}")
    return matrix


def _as_vector(target: np.ndarray | Sequence[float]) -> np.ndarray:
    vector = np.asarray(target, dtype=float)
    if vector.ndim != 1:
        raise ModelFitError(f"target must be 1-dimensional, got shape {vector.shape}")
    return vector


@dataclass(frozen=True)
class RegressionMetrics:
    """Goodness-of-fit metrics for a fitted linear model."""

    r2: float
    mae: float
    rmse: float
    total_l1: float
    num_rows: int

    def as_dict(self) -> dict[str, float]:
        """The metrics as a plain dictionary (useful for reports)."""
        return {
            "r2": self.r2,
            "mae": self.mae,
            "rmse": self.rmse,
            "total_l1": self.total_l1,
            "num_rows": float(self.num_rows),
        }


@dataclass
class LinearRegression:
    """Ordinary least squares with optional ridge (L2) regularisation.

    Parameters
    ----------
    ridge:
        L2 penalty applied to the coefficients (never to the intercept).
        ``0.0`` gives plain OLS solved with ``numpy.linalg.lstsq``, which also
        handles rank-deficient design matrices gracefully.
    fit_intercept:
        Whether to include a constant term.
    """

    ridge: float = 0.0
    fit_intercept: bool = True
    coefficients: np.ndarray = field(default_factory=lambda: np.zeros(0))
    intercept: float = 0.0
    _fitted: bool = False

    # -- fitting --------------------------------------------------------------

    def fit(
        self,
        features: np.ndarray | Sequence[Sequence[float]],
        target: np.ndarray | Sequence[float],
        sample_weight: np.ndarray | None = None,
    ) -> "LinearRegression":
        """Fit the model and return ``self``.

        Rows holding a non-finite value (NaN or ±inf) in either features or
        target are dropped before fitting.  Raises :class:`ModelFitError` if
        nothing usable remains.
        """
        matrix = _as_matrix(features)
        vector = _as_vector(target)
        if matrix.shape[0] != vector.shape[0]:
            raise ModelFitError(
                f"feature rows ({matrix.shape[0]}) and target rows ({vector.shape[0]}) differ"
            )
        usable = np.isfinite(vector)
        if matrix.shape[1] > 0:
            usable &= np.isfinite(matrix).all(axis=1)
        if sample_weight is not None:
            weights = np.asarray(sample_weight, dtype=float)
            usable &= ~np.isnan(weights) & (weights > 0)
        matrix = matrix[usable]
        vector = vector[usable]
        if vector.size == 0:
            raise ModelFitError("no usable rows to fit a linear model")
        if sample_weight is not None:
            weights = np.asarray(sample_weight, dtype=float)[usable]
            scale = np.sqrt(weights)
            matrix = matrix * scale[:, None]
            vector = vector * scale
        num_features = matrix.shape[1]
        if num_features == 0:
            self.coefficients = np.zeros(0)
            self.intercept = float(np.mean(vector)) if self.fit_intercept else 0.0
            self._fitted = True
            return self

        design = np.hstack([matrix, np.ones((matrix.shape[0], 1))]) if self.fit_intercept else matrix
        if self.ridge > 0.0:
            penalty = np.eye(design.shape[1]) * self.ridge
            if self.fit_intercept:
                penalty[-1, -1] = 0.0
            gram = design.T @ design + penalty
            try:
                solution = np.linalg.solve(gram, design.T @ vector)
            except np.linalg.LinAlgError:
                solution, *_ = np.linalg.lstsq(design, vector, rcond=None)
        else:
            solution, *_ = np.linalg.lstsq(design, vector, rcond=None)
        if self.fit_intercept:
            self.coefficients = solution[:-1]
            self.intercept = float(solution[-1])
        else:
            self.coefficients = solution
            self.intercept = 0.0
        self._fitted = True
        return self

    # -- prediction and evaluation --------------------------------------------

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed successfully."""
        return self._fitted

    def predict(self, features: np.ndarray | Sequence[Sequence[float]]) -> np.ndarray:
        """Predicted target values for ``features``."""
        if not self._fitted:
            raise ModelFitError("predict called before fit")
        matrix = _as_matrix(features)
        if matrix.shape[1] != self.coefficients.shape[0]:
            raise ModelFitError(
                f"model was fitted with {self.coefficients.shape[0]} features, "
                f"got {matrix.shape[1]}"
            )
        if self.coefficients.size == 0:
            return np.full(matrix.shape[0], self.intercept, dtype=float)
        return matrix @ self.coefficients + self.intercept

    def residuals(
        self,
        features: np.ndarray | Sequence[Sequence[float]],
        target: np.ndarray | Sequence[float],
    ) -> np.ndarray:
        """Signed residuals ``target - prediction``."""
        return _as_vector(target) - self.predict(features)

    def evaluate(
        self,
        features: np.ndarray | Sequence[Sequence[float]],
        target: np.ndarray | Sequence[float],
    ) -> RegressionMetrics:
        """Compute :class:`RegressionMetrics` of this model on the given data."""
        vector = _as_vector(target)
        predictions = self.predict(features)
        return RegressionMetrics(
            r2=r_squared(vector, predictions),
            mae=mean_absolute_error(vector, predictions),
            rmse=root_mean_squared_error(vector, predictions),
            total_l1=total_absolute_error(vector, predictions),
            num_rows=int(vector.size),
        )

    def with_coefficients(
        self, coefficients: Sequence[float], intercept: float
    ) -> "LinearRegression":
        """A copy of this model with explicitly-set parameters (used by snapping)."""
        model = LinearRegression(ridge=self.ridge, fit_intercept=self.fit_intercept)
        model.coefficients = np.asarray(coefficients, dtype=float)
        model.intercept = float(intercept)
        model._fitted = True
        return model


def fit_linear_model(
    features: np.ndarray | Sequence[Sequence[float]],
    target: np.ndarray | Sequence[float],
    ridge: float = 0.0,
) -> LinearRegression:
    """Convenience wrapper: construct and fit a :class:`LinearRegression`."""
    return LinearRegression(ridge=ridge).fit(features, target)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _clean_pair(actual: np.ndarray, predicted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    usable = ~np.isnan(actual) & ~np.isnan(predicted)
    return actual[usable], predicted[usable]


def r_squared(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Coefficient of determination; 1.0 for a perfect fit, can be negative."""
    actual, predicted = _clean_pair(actual, predicted)
    if actual.size == 0:
        return float("nan")
    total = float(np.sum((actual - np.mean(actual)) ** 2))
    residual = float(np.sum((actual - predicted) ** 2))
    if total == 0.0:
        return 1.0 if residual == 0.0 else 0.0
    return 1.0 - residual / total


def mean_absolute_error(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Mean of absolute prediction errors."""
    actual, predicted = _clean_pair(actual, predicted)
    if actual.size == 0:
        return float("nan")
    return float(np.mean(np.abs(actual - predicted)))


def total_absolute_error(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Sum of absolute prediction errors (the L1 distance used by the paper)."""
    actual, predicted = _clean_pair(actual, predicted)
    return float(np.sum(np.abs(actual - predicted)))


def root_mean_squared_error(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Root of the mean squared prediction error."""
    actual, predicted = _clean_pair(actual, predicted)
    if actual.size == 0:
        return float("nan")
    return float(np.sqrt(np.mean((actual - predicted) ** 2)))
