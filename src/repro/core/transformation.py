"""Transformations: the "what" half of a conditional transformation.

A ChARLES transformation is a linear model that computes the *new* value of
the target attribute from (source-version) attribute values, e.g.
``new_bonus = 1.05 x bonus + 1000``.  :class:`LinearTransformation` wraps the
coefficients with the behaviour the rest of the system needs: applying the
model to a table, measuring its complexity and normality for interpretability
scoring, snapping coefficients to rounder values, and rendering the equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.normality import normality_of_values, snap_candidates, value_normality
from repro.exceptions import ModelFitError
from repro.ml.linreg import LinearRegression
from repro.ml.model_tree import LeafModel
from repro.relational.table import Table

__all__ = ["LinearTransformation", "partition_errors"]

_ZERO_EPSILON = 1e-10


def partition_errors(
    matrix: np.ndarray,
    coefficients: np.ndarray,
    intercepts: np.ndarray,
    actual: np.ndarray,
) -> np.ndarray:
    """L1 errors of ``m`` linear candidates on one partition, in one pass.

    ``matrix`` is the partition's ``(n, d)`` feature matrix, ``coefficients``
    an ``(m, d)`` array with one candidate per row, ``intercepts`` the ``m``
    intercepts and ``actual`` the ``n`` actual new values.  A candidate's
    error is the sum of ``|prediction - actual|`` over the rows where the
    prediction is known and the actual value is finite, or ``inf`` when there
    is no such row: a non-finite actual value counts as missing, and an
    infinite prediction errs by ``inf``.

    Each error is bit-identical to summing the errors of that candidate's
    :meth:`LinearTransformation.apply` with a 1-D ``np.sum``: a run of equal
    coefficient rows costs one ``matrix @ c`` (one ``matrix @ C`` product
    would round differently; in the snapping grid the intercept varies
    fastest, so each distinct row is one run), intercepts are added by
    broadcasting, and each candidate's errors are summed along one row of a
    C-contiguous buffer.
    """
    intercepts = np.asarray(intercepts, dtype=float)
    coefficients = np.ascontiguousarray(coefficients, dtype=float)
    actual = np.asarray(actual, dtype=float)
    is_start = np.empty(intercepts.size, dtype=bool)
    is_start[:1] = True
    np.any(coefficients[1:] != coefficients[:-1], axis=1, out=is_start[1:])
    starts = np.flatnonzero(is_start)
    predictions = np.empty((intercepts.size, actual.size))
    for start, end in zip(starts, np.append(starts[1:], intercepts.size)):
        predictions[start:end] = matrix @ coefficients[start]
    # with no features the product is 0.0, and 0.0 + intercept errs exactly
    # as apply's constant prediction does
    predictions += intercepts[:, None]
    missing = np.isnan(predictions)
    missing |= ~np.isfinite(actual)
    predictions -= actual
    np.abs(predictions, out=predictions)
    missing_rows = missing.any(axis=0)
    if not np.array_equal(missing_rows, missing.all(axis=0)):
        # the usable rows differ between candidates only through infinite
        # values (inf * 0 and inf - inf are NaN): sum each on its own rows
        return np.array(
            [np.sum(error[~mask]) if not mask.all() else np.inf
             for error, mask in zip(predictions, missing)]
        )
    if missing_rows.all():
        return np.full(intercepts.size, np.inf)
    if missing_rows.any():
        predictions = predictions.compress(~missing_rows, axis=1)
    return predictions.sum(axis=1)


def _snap_options(constant: float) -> tuple[list[float], list[float]]:
    """The values ``constant`` may snap to, and the normality of each.

    The constant itself comes first, then 0 (for a non-zero constant), then
    its :func:`~repro.core.normality.snap_candidates` that are rounder than
    it, roundest first.
    """
    own = value_normality(constant)
    values, normalities = [constant], [own]
    if constant != 0.0:
        # dropping a negligible term entirely is the most interpretable snap
        values.append(0.0)
        normalities.append(value_normality(0.0))
    for candidate in snap_candidates(constant):
        normality = value_normality(candidate)
        if normality > own:
            values.append(candidate)
            normalities.append(normality)
    return values, normalities


@dataclass(frozen=True)
class LinearTransformation:
    """A linear update rule for one target attribute.

    Parameters
    ----------
    target:
        The attribute whose new value this transformation computes.
    feature_names:
        Source-version attributes feeding the linear model (may include the
        target attribute itself — "last year's bonus").
    coefficients:
        One coefficient per feature.
    intercept:
        The constant term.
    """

    target: str
    feature_names: tuple[str, ...]
    coefficients: tuple[float, ...]
    intercept: float

    def __post_init__(self) -> None:
        if len(self.feature_names) != len(self.coefficients):
            raise ModelFitError(
                f"{len(self.feature_names)} features but {len(self.coefficients)} coefficients"
            )

    # -- constructors ----------------------------------------------------------

    @classmethod
    def identity(cls, target: str) -> "LinearTransformation":
        """The no-change transformation ``new_target = target``."""
        return cls(target, (target,), (1.0,), 0.0)

    @classmethod
    def constant_shift(cls, target: str, amount: float) -> "LinearTransformation":
        """``new_target = target + amount``."""
        return cls(target, (target,), (1.0,), float(amount))

    @classmethod
    def scale(cls, target: str, factor: float, shift: float = 0.0) -> "LinearTransformation":
        """``new_target = factor * target + shift``."""
        return cls(target, (target,), (float(factor),), float(shift))

    @classmethod
    def from_regression(
        cls,
        model: LinearRegression,
        feature_names: Sequence[str],
        target: str,
        drop_zero_coefficients: bool = True,
        zero_epsilon: float = 1e-6,
    ) -> "LinearTransformation":
        """Wrap a fitted :class:`~repro.ml.linreg.LinearRegression`.

        Coefficients with magnitude below ``zero_epsilon`` are dropped (along
        with their features) when ``drop_zero_coefficients`` is set, which
        keeps the rendered equations minimal.
        """
        if not model.is_fitted:
            raise ModelFitError("cannot build a transformation from an unfitted model")
        names = list(feature_names)
        coefficients = [float(value) for value in model.coefficients]
        if len(names) != len(coefficients):
            raise ModelFitError(
                f"model has {len(coefficients)} coefficients for {len(names)} features"
            )
        if drop_zero_coefficients:
            kept = [
                (name, coefficient)
                for name, coefficient in zip(names, coefficients)
                if abs(coefficient) > zero_epsilon
            ]
            names = [name for name, _ in kept]
            coefficients = [coefficient for _, coefficient in kept]
        return cls(target, tuple(names), tuple(coefficients), float(model.intercept))

    # -- semantics -------------------------------------------------------------

    @property
    def is_identity(self) -> bool:
        """Whether this transformation leaves the target unchanged."""
        return (
            self.feature_names == (self.target,)
            and len(self.coefficients) == 1
            and abs(self.coefficients[0] - 1.0) < _ZERO_EPSILON
            and abs(self.intercept) < _ZERO_EPSILON
        )

    def apply(self, table: Table, rows: np.ndarray | None = None) -> np.ndarray:
        """Predicted new target values for the rows of the source ``table``.

        ``rows`` (a boolean mask or an index array) restricts the prediction
        to those rows, read straight from the table's columns; by default
        every row is predicted.
        """
        matrix = table.numeric_matrix(self.feature_names, rows)
        if not self.feature_names:
            return np.full(matrix.shape[0], self.intercept, dtype=float)
        # a ±inf cell times a 0 coefficient, or opposite infinities summed,
        # is NaN (no prediction), as intended; numpy would warn about it
        with np.errstate(invalid="ignore", over="ignore"):
            return matrix @ np.asarray(self.coefficients, dtype=float) + self.intercept

    def errors(self, source: Table, actual_new_values: np.ndarray) -> np.ndarray:
        """Absolute errors of this transformation against the actual new values."""
        return np.abs(self.apply(source) - np.asarray(actual_new_values, dtype=float))

    def signature(self) -> tuple:
        """The equivalence identity of this transformation: features plus
        constants rounded to nine decimals.

        Two transformations with equal signatures are treated as the same rule
        everywhere equivalence matters — when merging partitions that follow
        one rule and when deduplicating candidate summaries — so the rounding
        precision lives here, in one place.
        """
        return (
            self.feature_names,
            tuple(round(coefficient, 9) for coefficient in self.coefficients),
            round(self.intercept, 9),
        )

    # -- interpretability inputs ----------------------------------------------

    @property
    def complexity(self) -> int:
        """Number of variables in the equation (plus one if an intercept is used)."""
        variables = sum(1 for coefficient in self.coefficients if abs(coefficient) > _ZERO_EPSILON)
        return variables + (1 if abs(self.intercept) > _ZERO_EPSILON else 0)

    def normality(self) -> float:
        """Mean normality of the non-trivial constants of the equation."""
        constants = [
            coefficient
            for coefficient in self.coefficients
            if abs(coefficient) > _ZERO_EPSILON and abs(coefficient - 1.0) > _ZERO_EPSILON
        ]
        if abs(self.intercept) > _ZERO_EPSILON:
            constants.append(self.intercept)
        return normality_of_values(constants)

    # -- snapping ---------------------------------------------------------------

    def snapped(
        self,
        source: Table,
        actual: np.ndarray,
        tolerance: float,
        max_combinations: int = 256,
        rows: np.ndarray | None = None,
    ) -> tuple["LinearTransformation", float]:
        """Round constants to "normal" values when accuracy allows it.

        A candidate's accuracy loss is its L1 error on the partition rows
        (``source``, or the ``rows`` of it when given) against their
        ``actual`` new values, minus this
        transformation's error, relative to the summed magnitude of the finite
        actual values.  A candidate whose loss exceeds ``tolerance``, or is
        unknown (NaN), is rejected.

        Each constant may keep its value, drop to 0, or move to one of its
        rounder :func:`~repro.core.normality.snap_candidates`.  When the
        options (at most 6 per constant) combine to at most
        ``max_combinations`` candidates, every combination is scored in one
        :func:`partition_errors` call, and the winner has the fewest terms,
        then the roundest constants, then the smallest loss; ties go to the
        first combination in ``itertools.product`` order, and this
        transformation is kept unless a candidate strictly beats it.  Beyond
        that many combinations the constants are snapped greedily, one at a
        time in order: each takes the first of 0 and its rounder values that
        stays within ``tolerance``, given the constants snapped before it.

        Returns the chosen transformation and its L1 error on those rows, as
        the scoring pass computed it: bit-identical to a one-candidate
        :func:`partition_errors` call.
        """
        matrix = source.numeric_matrix(self.feature_names, rows)
        actual = np.asarray(actual, dtype=float)
        magnitudes = np.abs(actual)
        scale = float(np.sum(np.where(np.isfinite(magnitudes), magnitudes, 0.0))) or 1.0
        options = [_snap_options(constant) for constant in (*self.coefficients, self.intercept)]
        if math.prod(min(len(values), 6) for values, _ in options) > max_combinations:
            return self._greedy_snap(matrix, actual, scale, tolerance, options)
        options = [(values[:6], normalities[:6]) for values, normalities in options]
        # one column per combination, in product order (the intercept varies
        # fastest); combination 0 keeps every constant, so it is ``self``
        grid = np.indices([len(values) for values, _ in options]).reshape(len(options), -1)
        size = grid.shape[1]
        columns = []
        complexity = np.zeros(size, dtype=int)
        normality_sum = np.zeros(size)
        counted = np.zeros(size, dtype=int)
        for position, ((values, normalities), indices) in enumerate(zip(options, grid)):
            values = np.asarray(values, dtype=float)
            is_term = np.abs(values) > _ZERO_EPSILON
            # the constants normality() averages: a coefficient of 1 is not one
            is_scored = is_term
            if position < len(self.coefficients):
                is_scored = is_term & (np.abs(values - 1.0) > _ZERO_EPSILON)
            columns.append(values[indices])
            complexity += is_term[indices]
            normality_sum += np.where(is_scored, normalities, 0.0)[indices]
            counted += is_scored[indices]
        normality = np.where(counted > 0, normality_sum / np.maximum(counted, 1), 1.0)
        coefficients = np.column_stack(columns[:-1]) if columns[:-1] else np.empty((size, 0))
        errors = partition_errors(matrix, coefficients, columns[-1], actual)
        # inf - inf: no usable row; a large gap over a tiny scale: +inf
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            losses = (errors - errors[0]) / scale
        # prefer fewer terms, then rounder constants, then smaller accuracy
        # loss; the first combination reaching the best key wins
        best = np.flatnonzero(losses <= tolerance)
        if not best.size:
            return self, float(errors[0])
        for key in (complexity, -normality, losses):
            best = best[key[best] == key[best].min()]
        best = best[0]
        best_key = (-int(complexity[best]), float(normality[best]), -float(losses[best]))
        if best_key <= (-int(complexity[0]), float(normality[0]), 0.0):
            return self, float(errors[0])
        chosen = [values[index] for (values, _), index in zip(options, grid[:, best])]
        snapped = LinearTransformation(self.target, self.feature_names, tuple(chosen[:-1]), chosen[-1])
        return snapped, float(errors[best])

    def _greedy_snap(
        self,
        matrix: np.ndarray,
        actual: np.ndarray,
        scale: float,
        tolerance: float,
        options: list[tuple[list[float], list[float]]],
    ) -> tuple["LinearTransformation", float]:
        """The greedy snap and its error, the error of its last accepted trial."""
        constants = [*self.coefficients, self.intercept]
        baseline = partition_errors(matrix, [self.coefficients], [self.intercept], actual)[0]
        error = baseline
        for position, (values, _) in enumerate(options):
            trials = values[1:]
            if not trials:
                continue
            candidates = np.tile(np.asarray(constants, dtype=float), (len(trials), 1))
            candidates[:, position] = trials
            errors = partition_errors(matrix, candidates[:, :-1], candidates[:, -1], actual)
            with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
                passing = np.flatnonzero((errors - baseline) / scale <= tolerance)
            if passing.size:
                constants[position] = trials[passing[0]]
                error = errors[passing[0]]
        snapped = LinearTransformation(
            self.target, self.feature_names, tuple(constants[:-1]), constants[-1]
        )
        return snapped, float(error)

    # -- conversion / rendering --------------------------------------------------

    def to_leaf_model(self) -> LeafModel:
        """The :class:`~repro.ml.model_tree.LeafModel` equivalent of this transformation."""
        return LeafModel(
            self.feature_names,
            self.coefficients,
            self.intercept,
            self.target,
            is_identity=self.is_identity,
        )

    def __str__(self) -> str:
        if self.is_identity:
            return f"new_{self.target} = {self.target} (unchanged)"
        terms = []
        for name, coefficient in zip(self.feature_names, self.coefficients):
            if abs(coefficient) <= _ZERO_EPSILON:
                continue
            terms.append(f"{coefficient:g} x {name}")
        if abs(self.intercept) > _ZERO_EPSILON or not terms:
            terms.append(f"{self.intercept:g}")
        return f"new_{self.target} = " + " + ".join(terms).replace("+ -", "- ")
