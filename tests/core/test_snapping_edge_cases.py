"""Edge-case tests for coefficient snapping and wide transformations."""

import numpy as np
import pytest

from repro.core.transformation import LinearTransformation


def _loss_against(actual, source):
    def loss(candidate: LinearTransformation) -> float:
        predictions = candidate.apply(source)
        return float(np.sum(np.abs(predictions - actual))) / float(np.sum(np.abs(actual)))

    return loss


class _MatrixTable:
    """Minimal stand-in exposing the Table surface transformations rely on."""

    def __init__(self, matrix: np.ndarray, names: list[str]):
        self._matrix = matrix
        self._names = names

    @property
    def num_rows(self) -> int:
        return self._matrix.shape[0]

    def numeric_matrix(self, names):
        indices = [self._names.index(name) for name in names]
        return self._matrix[:, indices]


class TestWideTransformationSnapping:
    def test_greedy_snapping_path_for_many_coefficients(self):
        rng = np.random.default_rng(0)
        names = ["a", "b", "c", "d", "e"]
        matrix = rng.uniform(1.0, 10.0, size=(200, 5))
        source = _MatrixTable(matrix, names)
        true_coefficients = (1.0499998, 2.0000003, 0.2500001, 0.7499999, 3.0000002)
        truth = LinearTransformation("y", tuple(names), true_coefficients, 99.9999)
        actual = truth.apply(source)
        snapped = truth.snapped(source, actual, tolerance=0.001)
        # greedy snapping (the combinatorial space exceeds the exhaustive cap)
        # still lands every coefficient on the round value
        assert snapped.coefficients == pytest.approx((1.05, 2.0, 0.25, 0.75, 3.0), abs=1e-6)
        assert snapped.intercept == pytest.approx(100.0, abs=1e-3)

    def test_snapping_never_violates_tolerance(self):
        rng = np.random.default_rng(1)
        matrix = rng.uniform(1.0, 10.0, size=(50, 2))
        source = _MatrixTable(matrix, ["a", "b"])
        fitted = LinearTransformation("y", ("a", "b"), (1.2345, -0.9876), 12.34)
        actual = fitted.apply(source)
        loss = _loss_against(actual, source)
        for tolerance in (0.0, 1e-4, 1e-2):
            snapped = fitted.snapped(source, actual, tolerance=tolerance)
            assert loss(snapped) <= tolerance + 1e-12

    def test_zero_coefficient_transformation_untouched(self):
        source = _MatrixTable(np.ones((10, 1)), ["a"])
        constant = LinearTransformation("y", ("a",), (0.0,), 5.0)
        actual = constant.apply(source)
        snapped = constant.snapped(source, actual, tolerance=0.01)
        assert snapped.intercept == pytest.approx(5.0)
