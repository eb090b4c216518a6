"""Edge-case tests for coefficient snapping and wide transformations."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=25, deadline=None)
    @given(
        tiny=st.floats(min_value=5e-324, max_value=1e-300),
        intercept=st.floats(min_value=1.0, max_value=1e6),
        wide=st.booleans(),
    )
    @example(tiny=5e-324, intercept=1e6, wide=True)  # overflows in the greedy path
    @example(tiny=5e-324, intercept=1e6, wide=False)  # and in the exhaustive one
    def test_a_large_gap_over_a_tiny_scale_warns_nothing(self, tiny, intercept, wide):
        # actual values near zero make the loss scale tiny, so a candidate's
        # error gap divided by it overflows to +inf: a rejection, not a warning
        names = ["a", "b", "c", "d", "e"] if wide else ["a"]
        matrix = np.random.default_rng(2).uniform(1.0, 10.0, size=(40, len(names)))
        source = _MatrixTable(matrix, names)
        coefficients = (1.0499998, 2.0000003, 0.2500001, 0.7499999, 3.0000002)
        fitted = LinearTransformation("y", tuple(names), coefficients[: len(names)], intercept)
        actual = np.full(40, tiny)
        snapped = fitted.snapped(source, actual, tolerance=0.01)
        assert len(snapped.coefficients) == len(names)

    def test_zero_coefficient_transformation_untouched(self):
        source = _MatrixTable(np.ones((10, 1)), ["a"])
        constant = LinearTransformation("y", ("a",), (0.0,), 5.0)
        actual = constant.apply(source)
        snapped = constant.snapped(source, actual, tolerance=0.01)
        assert snapped.intercept == pytest.approx(5.0)
