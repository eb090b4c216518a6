"""The batched snapping kernel against a per-candidate reference.

``partition_errors`` scores many candidate transformations of one partition
in one pass, and ``LinearTransformation.snapped`` chooses among them and
reports the chosen one's error.  Both must reproduce, bit for bit, what
scoring one candidate at a time gives: a candidate's ``apply`` followed by a
1-D ``np.sum`` of its usable errors, and the old per-candidate snapping loop
kept below as the oracle.
"""

from itertools import product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.normality import snap_candidates, value_normality
from repro.core.transformation import LinearTransformation, partition_errors
from repro.relational.table import Table
from repro.search.evaluator import CandidateEvaluator

NAMES = ("a", "b", "c", "d")


def _reference_error(candidate: LinearTransformation, source: Table, actual: np.ndarray) -> float:
    """One candidate's L1 error, computed on its own; a non-finite actual is missing."""
    predictions = candidate.apply(source)
    usable = ~np.isnan(predictions) & np.isfinite(actual)
    if not usable.any():
        return float("inf")
    return float(np.sum(np.abs(predictions[usable] - actual[usable])))


def _reference_snapped(transformation, loss, tolerance, max_combinations=256):
    """Snapping one candidate at a time: the loop the batched kernel replaced.

    One deliberate difference: a NaN loss is rejected here (``not value <=
    tolerance``), where the old loop's ``loss > tolerance`` accepted it.
    """
    constants = list(transformation.coefficients) + [transformation.intercept]
    options = []
    for constant in constants:
        candidates = [constant]
        if constant != 0.0:
            candidates.append(0.0)
        candidates.extend(
            candidate for candidate in snap_candidates(constant)
            if value_normality(candidate) > value_normality(constant)
        )
        options.append(candidates[:6])
    if np.prod([len(candidates) for candidates in options]) > max_combinations:
        return _reference_greedy(transformation, loss, tolerance)
    best = transformation
    best_key = (-transformation.complexity, transformation.normality(), 0.0)
    for combination in product(*options):
        candidate = LinearTransformation(
            transformation.target, transformation.feature_names,
            tuple(combination[:-1]), combination[-1],
        )
        value = loss(candidate)
        if not value <= tolerance:
            continue
        key = (-candidate.complexity, candidate.normality(), -value)
        if key > best_key:
            best, best_key = candidate, key
    return best


def _reference_greedy(transformation, loss, tolerance):
    current = transformation
    constants = list(transformation.coefficients) + [transformation.intercept]
    for index, constant in enumerate(constants):
        candidates = [0.0] if constant != 0.0 else []
        candidates += [
            candidate for candidate in snap_candidates(constant)
            if value_normality(candidate) > value_normality(constant)
        ]
        for value in candidates:
            new_constants = list(current.coefficients) + [current.intercept]
            new_constants[index] = value
            candidate = LinearTransformation(
                current.target, current.feature_names, tuple(new_constants[:-1]), new_constants[-1]
            )
            if loss(candidate) <= tolerance:
                current = candidate
                break
    return current


def _reference_loss(transformation, source, actual):
    baseline = _reference_error(transformation, source, actual)
    scale = float(np.sum(np.abs(actual[np.isfinite(actual)]))) or 1.0
    return lambda candidate: (_reference_error(candidate, source, actual) - baseline) / scale


def _table(matrix: np.ndarray) -> Table:
    return Table.from_columns(
        {name: [float(value) for value in matrix[:, index]] for index, name in enumerate(NAMES)}
    )


_values = st.floats(-1e4, 1e4, allow_nan=False, width=64)
_maybe_missing = st.one_of(_values, _values, _values, st.just(float("nan")))


@st.composite
def _partitions(draw):
    n = draw(st.integers(1, 40))
    matrix = np.array(draw(st.lists(st.lists(_maybe_missing, min_size=4, max_size=4),
                                    min_size=n, max_size=n)))
    if draw(st.booleans()):
        # a row whose features are all missing
        matrix[draw(st.integers(0, n - 1))] = np.nan
    actual = np.array(draw(st.lists(_maybe_missing, min_size=n, max_size=n)))
    if draw(st.booleans()):
        # an infinite actual value, which counts as missing
        actual[draw(st.integers(0, n - 1))] = draw(st.sampled_from([np.inf, -np.inf]))
    return matrix, actual


@st.composite
def _candidates(draw, d):
    distinct = draw(st.lists(st.lists(_values, min_size=d, max_size=d), min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=12))
    intercepts = draw(st.lists(_values, min_size=len(rows), max_size=len(rows)))
    return np.array(rows, dtype=float).reshape(len(rows), d), np.array(intercepts)


class TestPartitionErrors:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), partition=_partitions(), d=st.integers(0, 4))
    def test_equals_one_candidate_at_a_time_bit_for_bit(self, data, partition, d):
        matrix, actual = partition
        source = _table(matrix)
        coefficients, intercepts = data.draw(_candidates(d))
        names = NAMES[:d]
        errors = partition_errors(source.numeric_matrix(list(names)), coefficients, intercepts, actual)
        assert errors.shape == (len(intercepts),)
        for index, (row, intercept) in enumerate(zip(coefficients, intercepts)):
            candidate = LinearTransformation("y", names, tuple(row), float(intercept))
            expected = _reference_error(candidate, source, actual)
            single = CandidateEvaluator._partition_error(candidate, source, None, actual)
            assert errors[index].tobytes() == np.float64(expected).tobytes()
            assert np.float64(single).tobytes() == np.float64(expected).tobytes()

    def test_no_usable_row_is_infinite(self):
        matrix = np.array([[1.0], [np.nan]])
        actual = np.array([np.nan, 2.0])
        errors = partition_errors(matrix, [[1.0], [2.0]], [0.0, 1.0], actual)
        assert np.isinf(errors).all()

    def test_infinite_actual_is_missing(self):
        matrix = np.array([[1.0], [2.0], [3.0]])
        actual = np.array([np.inf, 2.0, -np.inf])
        errors = partition_errors(matrix, [[1.0], [2.0]], [0.0, 0.0], actual)
        assert errors.tolist() == [0.0, 2.0]
        assert np.isinf(partition_errors(matrix, [[1.0]], [0.0], np.full(3, np.inf))).all()

    def test_infinite_feature_keeps_per_candidate_rows(self):
        # inf * 0 is NaN, so a zero coefficient drops the row another keeps
        matrix = np.array([[np.inf], [1.0], [2.0]])
        actual = np.array([1.0, 2.0, 3.0])
        with np.errstate(invalid="ignore"):
            errors = partition_errors(matrix, [[0.0], [1.0]], [1.0, 1.0], actual)
        assert errors[0] == 1.0 + 2.0
        assert errors[1] == np.inf


_constants = st.one_of(
    st.sampled_from([0.0, 1.0, 1.05, 2.0, 0.25, 1000.0, -3.0]),
    st.floats(-100, 100, allow_nan=False).map(lambda value: round(value, 3)),
    st.floats(-100, 100, allow_nan=False),
)


class TestSnappedMatchesReference:
    @settings(max_examples=120, deadline=None)
    @given(
        partition=_partitions(),
        d=st.integers(0, 4),
        data=st.data(),
        tolerance=st.sampled_from([0.0, 1e-6, 1e-3, 0.05]),
        max_combinations=st.sampled_from([1, 36, 256]),
    )
    def test_same_transformation_as_the_per_candidate_loop(
        self, partition, d, data, tolerance, max_combinations
    ):
        matrix, actual = partition
        source = _table(matrix)
        names = NAMES[:d]
        constants = data.draw(st.lists(_constants, min_size=d + 1, max_size=d + 1))
        truth = LinearTransformation("y", names, tuple(constants[:-1]), constants[-1])
        if data.draw(st.booleans()):
            # actual values that the transformation nearly explains
            noise = data.draw(st.floats(0.0, 0.1))
            # an infinite actual value times zero noise is NaN, a missing value
            with np.errstate(invalid="ignore"):
                actual = np.where(np.isnan(actual), actual, truth.apply(source) + noise * actual)
        expected = _reference_snapped(
            truth, _reference_loss(truth, source, actual), tolerance, max_combinations
        )
        snapped, error = truth.snapped(
            source, actual, tolerance, max_combinations=max_combinations
        )
        assert snapped == expected
        assert [type(value) for value in snapped.coefficients] == [
            type(value) for value in expected.coefficients
        ]
        # the error the scoring pass reports is the one-candidate error, bit for bit
        single = CandidateEvaluator._partition_error(snapped, source, None, actual)
        assert np.float64(error).tobytes() == np.float64(single).tobytes()
