"""Unit tests for configuration validation and the normality prior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import normality
from repro.core.config import CharlesConfig, InterpretabilityWeights
from repro.core.normality import (
    normality_of_values,
    snap_candidates,
    snap_value,
    value_normality,
)
from repro.exceptions import ConfigurationError


class TestCharlesConfig:
    def test_defaults_match_paper(self):
        config = CharlesConfig()
        assert config.alpha == 0.5
        assert config.max_condition_attributes == 3
        assert config.max_transformation_attributes == 2
        assert config.correlation_threshold == 0.5
        assert config.top_k == 10

    @pytest.mark.parametrize(
        "field,value",
        [
            ("alpha", -0.1),
            ("alpha", 1.5),
            ("max_condition_attributes", 0),
            ("max_transformation_attributes", 0),
            ("correlation_threshold", 2.0),
            ("max_partitions", 0),
            ("top_k", 0),
            ("min_partition_coverage", 1.0),
            ("purity_threshold", 0.0),
            ("snapping_tolerance", -1.0),
            ("accuracy_sharpness", 0.0),
            ("residual_weights", ()),
            ("residual_weights", (-1.0,)),
            ("ridge", -1.0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            CharlesConfig(**{field: value})

    def test_replace_creates_modified_copy(self):
        config = CharlesConfig()
        tuned = config.replace(alpha=0.8, top_k=3)
        assert tuned.alpha == 0.8 and tuned.top_k == 3
        assert config.alpha == 0.5

    def test_interpretability_weights_validation(self):
        with pytest.raises(ConfigurationError):
            InterpretabilityWeights(size=-1.0)
        with pytest.raises(ConfigurationError):
            InterpretabilityWeights(size=0, simplicity=0, coverage=0, normality=0)
        assert InterpretabilityWeights(size=2.0).total == pytest.approx(5.0)


class TestNormality:
    @pytest.mark.parametrize("value", [0.0, 1.0, 5.0, 1000.0, 0.05, 1e6])
    def test_single_digit_values_are_maximally_normal(self, value):
        assert value_normality(value) == 1.0

    @pytest.mark.parametrize("value", [25.0, -200.0, 1.05, 750.0])
    def test_two_digit_and_percentage_values_are_highly_normal(self, value):
        assert value_normality(value) >= 0.85

    def test_more_digits_means_less_normal(self):
        assert value_normality(25.0) > value_normality(23.8) > value_normality(23.796)

    def test_pathological_values_are_not_normal(self):
        assert value_normality(float("nan")) == 0.0
        assert value_normality(float("inf")) == 0.0

    def test_paper_examples(self):
        # "Age > 25 is more normal than Age > 23.796"
        assert value_normality(25.0) > value_normality(23.796)
        # "5% is more normal than 2.479%"
        assert value_normality(0.05) > value_normality(0.02479)

    def test_normality_of_values_aggregates(self):
        assert normality_of_values([]) == 1.0
        assert normality_of_values([25.0, 23.796]) == pytest.approx(
            (value_normality(25.0) + value_normality(23.796)) / 2
        )

    def test_snap_candidates_ordered_by_roundness(self):
        candidates = snap_candidates(1.0487)
        assert candidates, "should propose at least one rounder value"
        assert value_normality(candidates[0]) >= value_normality(candidates[-1])
        assert 1.0487 not in candidates

    def test_snap_candidates_for_zero_and_nan(self):
        assert snap_candidates(0.0) == []
        assert snap_candidates(float("nan")) == []

    def test_snap_value_within_tolerance(self):
        assert snap_value(1.0499999, relative_tolerance=0.001) == pytest.approx(1.05)
        # too far away to snap
        assert snap_value(1.37, relative_tolerance=0.001) == 1.37

    def test_snap_value_keeps_exact_round_numbers(self):
        assert snap_value(100.0) == 100.0

    def test_normality_is_scale_invariant_for_round_values(self):
        assert value_normality(5.0) == value_normality(500.0) == value_normality(0.005)

    def test_significant_digit_monotonicity(self):
        ordered = [5.0, 5.3, 5.31, 5.312, 5.3123, 5.31234]
        scores = [value_normality(value) for value in ordered]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        assert not math.isclose(scores[0], scores[-1])


_digit_keys = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e6, 1e6, allow_nan=False).map(lambda value: round(value, 3)),
    st.integers(-10**6, 10**6),
    st.sampled_from([0.0, -0.0, 0, 1, 1.0, 1.05, 0.05, 1050, -23.796]),
    st.floats(-1e6, 1e6, allow_nan=False).map(np.float64),
)


class TestSignificantDigitCache:
    """The cached digit count answers exactly as the uncached function."""

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(_digit_keys, min_size=1, max_size=20))
    def test_cached_equals_uncached(self, values):
        uncached = normality._significant_decimal_digits.__wrapped__
        # each value twice, and its negation and float twin in between, so
        # lookups hit entries that keys comparing equal have stored
        for value in values + [-value for value in values] + [float(v) for v in values] + values:
            assert normality._significant_decimal_digits(value) == uncached(value)

    def test_cache_is_bounded(self):
        info = normality._significant_decimal_digits.cache_info()
        assert info.maxsize == 256
