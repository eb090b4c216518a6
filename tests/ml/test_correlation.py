"""Unit tests for association measures."""

import numpy as np
import pytest

from repro.ml.correlation import (
    association,
    association_with_target,
    correlation_ratio,
    cramers_v,
    pearson,
    spearman,
)
from repro.relational.table import Table


class TestPearsonSpearman:
    def test_perfect_positive_and_negative(self):
        x = np.arange(10.0)
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_independent_is_near_zero(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=2000), rng.normal(size=2000)
        assert abs(pearson(a, b)) < 0.1

    def test_constant_input_is_nan(self):
        assert np.isnan(pearson(np.ones(5), np.arange(5.0)))

    def test_nan_pairs_ignored(self):
        x = np.array([1.0, 2.0, np.nan, 4.0])
        y = np.array([2.0, 4.0, 100.0, 8.0])
        assert pearson(x, y) == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_pairs_ignored_like_missing_ones(self, bad):
        x = np.array([1.0, 2.0, bad, 4.0, 3.0])
        y = np.array([2.0, 4.0, 100.0, 8.0, 5.0])
        blank = x.copy()
        blank[2] = np.nan
        assert pearson(x, y) == pearson(blank, y)
        assert spearman(y, x) == spearman(y, blank)

    def test_too_few_points_is_nan(self):
        assert np.isnan(pearson([1.0], [2.0]))

    def test_spearman_monotone_nonlinear(self):
        x = np.arange(1.0, 20.0)
        assert spearman(x, x ** 3) == pytest.approx(1.0)
        assert pearson(x, x ** 3) < 1.0

    def test_spearman_handles_ties(self):
        x = np.array([1.0, 1.0, 2.0, 3.0])
        y = np.array([1.0, 1.0, 2.0, 3.0])
        assert spearman(x, y) == pytest.approx(1.0)


class TestCorrelationRatio:
    def test_category_fully_determines_value(self):
        categories = ["a"] * 5 + ["b"] * 5
        values = [1.0] * 5 + [10.0] * 5
        assert correlation_ratio(categories, values) == pytest.approx(1.0)

    def test_category_carries_no_information(self):
        rng = np.random.default_rng(3)
        categories = ["a", "b"] * 500
        values = rng.normal(size=1000).tolist()
        assert correlation_ratio(categories, values) < 0.15

    def test_constant_values_is_nan(self):
        assert np.isnan(correlation_ratio(["a", "b"], [3.0, 3.0]))

    def test_missing_categories_ignored(self):
        value = correlation_ratio(["a", None, "b"], [1.0, 99.0, 2.0])
        assert 0.0 <= value <= 1.0

    def test_infinite_values_ignored_like_missing_ones(self):
        categories = ["a", "a", "b", "b", "a"]
        got = correlation_ratio(categories, [1.0, 2.0, np.inf, 9.0, 1.5])
        assert got == correlation_ratio(categories, [1.0, 2.0, np.nan, 9.0, 1.5])
        assert 0.0 <= got <= 1.0


class TestCramersV:
    def test_identical_attributes(self):
        x = ["a", "b", "a", "b", "c", "c"] * 5
        assert cramers_v(x, x) == pytest.approx(1.0, abs=1e-9)

    def test_independent_attributes(self):
        rng = np.random.default_rng(1)
        x = rng.choice(["a", "b"], size=5000).tolist()
        y = rng.choice(["u", "v"], size=5000).tolist()
        assert cramers_v(x, y) < 0.1

    def test_single_category_is_nan(self):
        assert np.isnan(cramers_v(["a", "a"], ["x", "y"]))


class TestTableAssociation:
    @pytest.fixture()
    def table(self, fig1_tables):
        return fig1_tables[0]

    def test_numeric_numeric_dispatch(self, table):
        assert association(table, "bonus", "salary") == pytest.approx(1.0)

    def test_numeric_categorical_dispatch(self, table):
        value = association(table, "bonus", "edu")
        assert 0.8 < value <= 1.0

    def test_categorical_categorical_dispatch(self, table):
        value = association(table, "edu", "gen")
        assert 0.0 <= value <= 1.0

    def test_association_with_target_excludes_target_and_fills_nan(self, table):
        scores = association_with_target(table, "bonus")
        assert "bonus" not in scores
        assert set(scores) == {"name", "gen", "edu", "exp", "salary"}
        assert all(0.0 <= value <= 1.0 for value in scores.values())
