"""Unit tests for linear transformations (the "what" of a CT)."""

import numpy as np
import pytest

from repro.core.transformation import LinearTransformation
from repro.exceptions import ModelFitError
from repro.ml.linreg import fit_linear_model
from repro.relational.table import Table


class TestConstruction:
    def test_identity(self, fig1_tables):
        source, _ = fig1_tables
        identity = LinearTransformation.identity("bonus")
        assert identity.is_identity
        assert np.allclose(identity.apply(source), source.numeric_column("bonus"))

    def test_constant_shift_and_scale(self, fig1_tables):
        source, _ = fig1_tables
        shift = LinearTransformation.constant_shift("bonus", 500.0)
        assert np.allclose(shift.apply(source), source.numeric_column("bonus") + 500.0)
        scale = LinearTransformation.scale("bonus", 1.05, 1000.0)
        assert scale.apply(source)[0] == pytest.approx(1.05 * 23000 + 1000)

    def test_mismatched_coefficients_rejected(self):
        with pytest.raises(ModelFitError):
            LinearTransformation("bonus", ("a", "b"), (1.0,), 0.0)

    def test_from_regression_drops_zero_coefficients(self):
        x = np.linspace(1, 10, 20)
        features = np.column_stack([x, np.zeros(20)])
        model = fit_linear_model(features, 2 * x + 3)
        transformation = LinearTransformation.from_regression(model, ("a", "b"), "y")
        assert transformation.feature_names == ("a",)
        assert transformation.coefficients[0] == pytest.approx(2.0)

    def test_from_regression_unfitted_rejected(self):
        from repro.ml.linreg import LinearRegression

        with pytest.raises(ModelFitError):
            LinearTransformation.from_regression(LinearRegression(), ("a",), "y")

    def test_intercept_only_transformation(self, fig1_tables):
        source, _ = fig1_tables
        constant = LinearTransformation("bonus", (), (), 12345.0)
        assert np.allclose(constant.apply(source), 12345.0)


class TestComplexityAndNormality:
    def test_complexity_counts_terms(self):
        assert LinearTransformation("y", ("a",), (1.05,), 1000.0).complexity == 2
        assert LinearTransformation("y", ("a",), (1.05,), 0.0).complexity == 1
        assert LinearTransformation("y", ("a", "b"), (1.0, 0.0), 0.0).complexity == 1
        assert LinearTransformation.identity("y").complexity == 1

    def test_normality_prefers_round_constants(self):
        round_rule = LinearTransformation("y", ("a",), (1.05,), 1000.0)
        ragged_rule = LinearTransformation("y", ("a",), (1.0487,), 1033.17)
        assert round_rule.normality() > ragged_rule.normality()

    def test_errors_against_actual(self, fig1_tables):
        source, _ = fig1_tables
        rule = LinearTransformation("bonus", ("bonus",), (1.05,), 1000.0)
        actual = rule.apply(source)
        assert np.allclose(rule.errors(source, actual), 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_apply_is_silent_where_an_infinite_cell_gives_nan(self):
        table = Table.from_rows(
            [
                {"id": 0, "x": float("inf"), "y": 1.0},
                {"id": 1, "x": float("inf"), "y": float("-inf")},
                {"id": 2, "x": 2.0, "y": 3.0},
            ],
            primary_key="id",
        )
        # inf * 0 and inf + -inf have no value: NaN, and no numpy warning
        zero_weight = LinearTransformation("y", ("x", "y"), (0.0, 1.0), 0.5)
        assert np.isnan(zero_weight.apply(table)[0])
        assert zero_weight.apply(table)[2] == 3.5
        opposite = LinearTransformation("y", ("x", "y"), (1.0, 1.0), 0.0)
        assert np.isnan(opposite.apply(table)[1])


class TestSnapping:
    def test_snaps_near_round_coefficients(self, fig1_tables):
        source, _ = fig1_tables
        truth = LinearTransformation("bonus", ("bonus",), (1.05,), 1000.0)
        actual = truth.apply(source)
        fitted = LinearTransformation("bonus", ("bonus",), (1.0500000231,), 999.99992)
        snapped, _ = fitted.snapped(source, actual, tolerance=0.001)
        assert snapped.coefficients[0] == pytest.approx(1.05)
        assert snapped.intercept == pytest.approx(1000.0)

    def test_drops_negligible_intercept(self, fig1_tables):
        source, _ = fig1_tables
        actual = 1.05 * source.numeric_column("bonus")
        fitted = LinearTransformation("bonus", ("bonus",), (1.05,), 0.00042)
        snapped, _ = fitted.snapped(source, actual, tolerance=0.001)
        assert snapped.intercept == 0.0
        assert snapped.complexity == 1

    def test_does_not_snap_when_accuracy_would_suffer(self, fig1_tables):
        source, _ = fig1_tables
        truth = LinearTransformation("bonus", ("bonus",), (1.0487,), 0.0)
        actual = truth.apply(source)
        snapped, _ = truth.snapped(source, actual, tolerance=1e-6)
        assert snapped.coefficients[0] == pytest.approx(1.0487)

    def test_zero_tolerance_keeps_exact_equivalents_only(self, fig1_tables):
        source, _ = fig1_tables
        truth = LinearTransformation("bonus", ("bonus",), (1.05,), 1000.0)
        actual = truth.apply(source)
        snapped, _ = truth.snapped(source, actual, tolerance=0.0)
        assert snapped.coefficients[0] == pytest.approx(1.05)
        assert snapped.intercept == pytest.approx(1000.0)


class TestRendering:
    def test_str_formats_equation(self):
        rule = LinearTransformation("bonus", ("bonus",), (1.05,), 1000.0)
        assert str(rule) == "new_bonus = 1.05 x bonus + 1000"

    def test_str_negative_intercept(self):
        rule = LinearTransformation("bonus", ("bonus",), (1.2,), -2000.0)
        assert "- 2000" in str(rule)

    def test_str_identity(self):
        assert "unchanged" in str(LinearTransformation.identity("bonus"))

    def test_to_leaf_model_round_trip(self, fig1_tables):
        source, _ = fig1_tables
        rule = LinearTransformation("bonus", ("bonus", "salary"), (0.5, 0.05), 100.0)
        leaf = rule.to_leaf_model()
        assert np.allclose(leaf.predict(source), rule.apply(source))
        assert leaf.target == "bonus"
