"""Unit tests for linear regression and regression metrics."""

import numpy as np
import pytest

from repro.exceptions import ModelFitError
from repro.ml.linreg import (
    LinearRegression,
    fit_linear_model,
    mean_absolute_error,
    r_squared,
    root_mean_squared_error,
    total_absolute_error,
)


@pytest.fixture()
def linear_data():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(200, 3))
    target = features @ np.array([2.0, -1.5, 0.5]) + 7.0
    return features, target


class TestFitting:
    def test_exact_recovery_on_noiseless_data(self, linear_data):
        features, target = linear_data
        model = fit_linear_model(features, target)
        assert model.coefficients == pytest.approx([2.0, -1.5, 0.5], abs=1e-8)
        assert model.intercept == pytest.approx(7.0, abs=1e-8)

    def test_predict_matches_target(self, linear_data):
        features, target = linear_data
        model = fit_linear_model(features, target)
        assert np.allclose(model.predict(features), target)
        assert np.allclose(model.residuals(features, target), 0.0)

    def test_single_feature_one_dimensional_input(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        model = fit_linear_model(x, 3.0 * x + 1.0)
        assert model.coefficients[0] == pytest.approx(3.0)
        assert model.intercept == pytest.approx(1.0)

    def test_zero_features_fits_mean(self):
        target = np.array([2.0, 4.0, 6.0])
        model = LinearRegression().fit(np.empty((3, 0)), target)
        assert model.intercept == pytest.approx(4.0)
        assert np.allclose(model.predict(np.empty((3, 0))), 4.0)

    def test_nan_rows_dropped(self):
        features = np.array([[1.0], [2.0], [np.nan], [4.0]])
        target = np.array([2.0, 4.0, 100.0, 8.0])
        model = fit_linear_model(features, target)
        assert model.coefficients[0] == pytest.approx(2.0)

    def test_all_nan_rejected(self):
        with pytest.raises(ModelFitError):
            fit_linear_model(np.array([[np.nan]]), np.array([np.nan]))

    def test_mismatched_rows_rejected(self):
        with pytest.raises(ModelFitError):
            fit_linear_model(np.ones((3, 1)), np.ones(4))

    def test_collinear_features_do_not_explode(self):
        x = np.linspace(1, 10, 50)
        features = np.column_stack([x, 10 * x])
        target = 1.05 * x + 1000
        model = LinearRegression(ridge=1e-6).fit(features, target)
        assert np.allclose(model.predict(features), target, rtol=1e-4)

    def test_ridge_shrinks_coefficients(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(100, 2))
        target = features @ np.array([5.0, -5.0])
        plain = LinearRegression().fit(features, target)
        shrunk = LinearRegression(ridge=100.0).fit(features, target)
        assert np.linalg.norm(shrunk.coefficients) < np.linalg.norm(plain.coefficients)

    def test_no_intercept_mode(self):
        x = np.array([[1.0], [2.0], [3.0]])
        model = LinearRegression(fit_intercept=False).fit(x, np.array([2.0, 4.0, 6.0]))
        assert model.intercept == 0.0
        assert model.coefficients[0] == pytest.approx(2.0)

    def test_sample_weights_prioritise_rows(self):
        features = np.array([[1.0], [2.0], [3.0], [10.0]])
        target = np.array([1.0, 2.0, 3.0, 100.0])
        weights = np.array([1.0, 1.0, 1.0, 0.0])  # ignore the outlier
        model = LinearRegression().fit(features, target, sample_weight=weights)
        assert model.coefficients[0] == pytest.approx(1.0, abs=1e-6)

    def test_predict_before_fit_rejected(self):
        with pytest.raises(ModelFitError):
            LinearRegression().predict(np.ones((2, 1)))

    def test_predict_feature_count_mismatch_rejected(self, linear_data):
        features, target = linear_data
        model = fit_linear_model(features, target)
        with pytest.raises(ModelFitError):
            model.predict(np.ones((2, 2)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_infinite_feature_predicts_nan_without_a_warning(self):
        model = LinearRegression().with_coefficients([1.0, 0.0], 2.0)
        features = np.array([[np.inf, 1.0], [1.0, np.inf], [np.inf, -np.inf], [1.0, 1.0]])
        assert model.predict(features).tolist()[1:] == [pytest.approx(np.nan, nan_ok=True)] * 2 + [3.0]
        assert model.predict(features)[0] == np.inf

    def test_with_coefficients(self):
        model = LinearRegression().with_coefficients([1.05], 1000.0)
        assert model.is_fitted
        assert model.predict(np.array([[1000.0]]))[0] == pytest.approx(2050.0)


class TestMetrics:
    def test_r_squared_perfect_and_mean_predictor(self):
        actual = np.array([1.0, 2.0, 3.0])
        assert r_squared(actual, actual) == pytest.approx(1.0)
        assert r_squared(actual, np.full(3, 2.0)) == pytest.approx(0.0)

    def test_r_squared_constant_actual(self):
        constant = np.array([5.0, 5.0])
        assert r_squared(constant, constant) == 1.0
        assert r_squared(constant, np.array([4.0, 6.0])) == 0.0

    def test_error_metrics(self):
        actual = np.array([1.0, 2.0, 3.0])
        predicted = np.array([2.0, 2.0, 5.0])
        assert mean_absolute_error(actual, predicted) == pytest.approx(1.0)
        assert total_absolute_error(actual, predicted) == pytest.approx(3.0)
        assert root_mean_squared_error(actual, predicted) == pytest.approx(np.sqrt(5 / 3))

    def test_metrics_ignore_nan_pairs(self):
        actual = np.array([1.0, np.nan, 3.0])
        predicted = np.array([1.0, 2.0, 4.0])
        assert total_absolute_error(actual, predicted) == pytest.approx(1.0)

    def test_evaluate_bundle(self, linear_data):
        features, target = linear_data
        metrics = fit_linear_model(features, target).evaluate(features, target)
        assert metrics.r2 == pytest.approx(1.0)
        assert metrics.total_l1 == pytest.approx(0.0, abs=1e-6)
        assert metrics.num_rows == 200
        assert set(metrics.as_dict()) == {"r2", "mae", "rmse", "total_l1", "num_rows"}
