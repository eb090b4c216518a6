"""Unit tests for scalers and categorical encoders."""

import numpy as np
import pytest

from repro.exceptions import ModelFitError, SchemaError
from repro.ml.encoding import OneHotEncoder, OrdinalEncoder, TableEncoder
from repro.ml.scaling import MinMaxScaler, StandardScaler
from repro.relational.table import Table


class TestStandardScaler:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        data = rng.normal(5.0, 3.0, size=(500, 2))
        scaled = StandardScaler().fit_transform(data)
        assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(scaled.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_does_not_nan(self):
        data = np.column_stack([np.ones(10), np.arange(10.0)])
        scaled = StandardScaler().fit_transform(data)
        assert not np.isnan(scaled).any()
        assert np.allclose(scaled[:, 0], 0.0)

    def test_inverse_transform_round_trip(self):
        data = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 40.0]])
        scaler = StandardScaler()
        assert np.allclose(scaler.inverse_transform(scaler.fit_transform(data)), data)

    def test_transform_before_fit_rejected(self):
        with pytest.raises(ModelFitError):
            StandardScaler().transform(np.ones((2, 2)))

    def test_empty_fit_rejected(self):
        with pytest.raises(ModelFitError):
            StandardScaler().fit(np.empty((0, 2)))


class TestMinMaxScaler:
    def test_range_is_unit_interval(self):
        data = np.array([[0.0, -5.0], [5.0, 0.0], [10.0, 5.0]])
        scaled = MinMaxScaler().fit_transform(data)
        assert scaled.min() == pytest.approx(0.0)
        assert scaled.max() == pytest.approx(1.0)

    def test_constant_column_maps_to_half(self):
        data = np.column_stack([np.full(5, 7.0), np.arange(5.0)])
        scaled = MinMaxScaler().fit_transform(data)
        assert np.allclose(scaled[:, 0], 0.5)

    def test_inverse_transform_round_trip(self):
        data = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 40.0]])
        scaler = MinMaxScaler()
        assert np.allclose(scaler.inverse_transform(scaler.fit_transform(data)), data)

    def test_signed_zeros_scale_alike_alone_and_inside_a_matrix(self):
        # nanmin picks -0.0 or +0.0 by the array's layout; the minimum is +0.0
        column = np.array([-0.0, 0.0, 0.0, -0.0, -0.0, 0.0, 0.0, 1.0, -0.0])
        matrix = np.column_stack([column, np.arange(9.0)])
        alone = MinMaxScaler().fit(column.reshape(-1, 1))
        inside = MinMaxScaler().fit(matrix)
        assert not np.signbit(alone.minimums).any()
        assert not np.signbit(inside.minimums).any()
        assert alone.transform(column.reshape(-1, 1)).tobytes() == (
            inside.transform(matrix)[:, :1].tobytes()
        )


class TestOneHotEncoder:
    def test_encoding_and_feature_names(self):
        encoder = OneHotEncoder()
        matrix = encoder.fit_transform(["a", "b", "a", "c"])
        assert matrix.shape == (4, 3)
        assert matrix[0].tolist() == [1.0, 0.0, 0.0]
        assert encoder.feature_names("col") == ["col=a", "col=b", "col=c"]

    def test_unknown_and_missing_map_to_zero(self):
        encoder = OneHotEncoder().fit(["a", "b"])
        encoded = encoder.transform(["c", None, "a"])
        assert encoded[0].sum() == 0.0
        assert encoded[1].sum() == 0.0
        assert encoded[2, 0] == 1.0

    def test_transform_before_fit_rejected(self):
        with pytest.raises(ModelFitError):
            OneHotEncoder().transform(["a"])


class TestOrdinalEncoder:
    def test_codes_follow_first_seen_order(self):
        encoder = OrdinalEncoder()
        codes = encoder.fit_transform(["b", "a", "b", "c"])
        assert codes.tolist() == [0.0, 1.0, 0.0, 2.0]
        assert encoder.decode(2) == "c"
        assert encoder.decode(99) is None

    def test_unknown_maps_to_minus_one(self):
        encoder = OrdinalEncoder().fit(["a"])
        assert encoder.transform(["z"]).tolist() == [-1.0]


class TestTableEncoder:
    @pytest.fixture()
    def table(self):
        return Table.from_rows(
            [
                {"edu": "PhD", "exp": 2, "salary": 230000.0},
                {"edu": "MS", "exp": 5, "salary": 160000.0},
                {"edu": "MS", "exp": 1, "salary": None},
            ]
        )

    def test_mixed_encoding_shape_and_names(self, table):
        encoder = TableEncoder(["edu", "exp"])
        matrix = encoder.fit_transform(table)
        assert matrix.shape == (3, 3)
        assert encoder.feature_names == ["edu=PhD", "edu=MS", "exp"]

    def test_values_scaled_to_unit_interval(self, table):
        matrix = TableEncoder(["edu", "exp", "salary"]).fit_transform(table)
        assert matrix.min() >= 0.0 and matrix.max() <= 1.0

    def test_missing_numeric_imputed_with_mean(self, table):
        encoder = TableEncoder(["salary"], scale=False)
        matrix = encoder.fit_transform(table)
        assert matrix[2, 0] == pytest.approx(195000.0)

    def test_extra_features_appended(self, table):
        encoder = TableEncoder(["edu"])
        residual = np.array([1.0, -1.0, 0.0])
        matrix = encoder.fit_transform(table, extra_features=residual, extra_names=("res",))
        assert matrix.shape == (3, 3)
        assert encoder.feature_names[-1] == "res"

    def test_extra_features_wrong_length_rejected(self, table):
        with pytest.raises(SchemaError):
            TableEncoder(["edu"]).fit_transform(table, extra_features=np.ones(5))

    def test_no_columns_and_no_extras_rejected(self, table):
        with pytest.raises(ModelFitError):
            TableEncoder([]).fit_transform(table)

    @pytest.mark.parametrize("rows", [[2, 1], [True, False, True], [False, False, True]])
    def test_rows_encode_like_the_copied_rows(self, table, rows):
        rows = np.array(rows)
        copied = table.mask(rows) if rows.dtype == bool else table.take(rows)
        encoder = TableEncoder(["edu", "exp", "salary"])
        reference = TableEncoder(["edu", "exp", "salary"])
        got = encoder.fit_transform(table, rows=rows)
        want = reference.fit_transform(copied)
        assert got.tobytes() == want.tobytes()
        # one-hot categories in first-seen order among the rows
        assert encoder.feature_names == reference.feature_names

    def test_feature_names_before_fit_rejected(self):
        with pytest.raises(ModelFitError):
            TableEncoder(["edu"]).feature_names
