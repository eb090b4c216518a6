"""Unit tests for the columnar Table."""

import numpy as np
import pytest

from repro.exceptions import SchemaError
from repro.relational.schema import DType, Schema
from repro.relational.table import Table


class TestConstruction:
    def test_from_rows_infers_schema(self, small_table):
        assert small_table.num_rows == 5
        assert small_table.schema.column("age").dtype is DType.INT
        assert small_table.schema.column("income").dtype is DType.FLOAT
        assert small_table.schema.column("active").dtype is DType.BOOL
        assert small_table.primary_key == "id"

    def test_from_rows_empty_without_schema_rejected(self):
        with pytest.raises(SchemaError):
            Table.from_rows([])

    def test_from_columns(self):
        table = Table.from_columns({"a": [1, 2, 3], "b": ["x", "y", "z"]})
        assert table.num_rows == 3
        assert table.column("b") == ["x", "y", "z"]

    def test_from_columns_with_explicit_schema_coerces(self):
        schema = Schema.of({"a": DType.FLOAT})
        table = Table.from_columns({"a": ["1", "2.5"]}, schema=schema)
        assert table.column("a") == [1.0, 2.5]

    def test_empty_table(self):
        table = Table.empty(Schema.of({"a": DType.INT}))
        assert table.num_rows == 0 and len(table) == 0

    def test_ragged_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table(Schema.of({"a": DType.INT, "b": DType.INT}), {"a": [1], "b": [1, 2]})

    def test_all_missing_column_inference_rejected(self):
        # an all-None column carries no type evidence; silently inferring
        # STRING used to mistype sparse numeric columns
        with pytest.raises(SchemaError, match="column 'b'.*every value is missing"):
            Table.from_rows([{"a": 1, "b": None}, {"a": 2, "b": None}])
        with pytest.raises(SchemaError, match="every value is missing"):
            Table.from_columns({"a": [None, None]})

    def test_all_missing_column_allowed_with_explicit_dtype(self):
        schema = Schema.of({"a": DType.INT, "b": DType.FLOAT})
        table = Table.from_rows([{"a": 1, "b": None}, {"a": 2, "b": None}], schema=schema)
        assert table.column("b") == [None, None]
        assert table.schema.column("b").dtype is DType.FLOAT

    def test_with_column_all_missing_requires_dtype(self, small_table):
        with pytest.raises(SchemaError, match="every value is missing"):
            small_table.with_column("note", [None] * small_table.num_rows)
        explicit = small_table.with_column(
            "note", [None] * small_table.num_rows, dtype=DType.STRING
        )
        assert explicit.column("note") == [None] * small_table.num_rows

    def test_partially_missing_column_still_inferred(self):
        table = Table.from_rows([{"a": None}, {"a": 2.5}])
        assert table.schema.column("a").dtype is DType.FLOAT

    def test_missing_column_data_rejected(self):
        with pytest.raises(SchemaError):
            Table(Schema.of({"a": DType.INT, "b": DType.INT}), {"a": [1]})


class TestAccess:
    def test_column_returns_copy(self, small_table):
        values = small_table.column("age")
        values[0] = 999
        assert small_table.column("age")[0] == 30

    def test_numeric_column_handles_missing(self, small_table):
        income = small_table.numeric_column("income")
        assert np.isnan(income[4])
        assert income[0] == 55000.0

    def test_numeric_column_rejects_categorical(self, small_table):
        with pytest.raises(SchemaError):
            small_table.numeric_column("city")

    def test_numeric_matrix_shape_and_empty(self, small_table):
        matrix = small_table.numeric_matrix(["age", "income"])
        assert matrix.shape == (5, 2)
        assert small_table.numeric_matrix([]).shape == (5, 0)

    def test_row_and_rows(self, small_table):
        assert small_table.row(2)["city"] == "Salt Lake"
        assert len(small_table.to_rows()) == 5
        with pytest.raises(IndexError):
            small_table.row(5)

    def test_key_values(self, small_table):
        assert small_table.key_values() == ["a", "b", "c", "d", "e"]

    def test_key_values_without_key_are_positions(self):
        table = Table.from_columns({"x": [10, 20]})
        assert table.key_values() == [0, 1]

    def test_unique_preserves_order_and_skips_missing(self, small_table):
        assert small_table.unique("city") == ["Boston", "Salt Lake", "Amherst"]

    def test_unique_of_rows_equals_unique_of_the_copied_rows(self, small_table):
        indices = np.array([3, 0, 4, 2])
        assert small_table.unique("city", indices) == ["Amherst", "Boston", "Salt Lake"]
        mask = np.array([False, True, False, True, True])
        for name in small_table.column_names:
            assert small_table.unique(name, indices) == small_table.take(indices).unique(name)
            assert small_table.unique(name, mask) == small_table.mask(mask).unique(name)

    def test_head(self, small_table):
        assert small_table.head(2).num_rows == 2
        assert small_table.head(100).num_rows == 5

    def test_equality(self, small_table):
        assert small_table == small_table.take(range(small_table.num_rows))
        assert small_table != small_table.take([0, 1])


class TestTransformation:
    def test_take_reorders(self, small_table):
        taken = small_table.take([3, 0])
        assert taken.column("id") == ["d", "a"]

    def test_mask_selects(self, small_table):
        masked = small_table.mask([True, False, False, True, False])
        assert masked.column("id") == ["a", "d"]

    def test_mask_wrong_length_rejected(self, small_table):
        with pytest.raises(SchemaError):
            small_table.mask([True])

    def test_filter_predicate(self, small_table):
        young = small_table.filter(lambda row: row["age"] < 40)
        assert young.column("id") == ["a", "c", "e"]

    def test_project_and_drop(self, small_table):
        projected = small_table.project(["id", "age"])
        assert projected.column_names == ["id", "age"]
        dropped = small_table.drop(["city", "active"])
        assert dropped.column_names == ["id", "age", "income"]

    def test_rename(self, small_table):
        renamed = small_table.rename({"income": "salary"})
        assert "salary" in renamed.schema.names
        assert renamed.column("salary") == small_table.column("income")

    def test_with_column_adds_and_replaces(self, small_table):
        with_bonus = small_table.with_column("bonus", [1.0, 2.0, 3.0, 4.0, 5.0])
        assert with_bonus.num_columns == small_table.num_columns + 1
        replaced = with_bonus.with_column("bonus", [9.0] * 5)
        assert replaced.column("bonus") == [9.0] * 5

    def test_with_column_wrong_length_rejected(self, small_table):
        with pytest.raises(SchemaError):
            small_table.with_column("x", [1, 2])

    def test_sort_by_missing_last(self, small_table):
        ordered = small_table.sort_by("income")
        assert ordered.column("id")[-1] == "e"
        assert ordered.column("income")[0] == 48000.0

    def test_sort_descending(self, small_table):
        ordered = small_table.sort_by("age", descending=True)
        assert ordered.column("age")[0] == 58

    def test_sort_descending_puts_missing_last(self):
        table = Table.from_rows([{"a": 3}, {"a": None}, {"a": 1}, {"a": None}, {"a": 3}])
        assert table.sort_by("a", descending=True).column("a") == [3, 3, 1, None, None]
        assert table.sort_by("a").column("a") == [1, 3, 3, None, None]

    def test_sort_is_stable_both_ways(self):
        table = Table.from_rows(
            [{"k": "x", "a": 2}, {"k": "y", "a": None}, {"k": "z", "a": 2}, {"k": "w", "a": 1}]
        )
        assert table.sort_by("a", descending=True).column("k") == ["x", "z", "w", "y"]
        assert table.sort_by("a").column("k") == ["w", "x", "z", "y"]

    def test_concat(self, small_table):
        doubled = small_table.concat(small_table)
        assert doubled.num_rows == 10

    def test_concat_schema_mismatch_rejected(self, small_table):
        other = Table.from_columns({"x": [1]})
        with pytest.raises(SchemaError):
            small_table.concat(other)

    def test_group_by(self, small_table):
        groups = small_table.group_by(["city"])
        assert set(key[0] for key in groups) == {"Boston", "Salt Lake", "Amherst"}
        assert groups[("Boston",)].num_rows == 2

    def test_join_inner(self):
        left = Table.from_rows([{"k": 1, "a": "x"}, {"k": 2, "a": "y"}], primary_key="k")
        right = Table.from_rows([{"k": 1, "b": 10}, {"k": 3, "b": 30}])
        joined = left.join(right, on="k")
        assert joined.num_rows == 1
        assert joined.row(0)["b"] == 10

    def test_join_no_matches_returns_empty(self):
        left = Table.from_rows([{"k": 1, "a": "x"}])
        right = Table.from_rows([{"k": 2, "b": 10}])
        assert left.join(right, on="k").num_rows == 0

    def test_empty_join_keeps_dtypes_and_primary_key(self):
        left = Table.from_rows([{"k": 1, "a": "x", "v": 1.5}], primary_key="k")
        right = Table.from_rows([{"k": 2, "v": 10, "ok": True}])
        joined = left.join(right, on="k")
        assert joined.num_rows == 0
        assert joined.column_names == ["k", "a", "v", "v_right", "ok"]
        dtypes = {column.name: column.dtype for column in joined.schema}
        assert dtypes == {
            "k": DType.INT, "a": DType.STRING, "v": DType.FLOAT,
            "v_right": DType.INT, "ok": DType.BOOL,
        }
        assert joined.primary_key == "k"

    def test_join_schema_is_the_same_with_or_without_matches(self):
        left = Table.from_rows([{"k": 1, "a": "x"}, {"k": 2, "a": None}], primary_key="k")
        right = Table.from_rows([{"k": 2, "a": 0.5}, {"k": 2, "a": None}])
        matched = left.join(right, on="k")
        unmatched = left.join(right.mask([False, False]), on="k")
        assert matched.schema == unmatched.schema
        assert matched.to_rows() == [
            {"k": 2, "a": None, "a_right": 0.5},
            {"k": 2, "a": None, "a_right": None},
        ]


class TestSummaries:
    def test_describe(self, small_table):
        stats = small_table.describe("age")
        assert stats["count"] == 5
        assert stats["min"] == 25 and stats["max"] == 58

    def test_describe_all_missing(self):
        table = Table.from_columns({"x": [None, None]}, schema=Schema.of({"x": DType.FLOAT}))
        assert table.describe("x")["count"] == 0

    def test_value_counts(self, small_table):
        counts = small_table.value_counts("city")
        assert counts == {"Boston": 2, "Salt Lake": 1, "Amherst": 2}
