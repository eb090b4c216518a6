"""Property tests: the array-backed Table against a plain-list reference.

Random tables mix every dtype with missing values, booleans, strings and
INT values beyond 2**53 (which float64 cannot hold exactly).  Every
operation must hand back exactly the Python values a list-of-rows reference
computes — ``int`` for INT, ``bool`` for BOOL, ``None`` for missing — and
the float arrays behind numeric columns must stay read-only, also after a
table travels through ``pickle`` (as it does to process-pool workers).
"""

from __future__ import annotations

import pickle
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.schema import DType, Schema
from repro.relational.table import Table

SCHEMA = Schema.of(
    {"i": DType.INT, "f": DType.FLOAT, "s": DType.STRING, "b": DType.BOOL}
)

ints = st.one_of(
    st.none(),
    st.integers(-5, 5),
    st.sampled_from([2**53, 2**53 + 1, -(2**53) - 1, 2**60, -(2**63), 2**70]),
)
floats = st.one_of(
    st.none(),
    st.sampled_from([0.0, -0.0, 1.5, -2.25, 1e300]),
    st.floats(allow_nan=False, width=32),
)
strings = st.one_of(st.none(), st.sampled_from(["a", "b", "PhD", "ü", " x "]))
bools = st.one_of(st.none(), st.booleans())

row_strategy = st.fixed_dictionaries({"i": ints, "f": floats, "s": strings, "b": bools})
row_lists = st.lists(row_strategy, max_size=25)


def coerced(rows):
    return [{column.name: column.coerce(row[column.name]) for column in SCHEMA} for row in rows]


def assert_same_values(actual, expected):
    """Equal, and of the same Python types (``1 == 1.0 == True`` is not enough)."""
    assert actual == expected
    assert [type(value) for value in actual] == [type(value) for value in expected]


def assert_same_rows(table: Table, expected_rows):
    rows = table.to_rows()
    assert rows == expected_rows
    for row, expected in zip(rows, expected_rows):
        assert_same_values(list(row.values()), list(expected.values()))
    for name in SCHEMA.names:
        assert_same_values(table.column(name), [row[name] for row in expected_rows])


def reference_float(value):
    return np.nan if value is None else float(value)


@settings(max_examples=60, deadline=None)
@given(row_lists)
def test_round_trip_equals_coerced_rows(rows):
    table = Table.from_rows(rows, schema=SCHEMA)
    expected = coerced(rows)
    assert_same_rows(table, expected)
    for index, row in enumerate(expected):
        assert_same_values(list(table.row(index).values()), list(row.values()))
    for name in ("i", "f"):
        reference = np.array([reference_float(row[name]) for row in expected], dtype=float)
        np.testing.assert_array_equal(table.numeric_column(name), reference)


@settings(max_examples=60, deadline=None)
@given(row_lists, st.data())
def test_slicing_matches_the_list_reference(rows, data):
    table = Table.from_rows(rows, schema=SCHEMA)
    expected = coerced(rows)
    n = len(expected)
    indices = data.draw(st.lists(st.integers(0, n - 1), max_size=30) if n else st.just([]))
    assert_same_rows(table.take(indices), [expected[i] for i in indices])
    assert_same_rows(table.take(np.array(indices, dtype=np.int64)), [expected[i] for i in indices])
    mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    assert_same_rows(table.mask(mask), [row for row, keep in zip(expected, mask) if keep])
    names = data.draw(st.permutations(SCHEMA.names))[: data.draw(st.integers(1, 4))]
    projected = table.project(names)
    assert projected.to_rows() == [{name: row[name] for name in names} for row in expected]
    # a slice of a slice still decodes through the parent's dictionaries
    assert_same_rows(table.take(indices).mask([True] * len(indices)), [expected[i] for i in indices])


@settings(max_examples=60, deadline=None)
@given(row_lists, row_lists)
def test_concat_merges_dictionaries(rows_a, rows_b):
    left = Table.from_rows(rows_a, schema=SCHEMA)
    right = Table.from_rows(rows_b, schema=SCHEMA)
    expected = coerced(rows_a) + coerced(rows_b)
    joined = left.concat(right)
    assert_same_rows(joined, expected)
    assert joined == Table.from_rows(rows_a + rows_b, schema=SCHEMA)


@settings(max_examples=60, deadline=None)
@given(row_lists, st.sampled_from([["s"], ["b"], ["i"], ["f"], ["s", "b"], ["b", "i"], []]))
def test_grouping_and_summaries_match_the_list_reference(rows, names):
    table = Table.from_rows(rows, schema=SCHEMA)
    expected = coerced(rows)
    reference: dict[tuple, list[dict]] = OrderedDict()
    for row in expected:
        reference.setdefault(tuple(row[name] for name in names), []).append(row)
    groups = table.group_by(names)
    assert list(groups) == list(reference)
    for (key, group), reference_key in zip(groups.items(), reference):
        assert_same_values(list(key), list(reference_key))
        assert_same_rows(group, reference[reference_key])
    for name in SCHEMA.names:
        values = [row[name] for row in expected]
        unique = list(dict.fromkeys(value for value in values if value is not None))
        assert_same_values(table.unique(name), unique)
        counts: dict = OrderedDict()
        for value in values:
            counts[value] = counts.get(value, 0) + 1
        assert list(table.value_counts(name).items()) == list(counts.items())
        assert_same_values(list(table.value_counts(name)), list(counts))


@settings(max_examples=30, deadline=None)
@given(row_lists)
def test_numeric_columns_stay_read_only_through_pickle(rows):
    table = Table.from_rows(rows, schema=SCHEMA)
    for candidate in (table, pickle.loads(pickle.dumps(table)), table.take(range(len(table)))):
        for name in ("i", "f"):
            column = candidate.numeric_column(name)
            assert not column.flags.writeable
            if column.size:
                with pytest.raises(ValueError):
                    column[0] = 1.0
        for name in ("s", "b"):
            codes, _ = candidate.categorical_codes(name)
            assert not codes.flags.writeable
    assert pickle.loads(pickle.dumps(table)) == table
