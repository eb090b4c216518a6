"""``update_distance`` counts the cells ``SnapshotPair.changed_mask`` marks.

The contract tests pin what a changed cell is (the aligned pair's
definition, so an unchanged infinite value is no modification) and what
``update_distance`` refuses (differing schemas, duplicate keys).  The
hypothesis property checks the aligned implementation against the row-by-row
one it replaced, kept below as the oracle, on every input both accept.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diff import UpdateDistance, diff_snapshots, update_distance
from repro.exceptions import SnapshotAlignmentError
from repro.relational.schema import Column, DType, Schema
from repro.relational.snapshot import SnapshotPair
from repro.relational.table import Table


def table(rows, key="id"):
    return Table.from_rows(rows, primary_key=key)


class TestContract:
    def test_an_unchanged_infinite_cell_is_no_modification(self):
        source = table([{"id": 1, "v": math.inf}, {"id": 2, "v": 1.0}])
        target = table([{"id": 1, "v": math.inf}, {"id": 2, "v": 1.0}])
        assert update_distance(source, target) == UpdateDistance(0, 0, 0)
        assert diff_snapshots(SnapshotPair.align(source, target)).num_changes == 0

    def test_an_infinite_cell_changing_sign_is_one_modification(self):
        source = table([{"id": 1, "v": math.inf}, {"id": 2, "v": 1.0}])
        target = table([{"id": 1, "v": -math.inf}, {"id": 2, "v": 1.0}])
        assert update_distance(source, target) == UpdateDistance(1, 0, 0)

    def test_differing_schemas_are_refused(self):
        source = table([{"id": 1, "x": 1.0}, {"id": 2, "x": 2.0}])
        target = table([{"id": 1, "y": 5.0}, {"id": 2, "y": 6.0}])
        with pytest.raises(SnapshotAlignmentError, match="schemas differ"):
            update_distance(source, target)

    def test_duplicate_source_keys_are_refused(self):
        source = table([{"id": 1, "v": 1.0}, {"id": 1, "v": 2.0}])
        target = table([{"id": 1, "v": 1.0}])
        with pytest.raises(SnapshotAlignmentError, match="duplicate"):
            update_distance(source, target)

    def test_a_duplicate_key_outside_the_shared_rows_is_refused(self):
        source = table([{"id": 1, "v": 1.0}])
        target = table([{"id": 1, "v": 1.0}, {"id": 7, "v": 2.0}, {"id": 7, "v": 3.0}])
        with pytest.raises(SnapshotAlignmentError, match="duplicate"):
            update_distance(source, target)


# -- the row-by-row implementation the aligned one replaced (the oracle) -------


def oracle_update_distance(source: Table, target: Table, key: str | None = None) -> UpdateDistance:
    key = key or source.primary_key or target.primary_key
    if key is None:
        shared = min(source.num_rows, target.num_rows)
        modifications = _oracle_count_cell_changes(source.head(shared), target.head(shared))
        return UpdateDistance(
            modifications=modifications,
            insertions=max(0, target.num_rows - source.num_rows),
            deletions=max(0, source.num_rows - target.num_rows),
        )
    source_index = {value: i for i, value in enumerate(source.column(key))}
    target_index = {value: i for i, value in enumerate(target.column(key))}
    shared_keys = [value for value in source.column(key) if value in target_index]
    modifications = 0
    for value in shared_keys:
        source_row = source.row(source_index[value])
        target_row = target.row(target_index[value])
        for name in source.column_names:
            if name == key:
                continue
            if not _oracle_values_equal(source_row.get(name), target_row.get(name)):
                modifications += 1
    deletions = sum(1 for value in source_index if value not in target_index)
    insertions = sum(1 for value in target_index if value not in source_index)
    return UpdateDistance(modifications, insertions, deletions)


def _oracle_count_cell_changes(source: Table, target: Table) -> int:
    changes = 0
    for source_row, target_row in zip(source.rows(), target.rows()):
        for name in source.column_names:
            if not _oracle_values_equal(source_row.get(name), target_row.get(name)):
                changes += 1
    return changes


def _oracle_values_equal(a: object, b: object, tolerance: float = 1e-9) -> bool:
    if a is None and b is None:
        return True
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) and not isinstance(
        a, bool
    ) and not isinstance(b, bool):
        return abs(float(a) - float(b)) <= tolerance
    return a == b


# -- the property --------------------------------------------------------------

COLUMNS = (
    Column("id", DType.INT),
    Column("v", DType.FLOAT),
    Column("n", DType.INT),
    Column("c", DType.STRING),
    Column("b", DType.BOOL),
)

# finite values only; the pool puts sub-tolerance edits (1 vs 1 + 1e-12),
# edits just past the tolerance, NaN and None side by side
VALUES = {
    "v": st.one_of(
        st.sampled_from([0.0, 1.0, 1.0 + 1e-12, 1.0 + 2e-9, -2.5, None, float("nan")]),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    ),
    "n": st.one_of(st.none(), st.integers(-3, 3)),
    "c": st.sampled_from(["a", "b", "c", None]),
    "b": st.sampled_from([True, False, None]),
}


@st.composite
def table_pairs(draw):
    """Two same-schema tables, keyed with unique (overlapping) keys or unkeyed."""
    keyed = draw(st.booleans())
    schema = Schema(COLUMNS, primary_key="id" if keyed else None)
    if keyed:
        source_ids = draw(st.lists(st.integers(0, 12), unique=True, max_size=10))
        target_ids = draw(st.lists(st.integers(0, 12), unique=True, max_size=10))
    else:
        source_ids = draw(st.lists(st.integers(0, 3), max_size=8))
        target_ids = draw(st.lists(st.integers(0, 3), max_size=8))
    source_rows = [
        {"id": value, **{name: draw(values) for name, values in VALUES.items()}}
        for value in source_ids
    ]
    by_id = {row["id"]: row for row in source_rows} if keyed else dict(enumerate(source_rows))
    target_rows = []
    for position, value in enumerate(target_ids):
        # a shared row keeps each source cell or takes a new draw
        base = by_id.get(value if keyed else position)
        row = {"id": value}
        for name, values in VALUES.items():
            keep = base is not None and draw(st.booleans())
            row[name] = base[name] if keep else draw(values)
        target_rows.append(row)
    return (
        Table.from_rows(source_rows, schema=schema),
        Table.from_rows(target_rows, schema=schema),
    )


class TestAgainstTheRowByRowOracle:
    @settings(max_examples=300, deadline=None)
    @given(table_pairs())
    def test_the_aligned_distance_equals_the_oracle(self, tables):
        source, target = tables
        assert update_distance(source, target) == oracle_update_distance(source, target)
