"""Unit tests for snapshot alignment (the ChARLES input contract)."""

import pytest

from repro.exceptions import SnapshotAlignmentError
from repro.relational.snapshot import SnapshotPair
from repro.relational.table import Table


def _table(rows, key="id"):
    return Table.from_rows(rows, primary_key=key)


def _spy_on_column(monkeypatch) -> list[str]:
    """The names ``Table.column`` decodes from now on, in call order."""
    decoded: list[str] = []
    original = Table.column

    def spy(self, name):
        decoded.append(name)
        return original(self, name)

    monkeypatch.setattr(Table, "column", spy)
    return decoded


@pytest.fixture()
def source():
    return _table(
        [
            {"id": "a", "grp": "x", "v": 10.0},
            {"id": "b", "grp": "x", "v": 20.0},
            {"id": "c", "grp": "y", "v": 30.0},
        ]
    )


class TestAlignment:
    def test_align_reorders_target_by_key(self, source):
        target = _table(
            [
                {"id": "c", "grp": "y", "v": 33.0},
                {"id": "a", "grp": "x", "v": 10.0},
                {"id": "b", "grp": "x", "v": 22.0},
            ]
        )
        pair = SnapshotPair.align(source, target)
        assert pair.key == "id"
        assert pair.target.column("id") == ["a", "b", "c"]
        assert pair.target.column("v") == [10.0, 22.0, 33.0]

    def test_schema_mismatch_rejected(self, source):
        other = _table([{"id": "a", "grp": "x", "w": 1.0}])
        with pytest.raises(SnapshotAlignmentError):
            SnapshotPair.align(source, other)

    def test_inserted_or_deleted_entities_rejected(self, source):
        target = _table(
            [
                {"id": "a", "grp": "x", "v": 10.0},
                {"id": "b", "grp": "x", "v": 20.0},
                {"id": "d", "grp": "y", "v": 40.0},
            ]
        )
        with pytest.raises(SnapshotAlignmentError):
            SnapshotPair.align(source, target)

    def test_duplicate_keys_rejected(self):
        duplicated = _table([{"id": "a", "v": 1.0}, {"id": "a", "v": 2.0}])
        with pytest.raises(SnapshotAlignmentError):
            SnapshotPair.align(duplicated, duplicated)

    def test_positional_alignment_without_key(self):
        left = Table.from_columns({"v": [1.0, 2.0]})
        right = Table.from_columns({"v": [1.0, 3.0]})
        pair = SnapshotPair.align(left, right)
        assert pair.key is None
        assert pair.changed_mask("v").tolist() == [False, True]

    def test_positional_alignment_row_count_mismatch_rejected(self):
        left = Table.from_columns({"v": [1.0, 2.0]})
        right = Table.from_columns({"v": [1.0]})
        with pytest.raises(SnapshotAlignmentError):
            SnapshotPair.align(left, right)


class TestChangeInspection:
    @pytest.fixture()
    def pair(self, source):
        target = _table(
            [
                {"id": "a", "grp": "x", "v": 11.0},
                {"id": "b", "grp": "x", "v": 20.0},
                {"id": "c", "grp": "z", "v": 33.0},
            ]
        )
        return SnapshotPair.align(source, target)

    def test_changed_mask_numeric(self, pair):
        assert pair.changed_mask("v").tolist() == [True, False, True]

    def test_changed_mask_categorical(self, pair):
        assert pair.changed_mask("grp").tolist() == [False, False, True]

    def test_changed_mask_is_computed_once_and_read_only(self, pair):
        mask = pair.changed_mask("v")
        assert pair.changed_mask("v") is mask
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0] = False
        # another tolerance is another mask
        assert pair.changed_mask("v", tolerance=2.0).tolist() == [False, False, True]
        assert pair.changed_mask("v").tolist() == [True, False, True]

    def test_memoised_masks_do_not_affect_equality(self, pair):
        fresh = SnapshotPair(pair.source, pair.target, pair.key, tuple(pair.key_values))
        pair.changed_mask("grp")
        assert pair == fresh

    def test_changed_attributes_excludes_key(self, pair):
        assert pair.changed_attributes() == ["grp", "v"]

    def test_change_fraction(self, pair):
        assert pair.change_fraction("v") == pytest.approx(2 / 3)

    def test_delta(self, pair):
        assert pair.delta("v").tolist() == [1.0, 0.0, 3.0]

    def test_delta_rejects_categorical(self, pair):
        with pytest.raises(SnapshotAlignmentError):
            pair.delta("grp")

    def test_numeric_tolerance(self, source):
        target = source.with_column("v", [10.0 + 1e-12, 20.0, 30.0])
        pair = SnapshotPair.align(source, target)
        assert not pair.changed_mask("v").any()

    def test_pair_decodes_its_keys_only_when_asked(self, pair, monkeypatch):
        decoded = _spy_on_column(monkeypatch)
        lazy = SnapshotPair(pair.source, pair.target, pair.key)
        assert "id" not in decoded
        assert lazy.key_values == ["a", "b", "c"]
        assert decoded.count("id") == 1
        assert lazy.key_values == ["a", "b", "c"]
        assert decoded.count("id") == 1  # decoded once, then kept
        # equality reads tables and key, not whether the keys were decoded
        assert lazy == pair

    def test_positional_pair_is_identified_by_row_positions(self):
        table = Table.from_columns({"v": [1.0, 2.0, 3.0]})
        pair = SnapshotPair.align(table, table.with_column("v", [1.0, 5.0, 6.0]))
        assert pair.key_values == [0, 1, 2]
        assert SnapshotPair(table, table, None).key_values == [0, 1, 2]

    def test_a_search_decodes_no_key_column_after_alignment(self, monkeypatch):
        from repro.core import Charles, CharlesConfig
        from repro.workloads import employee_pair

        pair = employee_pair(120, seed=3)
        decoded = _spy_on_column(monkeypatch)
        result = Charles(CharlesConfig()).summarize_pair(pair, "bonus")
        assert result.summaries
        assert pair.key not in decoded

    def test_len_and_key_values(self, pair):
        assert len(pair) == 3
        assert pair.key_values == ["a", "b", "c"]


class TestChangedMaskMissingness:
    def _pair(self, old, new):
        from repro.relational.schema import DType, Schema
        from repro.relational.table import Table

        schema = Schema.of({"id": DType.STRING, "pay": DType.FLOAT}, primary_key="id")
        source = Table.from_rows(
            [{"id": str(i), "pay": v} for i, v in enumerate(old)], schema=schema
        )
        target = Table.from_rows(
            [{"id": str(i), "pay": v} for i, v in enumerate(new)], schema=schema
        )
        return SnapshotPair.align(source, target, key="id")

    def test_value_to_missing_counts_as_change(self):
        pair = self._pair([5000.0, 1.0], [None, 1.0])
        assert pair.changed_mask("pay").tolist() == [True, False]

    def test_missing_to_value_counts_as_change(self):
        pair = self._pair([None, 1.0], [7.5, 1.0])
        assert pair.changed_mask("pay").tolist() == [True, False]

    def test_missing_on_both_sides_is_unchanged(self):
        pair = self._pair([None, 2.0], [None, 2.5])
        assert pair.changed_mask("pay").tolist() == [False, True]

    def test_timeline_delta_sees_value_to_missing_edits(self):
        from repro.timeline import VersionDelta

        pair = self._pair([5000.0, 1.0], [None, 1.0])
        delta = VersionDelta.from_pair(pair)
        assert delta.changed_attributes == ("pay",)
        assert delta.num_changed_cells == 1
