"""Unit tests for the syntactic diff substrate (cells, update distance, drift)."""

import numpy as np
import pytest

from repro.diff import (
    batch_update_distance,
    diff_snapshots,
    drift_report,
    update_distance,
)
from repro.relational.snapshot import SnapshotPair
from repro.relational.table import Table


class TestCellDiff:
    def test_counts_changed_cells_in_fig1(self, fig1_pair):
        report = diff_snapshots(fig1_pair)
        # every employee's exp advanced (9) and seven bonuses changed
        assert report.num_changes == 9 + 7
        assert set(report.changed_attributes) == {"exp", "bonus"}

    def test_changes_for_one_attribute(self, fig1_pair):
        report = diff_snapshots(fig1_pair)
        bonus_changes = report.changes_for("bonus")
        assert len(bonus_changes) == 7
        keys = {change.key for change in bonus_changes}
        assert "Cathy" not in keys and "James" not in keys

    def test_numeric_delta_and_statistics(self, fig1_pair):
        report = diff_snapshots(fig1_pair)
        stats = report.attribute_diff("bonus")
        assert stats is not None
        assert stats.changed_cells == 7
        assert stats.change_fraction == pytest.approx(7 / 9)
        assert stats.min_delta > 0

    def test_attribute_restriction(self, fig1_pair):
        report = diff_snapshots(fig1_pair, attributes=["bonus"])
        assert set(change.attribute for change in report) == {"bonus"}

    def test_identical_snapshots_have_empty_diff(self, fig1_tables):
        source, _ = fig1_tables
        pair = SnapshotPair.align(source, source)
        report = diff_snapshots(pair)
        assert report.num_changes == 0
        assert report.changed_attributes == []

    def test_categorical_changes_tracked(self):
        left = Table.from_rows([{"id": 1, "dept": "A"}, {"id": 2, "dept": "B"}], primary_key="id")
        right = Table.from_rows([{"id": 1, "dept": "Z"}, {"id": 2, "dept": "B"}], primary_key="id")
        report = diff_snapshots(SnapshotPair.align(left, right))
        assert report.num_changes == 1
        assert report.changes[0].numeric_delta is None

    def test_describe_truncates(self, fig1_pair):
        text = diff_snapshots(fig1_pair).describe(limit=3)
        assert "and" in text and "more" in text


class TestUpdateDistance:
    def test_update_only_evolution(self, fig1_tables):
        source, target = fig1_tables
        distance = update_distance(source, target, key="name")
        assert distance.modifications == 16
        assert distance.insertions == 0 and distance.deletions == 0
        assert distance.total == 16

    def test_insertions_and_deletions_counted(self):
        source = Table.from_rows([{"id": 1, "v": 1.0}, {"id": 2, "v": 2.0}], primary_key="id")
        target = Table.from_rows([{"id": 2, "v": 2.5}, {"id": 3, "v": 3.0}], primary_key="id")
        distance = update_distance(source, target)
        assert distance.modifications == 1
        assert distance.insertions == 1 and distance.deletions == 1

    def test_positional_distance_without_key(self):
        source = Table.from_columns({"v": [1.0, 2.0, 3.0]})
        target = Table.from_columns({"v": [1.0, 9.0]})
        distance = update_distance(source, target)
        assert distance.modifications == 1 and distance.deletions == 1

    def test_batch_update_distance(self, fig1_pair):
        assert batch_update_distance(fig1_pair) == 2  # exp and bonus changed

    def test_str_rendering(self, fig1_tables):
        source, target = fig1_tables
        assert "update distance" in str(update_distance(source, target, key="name"))


class TestDrift:
    def test_changed_attribute_has_positive_drift(self, fig1_pair):
        report = drift_report(fig1_pair)
        bonus = report.for_attribute("bonus")
        salary = report.for_attribute("salary")
        assert bonus is not None and bonus.drift_score > 0.0
        assert salary is not None and salary.drift_score == pytest.approx(0.0)

    def test_report_sorted_by_drift(self, fig1_pair):
        report = drift_report(fig1_pair)
        scores = [drift.drift_score for drift in report.drifts]
        assert scores == sorted(scores, reverse=True)

    def test_categorical_drift_total_variation(self):
        left = Table.from_rows([{"id": i, "cat": "a"} for i in range(10)], primary_key="id")
        right = Table.from_rows(
            [{"id": i, "cat": "a" if i < 5 else "b"} for i in range(10)], primary_key="id"
        )
        report = drift_report(SnapshotPair.align(left, right))
        drift = report.for_attribute("cat")
        assert drift is not None
        assert drift.histogram_distance == pytest.approx(0.5)

    def test_top_listing_and_describe(self, fig1_pair):
        report = drift_report(fig1_pair)
        assert len(report.top(2)) == 2
        assert "drift" in report.describe()

    def test_unknown_attribute_returns_none(self, fig1_pair):
        assert drift_report(fig1_pair).for_attribute("nonexistent") is None


class TestTimelineDiff:
    def _store(self):
        from repro.relational.table import Table
        from repro.timeline import TimelineStore

        v1 = Table.from_rows(
            [
                {"id": "a", "dept": "ops", "pay": 100.0, "bonus": 10.0},
                {"id": "b", "dept": "ops", "pay": 200.0, "bonus": 20.0},
                {"id": "c", "dept": "eng", "pay": 300.0, "bonus": 30.0},
            ],
            primary_key="id",
        )
        v2 = v1.with_column("pay", [110.0, 220.0, 300.0])
        v3 = v2.with_column("bonus", [10.0, 20.0, 33.0])
        store = TimelineStore()
        for name, table in [("v1", v1), ("v2", v2), ("v3", v3)]:
            store.append(name, table)
        return store

    def test_timeline_report_matches_full_diff_on_changed_attributes(self):
        from repro.diff import diff_snapshots, timeline_diff

        store = self._store()
        pair = store.pair("v1", "v2")
        (_, _, report), _ = timeline_diff(store)
        full = diff_snapshots(pair, attributes=["pay"])
        assert [str(c) for c in report.changes] == [str(c) for c in full.changes]
        assert report.attribute_diffs == full.attribute_diffs
        # unchanged attributes are entirely absent, not zero-count rows
        assert [d.attribute for d in report.attribute_diffs] == ["pay"]

    def test_a_deltas_masks_are_the_pairs_cached_masks(self):
        from repro.timeline import VersionDelta

        pair = self._store().pair("v1", "v2")
        delta = VersionDelta.from_pair(pair, "v1", "v2")
        assert delta.changed_attributes == tuple(pair.changed_attributes())
        assert delta.changed_mask("pay") is pair.changed_mask("pay")

    def test_timeline_diff_covers_every_hop(self):
        from repro.diff import timeline_diff

        reports = timeline_diff(self._store())
        assert [(s, t) for s, t, _ in reports] == [("v1", "v2"), ("v2", "v3")]
        first, second = reports[0][2], reports[1][2]
        assert first.changed_attributes == ["pay"]
        assert second.changed_attributes == ["bonus"]
        assert first.num_changes == 2 and second.num_changes == 1

    def test_timeline_drift_restricted_to_changed_attributes(self):
        from repro.diff import timeline_drift

        reports = timeline_drift(self._store())
        assert [d.attribute for d in reports[0][2].drifts] == ["pay"]
        assert [d.attribute for d in reports[1][2].drifts] == ["bonus"]

    def test_timeline_drift_empty_hop(self):
        from repro.diff import timeline_drift

        store = self._store()
        store.append("v4", store.checkout("v3"))
        reports = timeline_drift(store)
        assert reports[-1][2].drifts == ()
