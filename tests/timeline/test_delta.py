"""Tests for the delta layer: change masks, touch queries, reporting."""

from __future__ import annotations

import numpy as np

from repro.relational.table import Table
from repro.timeline import TimelineStore, VersionDelta


def _store():
    v1 = Table.from_rows(
        [
            {"id": "a", "dept": "ops", "pay": 100.0, "bonus": 10.0},
            {"id": "b", "dept": "ops", "pay": 200.0, "bonus": 20.0},
            {"id": "c", "dept": "eng", "pay": 300.0, "bonus": 30.0},
        ],
        primary_key="id",
    )
    v2 = v1.with_column("pay", [100.0, 250.0, 300.0])
    v3 = v2.with_column("dept", ["ops", "ops", "ops"]).with_column(
        "bonus", [10.0, 20.0, 33.0]
    )
    store = TimelineStore()
    for name, table in [("v1", v1), ("v2", v2), ("v3", v3)]:
        store.append(name, table)
    return store


class TestVersionDelta:
    def test_changed_attributes_and_masks(self):
        store = _store()
        delta = store.delta("v1", "v2")
        assert delta.changed_attributes == ("pay",)
        assert "pay" in delta and "bonus" not in delta
        assert delta.changed_mask("pay").tolist() == [False, True, False]
        assert delta.changed_mask("bonus").tolist() == [False, False, False]
        assert delta.num_changed_cells == 1
        assert not delta.is_empty

    def test_categorical_and_numeric_changes_combined(self):
        store = _store()
        delta = store.delta("v2", "v3")
        assert set(delta.changed_attributes) == {"dept", "bonus"}
        assert delta.changed_row_mask().tolist() == [False, False, True]
        assert delta.changed_row_mask(["bonus"]).tolist() == [False, False, True]
        assert delta.touches(["bonus", "pay"])
        assert not delta.touches(["pay"])

    def test_empty_delta(self):
        store = _store()
        store.append("v4", store.checkout("v3"))
        delta = store.delta("v3", "v4")
        assert delta.is_empty
        assert delta.changed_attributes == ()
        assert delta.num_changed_cells == 0
        assert "identical" in delta.describe()

    def test_attribute_deltas_sorted_most_changed_first(self):
        store = _store()
        store.append("v4", store.checkout("v3").with_column("pay", [101.0, 251.0, 301.0]))
        delta = store.delta("v1", "v4")
        deltas = delta.attribute_deltas()
        # pay changed in every row; dept and bonus tie and fall back to name order
        assert [d.attribute for d in deltas] == ["pay", "bonus", "dept"]
        assert deltas[0].changed_rows == 3
        assert deltas[0].change_fraction == 1.0

    def test_from_pair_respects_key_exclusion(self):
        store = _store()
        pair = store.pair("v1", "v2")
        delta = VersionDelta.from_pair(pair)
        assert "id" not in delta.changed_attributes

    def test_describe_mentions_rows_touched(self):
        store = _store()
        text = store.delta("v1", "v3").describe()
        assert "rows touched" in text
        assert "pay" in text and "bonus" in text

    def test_masks_are_per_attribute_not_shared(self):
        store = _store()
        delta = store.delta("v1", "v3")
        pay_mask = delta.changed_mask("pay")
        bonus_mask = delta.changed_mask("bonus")
        assert not np.array_equal(pay_mask, bonus_mask)


class TestVersionDeltaEdgeCases:
    """Pins the delta layer's behaviour at its boundaries.

    Timeline hops skip the search entirely when the delta misses the target
    (:meth:`~repro.timeline.session.EngineSession.summarize_timeline`), so
    these semantics are load-bearing: a change here changes which hops run.
    """

    def test_all_rows_changed(self):
        store = _store()
        every = store.checkout("v1").with_column("pay", [101.0, 201.0, 301.0])
        store.append("v_all", every)
        delta = store.delta("v1", "v_all")
        assert delta.changed_mask("pay").all()
        assert delta.changed_row_mask().all()
        assert delta.attribute_deltas()[0].change_fraction == 1.0

    def test_zero_rows_changed(self):
        store = _store()
        store.append("v_same", store.checkout("v3"))
        delta = store.delta("v3", "v_same")
        assert delta.is_empty
        assert not delta.touches(["pay", "bonus", "dept"])
        # asking for specific attributes still yields an all-false row mask
        assert not delta.changed_row_mask(["pay", "bonus"]).any()
        assert delta.changed_mask("pay").dtype == bool
        assert not delta.changed_mask("pay").any()

    def test_nan_value_flips_are_changes_but_nan_nan_is_not(self):
        v1 = Table.from_rows(
            [
                {"id": "a", "pay": 100.0},
                {"id": "b", "pay": None},
                {"id": "c", "pay": None},
                {"id": "d", "pay": 400.0},
            ],
            primary_key="id",
        )
        # a: value -> NaN, b: NaN -> value, c: NaN -> NaN, d: value -> value
        v2 = v1.with_column("pay", [None, 250.0, None, 400.0])
        store = TimelineStore()
        store.append("v1", v1)
        store.append("v2", v2)
        delta = store.delta("v1", "v2")
        # a value appearing or disappearing is a change; both sides missing is
        # not (there is no value to have changed); dtype stays boolean
        assert delta.changed_mask("pay").tolist() == [True, True, False, False]
        assert delta.num_changed_cells == 2

    def test_changed_mask_on_attribute_absent_from_delta(self):
        store = _store()
        delta = store.delta("v1", "v2")  # only "pay" changed
        absent = delta.changed_mask("bonus")
        assert absent.shape == (3,) and absent.dtype == bool and not absent.any()
        # the lookup is by name only — an attribute outside the schema also
        # yields the all-false mask rather than raising (current behaviour,
        # relied on by changed_row_mask over arbitrary attribute shortlists)
        assert not delta.changed_mask("no-such-attribute").any()
        assert not delta.touches(["no-such-attribute"])
        assert not delta.changed_row_mask(["no-such-attribute"]).any()
