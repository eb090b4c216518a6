"""Tests for the facade conveniences: per-entity explanations and multi-target runs."""

import pytest

from repro.core import Charles
from repro.exceptions import DiscoveryError


class TestExplainEntity:
    def test_explains_a_changed_employee(self, fig1_result):
        text = fig1_result.explain_entity("Anne")
        assert "Anne" in text
        assert "23000" in text and "25150" in text
        assert "rule R" in text
        assert "error 0" in text

    def test_explains_an_unchanged_employee(self, fig1_result):
        text = fig1_result.explain_entity("Cathy")
        assert "no rule applies" in text
        assert "11000" in text

    def test_unknown_entity_rejected(self, fig1_result):
        with pytest.raises(DiscoveryError):
            fig1_result.explain_entity("Nobody")

    def test_every_entity_is_explainable(self, fig1_result, fig1_pair):
        for key in fig1_pair.key_values:
            text = fig1_result.explain_entity(key)
            assert str(key) in text


class TestSummarizeAll:
    def test_covers_every_changed_numeric_attribute(self, fig1_pair):
        results = Charles().summarize_all(fig1_pair)
        assert set(results) == {"exp", "bonus"}
        for target, result in results.items():
            assert result.target == target
            assert result.summaries

    def test_explicit_target_list(self, fig1_pair):
        results = Charles().summarize_all(fig1_pair, targets=["bonus"])
        assert list(results) == ["bonus"]

    def test_exp_change_is_explained_as_plus_one(self, fig1_pair):
        result = Charles().summarize_all(fig1_pair, targets=["exp"])["exp"]
        best = result.best
        # everyone's experience advanced by exactly one year
        assert best.breakdown.accuracy == pytest.approx(1.0)
        assert best.summary.size == 1
        transformation = best.summary.conditional_transformations[0].transformation
        assert transformation.intercept == pytest.approx(1.0)


class TestSetupAssistantOnDemand:
    """The setup assistant runs only for a missing shortlist."""

    @pytest.fixture()
    def suggest_calls(self, monkeypatch):
        from repro.core.setup_assistant import SetupAssistant

        calls = []
        original = SetupAssistant.suggest

        def counting(self, pair, target):
            calls.append(target)
            return original(self, pair, target)

        monkeypatch.setattr(SetupAssistant, "suggest", counting)
        return calls

    def test_pinned_shortlists_skip_it(self, fig1_pair, suggest_calls):
        charles = Charles()
        result = charles.summarize_pair(
            fig1_pair,
            "bonus",
            condition_attributes=["edu", "exp"],
            transformation_attributes=["bonus"],
        )
        charles.plan_pair(
            fig1_pair,
            "bonus",
            condition_attributes=["edu", "exp"],
            transformation_attributes=["bonus"],
        )
        assert suggest_calls == []
        # the suggestions still exist: computed on first read, then kept
        assert result.suggestions.target == "bonus"
        assert result.suggestions is result.suggestions
        assert suggest_calls == ["bonus"]

    def test_a_missing_shortlist_asks_once(self, fig1_pair, suggest_calls):
        result = Charles().summarize_pair(
            fig1_pair, "bonus", transformation_attributes=["bonus"]
        )
        assert result.suggestions.target == "bonus"
        assert suggest_calls == ["bonus"]  # the run's own suggestions are kept

    def test_a_result_entry_hit_needs_none(self, fig1_pair, suggest_calls):
        with Charles().session() as session:
            first = session.summarize_pair(fig1_pair, "bonus")
            second = session.summarize_pair(fig1_pair, "bonus")
        assert second.search_stats.result_hits == 1
        assert second.condition_attributes == first.condition_attributes
        assert suggest_calls == ["bonus"]  # the first run's, none for the hit

    def test_an_unchanged_target_plans_nothing_and_needs_none(self, fig1_tables, suggest_calls):
        from repro.relational.snapshot import SnapshotPair

        source, _ = fig1_tables
        pair = SnapshotPair.align(source, source)
        plan, index = Charles().plan_pair(pair, "bonus")
        assert len(plan) == 0 and plan.num_rounds == 0
        assert index is None
        assert Charles().summarize_pair(pair, "bonus").total_candidates == 1
        assert suggest_calls == []
