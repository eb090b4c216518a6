"""Unit tests for the setup assistant (attribute shortlisting)."""

import pytest

from repro.core.config import CharlesConfig
from repro.core.setup_assistant import SetupAssistant
from repro.exceptions import DiscoveryError
from repro.relational.csv_io import read_csv_text, write_csv_text
from repro.relational.snapshot import SnapshotPair
from repro.workloads import employee_pair


class TestSetupAssistant:
    def test_transformation_candidates_are_numeric_and_include_target(self, fig1_pair):
        suggestions = SetupAssistant().suggest(fig1_pair, "bonus")
        names = [s.attribute for s in suggestions.transformation_candidates]
        assert "bonus" in names  # the previous year's value is always a candidate
        assert "edu" not in names and "gen" not in names
        assert suggestions.transformation_candidates[0].attribute == "bonus"

    def test_selected_respect_caps(self, fig1_pair):
        config = CharlesConfig(max_condition_attributes=2, max_transformation_attributes=1)
        suggestions = SetupAssistant(config).suggest(fig1_pair, "bonus")
        assert len(suggestions.selected_condition_attributes) <= 2
        assert len(suggestions.selected_transformation_attributes) == 1

    def test_key_column_never_suggested(self, fig1_pair):
        suggestions = SetupAssistant().suggest(fig1_pair, "bonus")
        all_names = [s.attribute for s in suggestions.condition_candidates]
        assert "name" not in all_names

    def test_education_ranks_high_for_bonus_change(self, fig1_pair):
        suggestions = SetupAssistant().suggest(fig1_pair, "bonus")
        scores = {s.attribute: s.association for s in suggestions.condition_candidates}
        assert scores["edu"] > 0.5
        assert scores["edu"] > scores["gen"]

    def test_threshold_filters_selection(self, fig1_pair):
        strict = CharlesConfig(correlation_threshold=0.99)
        suggestions = SetupAssistant(strict).suggest(fig1_pair, "bonus")
        selected = suggestions.selected_condition_attributes
        # only near-perfect associations survive, but the fallback guarantees at least one
        assert len(selected) >= 1
        assert all(
            s.association > 0.99 or s.selected is False or s.association > 0.0
            for s in suggestions.condition_candidates
        )

    def test_fallback_promotes_top_candidates_when_threshold_rejects_all(self, montgomery_400):
        config = CharlesConfig(correlation_threshold=1.0)
        suggestions = SetupAssistant(config).suggest(montgomery_400, "base_salary")
        assert suggestions.selected_condition_attributes, "fallback should select something"

    def test_non_numeric_target_rejected(self, fig1_pair):
        with pytest.raises(DiscoveryError):
            SetupAssistant().suggest(fig1_pair, "edu")

    def test_describe_mentions_both_lists(self, fig1_pair):
        text = SetupAssistant().suggest(fig1_pair, "bonus").describe()
        assert "condition candidates" in text
        assert "transformation candidates" in text

    def test_associations_bounded(self, billionaires_300):
        suggestions = SetupAssistant().suggest(billionaires_300, "net_worth")
        for suggestion in suggestions.condition_candidates:
            assert 0.0 <= suggestion.association <= 1.0 + 1e-9

    def test_industry_detected_for_billionaires(self, billionaires_300):
        suggestions = SetupAssistant().suggest(billionaires_300, "net_worth")
        assert "industry" in suggestions.selected_condition_attributes


class TestRowIdentifiers:
    def test_identifier_column_scores_zero_without_a_key(self):
        """Aligned by row order, ``name`` is an ordinary column with one row per value."""
        pair = employee_pair(200, seed=7)
        names = pair.source.column("name")
        names[3] = None  # a missing value does not make the column less of an identifier
        source = read_csv_text(write_csv_text(pair.source.with_column("name", names)))
        target = read_csv_text(write_csv_text(pair.target))
        unkeyed = SnapshotPair.align(source, target)
        assert unkeyed.key is None
        suggestions = SetupAssistant().suggest(unkeyed, "bonus")
        scores = {s.attribute: s.association for s in suggestions.condition_candidates}
        assert scores["name"] == 0.0
        assert "name" not in suggestions.selected_condition_attributes
        keyed = SetupAssistant().suggest(pair, "bonus")
        assert suggestions.selected_condition_attributes == keyed.selected_condition_attributes
