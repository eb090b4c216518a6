"""Tests for the candidate search behind the Charles facade (integration-leaning)."""

import pytest

from repro.core import Charles, CharlesConfig
from repro.evaluation.metrics import rule_recovery
from repro.exceptions import DiscoveryError
from repro.relational.snapshot import SnapshotPair
from repro.search import SearchExecutor, build_search_plan


def _ranked(pair, target, conditions, transformations, config=None):
    """The full ranked candidate list of one search, not cut to the top-k."""
    config = config or CharlesConfig()
    plan = build_search_plan(conditions, transformations, config)
    ranked, _ = SearchExecutor(config.n_jobs).execute(pair, target, plan, config)
    return ranked


class TestCandidateSearch:
    def test_ranking_is_descending(self, fig1_result):
        scores = [scored.score for scored in fig1_result.summaries]
        assert scores == sorted(scores, reverse=True)

    def test_summaries_are_unique(self, fig1_result):
        described = [scored.summary.describe() for scored in fig1_result.summaries]
        assert len(described) == len(set(described))

    def test_non_numeric_target_rejected(self, fig1_pair):
        # plan and summarize validate the target in one place
        for run in (Charles().summarize_pair, Charles().plan_pair):
            with pytest.raises(DiscoveryError, match="^target attribute 'edu' must be numeric$"):
                run(fig1_pair, "edu", ["exp"], ["salary"])

    def test_no_numeric_transformation_attributes_rejected(self, fig1_pair):
        with pytest.raises(DiscoveryError, match="transformation"):
            Charles().summarize_pair(fig1_pair, "bonus", ["edu"], ["edu"])

    def test_key_and_non_numeric_attributes_are_dropped_before_planning(self, fig1_pair):
        charles = Charles()
        filtered = charles.summarize_pair(
            fig1_pair, "bonus", [fig1_pair.key, "edu"], ["edu", "bonus"]
        )
        clean = charles.summarize_pair(fig1_pair, "bonus", ["edu"], ["bonus"])
        assert [(s.summary.describe(), s.score) for s in filtered.summaries] == [
            (s.summary.describe(), s.score) for s in clean.summaries
        ]
        # the result reports the shortlists as they were asked for
        assert filtered.condition_attributes == (fig1_pair.key, "edu")
        assert filtered.transformation_attributes == ("edu", "bonus")

    def test_plan_drops_what_the_search_drops(self, fig1_pair):
        charles = Charles()
        shortlists = ([fig1_pair.key, "edu"], ["edu", "bonus"])
        plan, _ = charles.plan_pair(fig1_pair, "bonus", *shortlists)
        result = charles.summarize_pair(fig1_pair, "bonus", *shortlists)
        assert len(plan) == result.search_stats.candidates_enumerated
        with pytest.raises(DiscoveryError, match="transformation"):
            charles.plan_pair(fig1_pair, "bonus", ["edu"], ["edu"])

    def test_no_change_returns_single_empty_summary(self, fig1_tables):
        source, _ = fig1_tables
        pair = SnapshotPair.align(source, source)
        result = Charles().summarize_pair(pair, "bonus", ["edu"], ["bonus"])
        assert len(result.summaries) == 1
        assert result.total_candidates == 1
        assert result.summaries[0].summary.size == 0
        assert result.summaries[0].breakdown.accuracy == 1.0

    def test_no_change_still_validates_the_target(self, fig1_tables):
        source, _ = fig1_tables
        pair = SnapshotPair.align(source, source)
        for run in (Charles().summarize_pair, Charles().plan_pair):
            with pytest.raises(DiscoveryError, match="^target attribute 'edu' must be numeric$"):
                run(pair, "edu")

    def test_includes_global_single_rule_candidate(self, fig1_pair):
        ranked = _ranked(fig1_pair, "bonus", ["edu", "exp"], ["bonus"])
        assert any(
            scored.summary.size == 1
            and scored.summary.conditional_transformations[0].condition.is_trivial
            for scored in ranked
        )

    def test_respects_max_transformation_attributes(self, fig1_pair):
        config = CharlesConfig(max_transformation_attributes=1)
        ranked = _ranked(fig1_pair, "bonus", ["edu"], ["bonus", "salary"], config)
        for scored in ranked:
            for ct in scored.summary:
                assert len(ct.transformation.feature_names) <= 1

    def test_respects_max_condition_attributes(self, fig1_pair):
        config = CharlesConfig(max_condition_attributes=1)
        ranked = _ranked(fig1_pair, "bonus", ["edu", "exp", "gen"], ["bonus"], config)
        for scored in ranked:
            for ct in scored.summary:
                assert len(ct.condition.attributes()) <= 1

    def test_deterministic_given_seed(self, fig1_pair):
        ranked_a = _ranked(fig1_pair, "bonus", ["edu", "exp"], ["bonus"])
        ranked_b = _ranked(fig1_pair, "bonus", ["edu", "exp"], ["bonus"])
        assert [s.summary.describe() for s in ranked_a] == [s.summary.describe() for s in ranked_b]

    def test_merges_partitions_with_identical_rules(self, employee_200):
        # k = 4 over-partitions the MS group; merging should keep the summary at 3 rules
        best = Charles().summarize_pair(employee_200, "bonus", ["edu", "exp"], ["bonus"]).best
        assert best.summary.size <= 4
        assert best.breakdown.accuracy > 0.95


class TestCharlesOnPaperExample:
    def test_best_summary_recovers_ground_truth_rules(self, fig1_result, fig1_pair, fig1_policy):
        recovery = rule_recovery(fig1_result.best.summary, fig1_policy.summary, fig1_pair.source)
        assert recovery.recall == pytest.approx(1.0)
        assert recovery.precision == pytest.approx(1.0)

    def test_best_score_close_to_paper_figure(self, fig1_result):
        # the demo reports 89% for the top summary; we expect the same ballpark
        assert 0.85 <= fig1_result.best.score <= 0.95

    def test_best_summary_covers_the_three_changed_groups(self, fig1_result, fig1_pair):
        coverage = fig1_result.best.summary.coverage(fig1_pair.source)
        assert coverage == pytest.approx(7 / 9)

    def test_top_partition_coverage_is_one_third(self, fig1_result, fig1_pair):
        # Fig. 4 step 10: "33.3% employees fall within the top partition"
        assignments = fig1_result.best.summary.partition_assignments(fig1_pair.source)
        explicit = [a for a in assignments if not a.is_fallback]
        top_share = max(a.size for a in explicit) / fig1_pair.num_rows
        assert top_share == pytest.approx(1 / 3)

    def test_result_reports_ten_summaries_by_default(self, fig1_result):
        assert len(fig1_result.summaries) <= 10
        assert fig1_result.total_candidates >= len(fig1_result.summaries)

    def test_describe_contains_scores_and_rules(self, fig1_result):
        text = fig1_result.describe(limit=2)
        assert "#1" in text and "score=" in text and "IF" in text


class TestCharlesFacade:
    def test_summarize_aligns_tables(self, fig1_tables):
        source, target = fig1_tables
        result = Charles().summarize(source, target, "bonus", key="name")
        assert result.pair.key == "name"
        assert result.best.score > 0.7

    def test_with_config_returns_new_instance(self):
        charles = Charles()
        tuned = charles.with_config(alpha=0.9)
        assert tuned.config.alpha == 0.9
        assert charles.config.alpha == 0.5

    def test_explicit_attribute_lists_are_respected(self, fig1_tables):
        source, target = fig1_tables
        result = Charles().summarize(
            source, target, "bonus",
            key="name",
            condition_attributes=["edu"],
            transformation_attributes=["bonus"],
        )
        assert result.condition_attributes == ("edu",)
        assert result.transformation_attributes == ("bonus",)
        for scored in result.summaries:
            for ct in scored.summary:
                assert set(ct.condition.attributes()) <= {"edu"}
                assert set(ct.transformation.feature_names) <= {"bonus"}

    def test_auto_attribute_selection_used_when_omitted(self, fig1_tables):
        source, target = fig1_tables
        result = Charles().summarize(source, target, "bonus", key="name")
        assert result.condition_attributes  # chosen by the setup assistant
        assert "bonus" in result.transformation_attributes

    def test_suggest_attributes_shortcut(self, fig1_tables):
        source, target = fig1_tables
        suggestions = Charles().suggest_attributes(source, target, "bonus", key="name")
        assert suggestions.target == "bonus"

    def test_top_k_configuration(self, fig1_tables):
        source, target = fig1_tables
        result = Charles(CharlesConfig(top_k=2)).summarize(source, target, "bonus", key="name")
        assert len(result.summaries) <= 2

    def test_alpha_extremes_prefer_different_summaries(self, fig1_pair):
        accurate = Charles(CharlesConfig(alpha=1.0)).summarize_pair(
            fig1_pair, "bonus",
            condition_attributes=["edu", "exp"], transformation_attributes=["bonus"],
        )
        interpretable = Charles(CharlesConfig(alpha=0.0)).summarize_pair(
            fig1_pair, "bonus",
            condition_attributes=["edu", "exp"], transformation_attributes=["bonus"],
        )
        assert accurate.best.breakdown.accuracy >= interpretable.best.breakdown.accuracy
        assert (
            interpretable.best.breakdown.interpretability
            >= accurate.best.breakdown.interpretability
        )


class TestCharlesOnGeneratedWorkloads:
    def test_employee_policy_recovered(self, employee_200):
        from repro.workloads import bonus_policy

        result = Charles().summarize_pair(
            employee_200, "bonus",
            condition_attributes=["edu", "exp", "gen"], transformation_attributes=["bonus"],
        )
        recovery = rule_recovery(result.best.summary, bonus_policy().summary, employee_200.source)
        assert recovery.recall == pytest.approx(1.0)
        assert result.best.breakdown.accuracy > 0.99

    def test_billionaires_policy_recovered(self, billionaires_300):
        from repro.workloads import wealth_policy

        result = Charles().summarize_pair(billionaires_300, "net_worth")
        recovery = rule_recovery(
            result.best.summary, wealth_policy().summary, billionaires_300.source
        )
        assert recovery.recall >= 2 / 3
        assert result.best.breakdown.accuracy > 0.8

    def test_montgomery_summary_beats_doing_nothing(self, montgomery_400):
        result = Charles().summarize_pair(montgomery_400, "base_salary")
        assert result.best.breakdown.accuracy > 0.4
        assert result.best.summary.size >= 1
