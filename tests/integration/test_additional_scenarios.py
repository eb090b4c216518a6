"""Additional end-to-end scenarios: second targets, no-change reports, SQL round trips."""

import numpy as np
import pytest

from repro.core import Charles, score_summary, summary_to_sql_update
from repro.relational import SnapshotPair
from repro.viz import result_to_markdown
from repro.workloads import (
    evolve_pair,
    generate_montgomery_payroll,
    montgomery_pair,
    overtime_policy,
)


class TestOvertimeTarget:
    """The Montgomery workload has a second policy-driven attribute (overtime_pay)."""

    @pytest.fixture(scope="class")
    def overtime_pair(self):
        source = generate_montgomery_payroll(600, seed=19)
        return evolve_pair(source, overtime_policy(), seed=20)

    def test_policy_is_exactly_consistent(self, overtime_pair):
        assert score_summary(overtime_policy().summary, overtime_pair).accuracy > 0.99

    def test_charles_recovers_the_public_safety_split(self, overtime_pair):
        result = Charles().summarize_pair(overtime_pair, "overtime_pay")
        assert result.best.breakdown.accuracy > 0.9
        rendered = result.best.summary.describe()
        assert "POL" in rendered or "FRS" in rendered

    def test_both_targets_summarised_independently(self):
        pair = montgomery_pair(500, seed=23)
        results = Charles().summarize_all(pair)
        assert "base_salary" in results
        # overtime was not touched by the COLA policy, so it is not a target here
        assert "overtime_pay" not in results


class TestNoChangeReporting:
    def test_markdown_report_for_no_change_result(self, fig1_tables):
        source, _ = fig1_tables
        pair = SnapshotPair.align(source, source)
        result = Charles().summarize_pair(pair, "bonus")
        report = result_to_markdown(result)
        assert "Ranked summaries" in report
        assert "(no change)" in report

    def test_sql_for_no_change_summary_is_a_comment(self, fig1_tables):
        source, _ = fig1_tables
        pair = SnapshotPair.align(source, source)
        result = Charles().summarize_pair(pair, "bonus")
        assert summary_to_sql_update(result.best.summary, "employees").startswith("--")


class TestSqlSemantics:
    def test_sql_case_arms_follow_summary_order(self, fig1_result):
        sql = summary_to_sql_update(fig1_result.best.summary, "employees")
        positions = [sql.index(str(ct.condition.descriptors[0].attribute))
                     for ct in fig1_result.best.summary]
        assert positions == sorted(positions)

    def test_sql_mentions_every_transformation_constant(self, fig1_result):
        sql = summary_to_sql_update(fig1_result.best.summary, "employees")
        for ct in fig1_result.best.summary:
            for coefficient in ct.transformation.coefficients:
                if coefficient != 1.0:
                    # every digit: the exported statement replays exactly
                    assert f"{float(coefficient)!r} * " in sql


class TestMixedChangeAttributes:
    def test_categorical_and_numeric_changes_coexist(self, fig1_tables):
        source, target = fig1_tables
        # additionally change a categorical attribute; ChARLES must still align
        # and explain the numeric target without tripping over the other change
        modified = target.with_column(
            "gen", ["NB"] + target.column("gen")[1:]
        )
        pair = SnapshotPair.align(source, modified, key="name")
        assert "gen" in pair.changed_attributes()
        result = Charles().summarize_pair(pair, "bonus",
                                          condition_attributes=["edu", "exp"],
                                          transformation_attributes=["bonus"])
        assert result.best.breakdown.accuracy > 0.9

    def test_summaries_never_predict_nan_with_identity_fallback(self, fig1_result, fig1_pair):
        for scored in fig1_result.summaries:
            predictions = scored.summary.apply(fig1_pair.source)
            assert not np.isnan(predictions).any()
