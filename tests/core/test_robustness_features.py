"""Tests for the robustness features of the discovery engine.

These cover the mechanisms that keep recovery working on imperfect data:
tolerant numeric threshold induction, hierarchical partition refinement,
merging of equivalent partitions, and outlier-trimmed transformation fitting.
"""

import numpy as np
import pytest

from repro.core import Charles, CharlesConfig
from repro.core.partitioning import _tolerant_threshold_descriptor, induce_condition
from repro.evaluation.metrics import rule_recovery
from repro.workloads import bonus_policy, employee_pair


class TestTolerantThresholdInduction:
    def test_clean_separation_recovers_exact_cut(self):
        members = np.array([5.0, 6.0, 7.0, 8.0])
        rest = np.array([1.0, 2.0, 3.0])
        descriptor = _tolerant_threshold_descriptor("x", members, rest, purity_threshold=0.8)
        assert descriptor is not None
        assert descriptor.mask is not None  # it is a real Descriptor
        assert str(descriptor).startswith("x >= ")

    def test_few_mislabelled_rows_do_not_block_the_cut(self):
        members = np.array([5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 1.5])  # one stray low value
        rest = np.array([1.0, 2.0, 3.0, 4.0, 9.5])  # one stray high value
        descriptor = _tolerant_threshold_descriptor("x", members, rest, purity_threshold=0.8)
        assert descriptor is not None

    def test_hopelessly_mixed_values_yield_nothing(self):
        rng = np.random.default_rng(0)
        members = rng.uniform(0, 10, 50)
        rest = rng.uniform(0, 10, 50)
        assert _tolerant_threshold_descriptor("x", members, rest, purity_threshold=0.8) is None

    def test_identical_values_yield_nothing(self):
        members = np.array([3.0, 3.0])
        rest = np.array([3.0])
        assert _tolerant_threshold_descriptor("x", members, rest, purity_threshold=0.8) is None

    def test_induce_condition_survives_minor_label_noise(self, fig1_pair):
        source = fig1_pair.source
        rows = source.to_rows()
        # the MS & exp>=3 group plus one PhD row wrongly included
        member_indices = [
            i for i, row in enumerate(rows) if row["edu"] == "MS" and row["exp"] >= 3
        ] + [0]
        condition = induce_condition(
            source, np.array(member_indices), ["edu", "exp"], CharlesConfig(purity_threshold=0.7)
        )
        assert not condition.is_trivial


class TestRefinementAndTrimming:
    def test_refinement_recovers_nested_threshold(self):
        """Without refinement the MS experience split is frequently missed."""
        pair = employee_pair(200, seed=7)
        truth = bonus_policy().summary
        with_refinement = Charles(CharlesConfig(refine_partitions=True)).summarize_pair(
            pair, "bonus",
            condition_attributes=["edu", "exp", "gen"], transformation_attributes=["bonus"],
        )
        without_refinement = Charles(CharlesConfig(refine_partitions=False)).summarize_pair(
            pair, "bonus",
            condition_attributes=["edu", "exp", "gen"], transformation_attributes=["bonus"],
        )
        recall_with = rule_recovery(with_refinement.best.summary, truth, pair.source).recall
        recall_without = rule_recovery(without_refinement.best.summary, truth, pair.source).recall
        assert recall_with == 1.0
        assert recall_with >= recall_without
        assert (
            with_refinement.best.breakdown.accuracy
            >= without_refinement.best.breakdown.accuracy - 1e-9
        )

    def test_trimmed_fit_resists_point_noise(self):
        """A few unexplained manual edits must not drag the recovered coefficients."""
        pair = employee_pair(1_000, seed=41, noise_fraction=0.05, noise_scale=0.03)
        result = Charles().summarize_pair(
            pair, "bonus",
            condition_attributes=["edu", "exp", "gen"], transformation_attributes=["bonus"],
        )
        # the PhD rule (largest, cleanest partition) should still be recovered verbatim
        phd_rules = [
            ct for ct in result.best.summary
            if "edu = 'PhD'" in str(ct.condition)
        ]
        assert phd_rules, "expected a PhD rule in the best summary"
        transformation = phd_rules[0].transformation
        assert transformation.coefficients[0] == pytest.approx(1.05, abs=0.005)
        assert transformation.intercept == pytest.approx(1000.0, rel=0.05)

    def test_refinement_disabled_is_still_valid(self, fig1_pair):
        result = Charles(CharlesConfig(refine_partitions=False)).summarize_pair(
            fig1_pair, "bonus",
            condition_attributes=["edu", "exp"], transformation_attributes=["bonus"],
        )
        assert result.summaries
        assert 0.0 <= result.best.score <= 1.0


class TestMissingTargetValues:
    def test_one_missing_new_value_does_not_disable_snapping_accuracy(self):
        """A blank new value used to make every snapping loss NaN and accept any constant."""
        pair = employee_pair(300, seed=7)
        shortlists = {"condition_attributes": ["edu", "exp"],
                      "transformation_attributes": ["bonus", "salary"]}
        complete = Charles().summarize_pair(pair, "bonus", **shortlists)
        edu = pair.source.column("edu")
        old, new = pair.source.column("bonus"), pair.target.column("bonus")
        row = next(
            index for index in range(pair.num_rows)
            if edu[index] == "PhD" and old[index] != new[index]
        )
        new[row] = None
        target = pair.target.with_column("bonus", new, dtype=pair.schema.column("bonus").dtype)
        result = Charles().summarize(pair.source, target, "bonus", key="name", **shortlists)
        assert result.best.summary.describe() == complete.best.summary.describe()
        assert "1.05 x bonus + 1000" in result.best.summary.describe()
        assert result.best.score > 0.9
