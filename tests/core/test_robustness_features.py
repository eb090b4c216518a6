"""Tests for the robustness features of the discovery engine.

These cover the mechanisms that keep recovery working on imperfect data:
tolerant numeric threshold induction, hierarchical partition refinement,
merging of equivalent partitions, and outlier-trimmed transformation fitting.
"""

import numpy as np
import pytest

from repro.core import Charles, CharlesConfig
from repro.core.condition import Condition
from repro.core.partitioning import _tolerant_threshold_descriptor, induce_condition
from repro.core.scoring import accuracy
from repro.core.summary import ChangeSummary, ConditionalTransformation
from repro.core.transformation import LinearTransformation
from repro.evaluation.metrics import rule_recovery
from repro.relational.snapshot import SnapshotPair
from repro.relational.table import Table
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


class TestNonFiniteTargetValues:
    """An infinite value is unusable for scoring, exactly like a missing one.

    Accuracy used to keep rows by ``~np.isnan``, so one infinite new value
    made the error and the baseline infinite, the ratio ``min(1, nan)`` = 1,
    and every summary's accuracy 0: the trivial "unchanged" summary ranked
    first.
    """

    SHORTLISTS = {"condition_attributes": ["edu", "exp"],
                  "transformation_attributes": ["bonus", "salary"]}

    @staticmethod
    def _with_new_bonus(pair, row, value):
        new = pair.target.column("bonus")
        new[row] = value
        target = pair.target.with_column("bonus", new, dtype=pair.schema.column("bonus").dtype)
        return SnapshotPair.align(pair.source, target, key="name")

    @staticmethod
    def _first_changed_row(pair):
        return int(np.nonzero(pair.changed_mask("bonus"))[0][0])

    def test_infinite_new_value_scores_like_a_missing_one(self):
        pair = employee_pair(300, seed=7)
        summary = Charles().summarize_pair(pair, "bonus", **self.SHORTLISTS).best.summary
        row = self._first_changed_row(pair)
        infinite = accuracy(summary, self._with_new_bonus(pair, row, float("inf")))
        missing = accuracy(summary, self._with_new_bonus(pair, row, None))
        assert infinite == missing > 0.99

    def test_infinite_prediction_falls_back_to_the_old_value(self):
        # new bonus = bonus + x everywhere except row 0, whose bonus stays put
        # and whose x is infinite or missing: its prediction is unusable both
        # ways, and "unchanged" is what the summary is then held to
        rows = [{"name": f"e{i}", "x": float(10 * i), "bonus": 1000.0 + i} for i in range(8)]
        new_bonus = [row["bonus"] + row["x"] for row in rows]
        new_bonus[0] = rows[0]["bonus"]
        summary = ChangeSummary(
            "bonus",
            (ConditionalTransformation(
                Condition.always(),
                LinearTransformation("bonus", ("bonus", "x"), (1.0, 1.0), 0.0),
            ),),
        )
        scores = []
        for value in (float("inf"), None):
            source = Table.from_rows(
                [dict(rows[0], x=value)] + rows[1:], primary_key="name"
            )
            target = Table.from_rows(
                [dict(row, bonus=bonus) for row, bonus in zip(rows, new_bonus)],
                primary_key="name",
            )
            scores.append(accuracy(summary, SnapshotPair.align(source, target, key="name")))
        assert scores[0] == scores[1] == 1.0

    def test_one_infinite_new_value_keeps_the_policy_ranked_first(self):
        pair = employee_pair(300, seed=7)
        row = self._first_changed_row(pair)
        result = Charles().summarize_pair(
            self._with_new_bonus(pair, row, float("inf")), "bonus", **self.SHORTLISTS
        )
        assert result.best.breakdown.accuracy > 0.0
        assert "1.05 x bonus + 1000" in result.best.summary.describe()
