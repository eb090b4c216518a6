"""Unit tests for partition discovery and condition induction."""

import numpy as np
import pytest

from repro.core.condition import DescriptorKind
from repro.core.config import CharlesConfig
from repro.core.partitioning import discover_partitions, induce_condition, partitions_from_labels
from repro.relational.snapshot import SnapshotPair
from repro.relational.table import Table


class TestInduceCondition:
    def test_pure_categorical_cluster(self, fig1_pair):
        source = fig1_pair.source
        edu = np.array(source.column("edu"))
        phd_indices = np.nonzero(edu == "PhD")[0]
        condition = induce_condition(source, phd_indices, ["edu", "exp", "gen"])
        assert str(condition) == "edu = 'PhD'"
        assert condition.mask(source).sum() == 3

    def test_categorical_plus_numeric_threshold(self, fig1_pair):
        source = fig1_pair.source
        rows = source.to_rows()
        member_indices = [
            i for i, row in enumerate(rows) if row["edu"] == "MS" and row["exp"] >= 3
        ]
        condition = induce_condition(source, np.array(member_indices), ["edu", "exp"])
        descriptors = {d.attribute: d for d in condition.descriptors}
        assert "edu" in descriptors and "exp" in descriptors
        # the induced condition selects exactly the intended rows
        assert np.array_equal(
            np.nonzero(condition.mask(source))[0], np.array(member_indices)
        )

    def test_ignore_mask_allows_simpler_conditions(self, fig1_pair):
        source = fig1_pair.source
        rows = source.to_rows()
        ms_junior = [i for i, row in enumerate(rows) if row["edu"] == "MS" and row["exp"] < 3]
        ms_senior = np.zeros(source.num_rows, dtype=bool)
        for i, row in enumerate(rows):
            if row["edu"] == "MS" and row["exp"] >= 3:
                ms_senior[i] = True
        with_claim = induce_condition(
            source, np.array(ms_junior), ["edu", "exp"], ignore_mask=ms_senior
        )
        without_claim = induce_condition(source, np.array(ms_junior), ["edu", "exp"])
        assert with_claim.complexity <= without_claim.complexity
        assert "edu = 'MS'" in str(with_claim)

    def test_not_in_set_for_complement_clusters(self, montgomery_400):
        source = montgomery_400.source
        departments = np.array(source.column("department"))
        member_indices = np.nonzero(~np.isin(departments, ["POL", "FRS"]))[0]
        condition = induce_condition(source, member_indices, ["department"])
        kinds = {d.kind for d in condition.descriptors}
        assert kinds <= {DescriptorKind.NOT_IN_SET, DescriptorKind.NOT_EQUALS, DescriptorKind.IN_SET}
        assert condition.mask(source).sum() == member_indices.size

    def test_numeric_only_threshold(self, montgomery_400):
        source = montgomery_400.source
        grades = source.numeric_column("grade")
        member_indices = np.nonzero(grades >= 25)[0]
        condition = induce_condition(source, member_indices, ["grade"])
        assert condition.complexity == 1
        assert np.array_equal(np.nonzero(condition.mask(source))[0], member_indices)

    def test_unhelpful_attributes_are_skipped(self, fig1_pair):
        source = fig1_pair.source
        edu = np.array(source.column("edu"))
        phd_indices = np.nonzero(edu == "PhD")[0]
        condition = induce_condition(source, phd_indices, ["gen"])
        assert condition.is_trivial

    def test_thresholds_are_round(self, montgomery_400):
        source = montgomery_400.source
        grades = source.numeric_column("grade")
        member_indices = np.nonzero(grades >= 25)[0]
        condition = induce_condition(source, member_indices, ["grade"])
        threshold = condition.descriptors[0].values[0]
        assert float(threshold) == int(threshold), "threshold should be a round number"


class TestDiscoverPartitions:
    def test_no_changes_yields_no_partitions(self, fig1_tables):
        source, _ = fig1_tables
        pair = SnapshotPair.align(source, source)
        assert discover_partitions(pair, "bonus", ["edu"], ["bonus"], 3) == []

    def test_partitions_respect_minimum_coverage(self, fig1_pair):
        config = CharlesConfig(min_partition_coverage=0.4)
        partitions = discover_partitions(fig1_pair, "bonus", ["edu", "exp"], ["bonus"], 4, config)
        assert all(partition.coverage >= 0.4 for partition in partitions)

    def test_partitions_are_disjoint_in_first_match_order(self, fig1_pair):
        partitions = discover_partitions(fig1_pair, "bonus", ["edu", "exp"], ["bonus"], 3)
        assert partitions, "expected at least one partition"
        total = np.zeros(fig1_pair.num_rows, dtype=int)
        for partition in partitions:
            total += partition.mask.astype(int)
        assert total.max() <= 1

    def test_k_equal_three_recovers_education_groups(self, fig1_pair):
        partitions = discover_partitions(
            fig1_pair, "bonus", ["edu", "exp", "gen"], ["bonus"], 3, CharlesConfig()
        )
        rendered = " | ".join(str(partition.condition) for partition in partitions)
        assert "edu = 'PhD'" in rendered
        assert "edu = 'MS'" in rendered

    def test_single_partition_request(self, fig1_pair):
        partitions = discover_partitions(fig1_pair, "bonus", ["edu"], ["bonus"], 1)
        assert len(partitions) <= 1

    def test_partition_fields_consistent(self, employee_200):
        partitions = discover_partitions(
            employee_200, "bonus", ["edu", "exp"], ["bonus"], 3, CharlesConfig()
        )
        for partition in partitions:
            assert partition.size == int(partition.mask.sum())
            assert 0.0 <= partition.fidelity <= 1.0
            assert 0.0 <= partition.coverage <= 1.0

    def test_duplicate_conditions_deduplicated(self, employee_200):
        partitions = discover_partitions(
            employee_200, "bonus", ["edu"], ["bonus"], 4, CharlesConfig()
        )
        rendered = [str(partition.condition) for partition in partitions]
        assert len(rendered) == len(set(rendered))

    def test_conditions_that_print_alike_are_both_kept(self):
        # two clusters straddle the outer rows, so each is described by a
        # range; the ranges differ only past the sixth significant digit, so
        # both print as "x in [1, 2]", and the second still claims a row
        xs = [1.0000001, 2.0000001, 1.0000002, 2.0000002] + [0.0] * 10 + [10.0] * 10
        source = Table.from_columns(
            {"id": list(range(len(xs))), "x": xs, "bonus": [100.0] * len(xs)}, primary_key="id"
        )
        bonus = [200.0] * 4 + [100.0] * (len(xs) - 4)
        pair = SnapshotPair.align(source, source.with_column("bonus", bonus), key="id")
        partitions = partitions_from_labels(
            pair, "bonus", ["x"], np.arange(4), np.array([0, 0, 1, 1]), 2, CharlesConfig()
        )
        conditions = [partition.condition for partition in partitions]
        assert [str(condition) for condition in conditions] == ["x in [1, 2]"] * 2
        assert conditions[0] != conditions[1]
        assert [partition.mask.nonzero()[0].tolist() for partition in partitions] == [[0, 1, 2], [3]]
