"""Unit tests for partition discovery and condition induction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.condition import DescriptorKind
from repro.core.config import CharlesConfig
from repro.core.partitioning import (
    _nice_threshold,
    discover_partitions,
    induce_condition,
    partitions_from_labels,
)
from repro.relational.snapshot import SnapshotPair
from repro.relational.table import Table
from repro.workloads import employee_pair


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

    def test_threshold_between_adjacent_floats_is_found(self):
        # a gap of one ulp: every candidate step is below the values' precision
        low = 999.0
        high = float(np.nextafter(low, 2000.0))
        assert low <= _nice_threshold(low, high) <= high

    @pytest.mark.parametrize(
        "high",
        [999.0000000000001, float(np.nextafter(999.0, np.inf))],
        ids=["literal", "nextafter"],
    )
    def test_threshold_stays_inside_a_gap_of_one_ulp(self, high):
        # rounding away "floating-point crumbs" must not land on low itself:
        # an `x >= 999.0` cut would then also select the rest rows at 999.0
        threshold = _nice_threshold(999.0, high)
        assert 999.0 < threshold <= high

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
            pair, ["x"], np.arange(4), np.array([0, 0, 1, 1]), 2, CharlesConfig()
        )
        conditions = [partition.condition for partition in partitions]
        assert [str(condition) for condition in conditions] == ["x in [1, 2]"] * 2
        assert conditions[0] != conditions[1]
        assert [partition.mask.nonzero()[0].tolist() for partition in partitions] == [[0, 1, 2], [3]]


class TestPassTwoReusesPassOne:
    """Pass 2 of induction re-induces a cluster only once rows are claimed.

    With nothing claimed, ``ignore_mask`` removes no row from the rest of the
    table, so the pass-2 condition is the pass-1 condition of that cluster.
    """

    @pytest.fixture()
    def induce_calls(self, monkeypatch):
        """Each ``induce_condition`` call: the number of rows it may ignore."""
        from repro.core import partitioning

        calls = []
        original = partitioning.induce_condition

        def spy(source, member_indices, condition_attributes, config=None, ignore_mask=None):
            calls.append(None if ignore_mask is None else int(np.count_nonzero(ignore_mask)))
            return original(
                source, member_indices, condition_attributes, config, ignore_mask=ignore_mask
            )

        monkeypatch.setattr(partitioning, "induce_condition", spy)
        return calls

    def test_counted_calls(self, fig1_pair, induce_calls):
        # the changed rows of Fig. 1 are the MS and PhD employees, one
        # cluster each: both are described in pass 1; in pass 2 the larger
        # (MS) reuses its condition and only PhD is induced again, with the
        # MS rows claimed
        edu = fig1_pair.source.column("edu")
        changed = np.flatnonzero(fig1_pair.changed_mask("bonus"))
        labels = np.array([("MS", "PhD").index(edu[i]) for i in changed])
        partitions = partitions_from_labels(
            fig1_pair, ["edu"], changed, labels, 2, CharlesConfig()
        )
        assert [str(partition.condition) for partition in partitions] == [
            "edu = 'MS'", "edu = 'PhD'"
        ]
        assert induce_calls == [None, None, 4]

    def test_no_call_repeats_an_unclaimed_induction(self, employee_200, induce_calls):
        config = CharlesConfig()
        for k in (2, 3, 4):
            del induce_calls[:]
            discover_partitions(employee_200, "bonus", ["edu", "exp"], ["bonus"], k, config)
            # k clusters in pass 1, then at most k - 1 again in pass 2, each
            # with some rows claimed
            assert induce_calls[:k] == [None] * k
            assert 0 < len(induce_calls) - k < k
            assert all(claimed > 0 for claimed in induce_calls[k:])

    def test_unclaimed_induction_equals_pass_one(self, employee_200):
        source = employee_200.source
        rng = np.random.default_rng(5)
        nothing = np.zeros(source.num_rows, dtype=bool)
        for _ in range(20):
            members = np.flatnonzero(rng.random(source.num_rows) < 0.3)
            attributes = ["edu", "exp", "salary"]
            assert induce_condition(
                source, members, attributes, ignore_mask=nothing
            ) == induce_condition(source, members, attributes)


_EMPLOYEE_PAIRS = {seed: employee_pair(120, seed=seed, noise_fraction=0.05) for seed in (3, 8)}
_finite = st.floats(-1e3, 1e3, allow_nan=False)
_cell = st.one_of(_finite, _finite, st.none(), st.sampled_from([float("inf"), float("-inf")]))


@st.composite
def _small_pairs(draw):
    """A small pair with missing, infinite and repeated values in every role."""
    n = draw(st.integers(2, 30))
    levels = st.sampled_from(draw(st.sampled_from([("a",), ("a", "b"), ("a", "b", "c", "d")])))
    # a first non-missing cell gives each column its type
    category = ["a"] + draw(st.lists(st.one_of(levels, st.none()), min_size=n - 1, max_size=n - 1))
    number = [draw(_finite)] + draw(st.lists(_cell, min_size=n - 1, max_size=n - 1))
    old = draw(st.lists(_finite, min_size=n, max_size=n))
    shifts = draw(st.lists(st.sampled_from([0.0, 0.0, 5.0, -2.5, 100.0]), min_size=n, max_size=n))
    new = [value + shift for value, shift in zip(old, shifts)]
    source = Table.from_columns({"cat": category, "num": number, "y": old})
    pair = SnapshotPair.align(source, source.with_column("y", new))
    return pair, "y", ("cat", "num", "y"), ("num", "y")


@st.composite
def _scoped_cases(draw):
    if draw(st.booleans()):
        pair, target = _EMPLOYEE_PAIRS[draw(st.sampled_from(sorted(_EMPLOYEE_PAIRS)))], "bonus"
        attributes, numeric = ("edu", "exp", "gen", "salary", "bonus"), ("exp", "salary", "bonus")
    else:
        pair, target, attributes, numeric = draw(_small_pairs())
    n = pair.num_rows
    if draw(st.booleans()):
        # a refinement scope is the mask of a condition
        attribute = draw(st.sampled_from(attributes))
        column = pair.source.column(attribute)
        value = column[draw(st.integers(0, n - 1))]
        scope = np.array([cell == value for cell in column])
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        scope = rng.random(n) < draw(st.sampled_from([0.1, 0.5, 0.9, 1.0]))
    conditions = draw(st.lists(st.sampled_from(attributes), min_size=1, max_size=3, unique=True))
    transformations = draw(st.lists(st.sampled_from(numeric), min_size=1, max_size=2, unique=True))
    k = draw(st.integers(1, 4))
    weight = draw(st.sampled_from([1.0, 4.0]))
    return pair, target, scope, tuple(conditions), tuple(transformations), k, weight


class TestScopedDiscovery:
    """Discovery under a scope mask is discovery on the pair cut down to the scope.

    Induction ignores the rows outside the scope as it ignores claimed rows,
    masks are limited to the scope and coverage is a share of its rows, so
    conditions, masks, fidelity and coverage must equal those of discovery
    on a copy of the scope's rows (the oracle), masks embedded back.
    """

    @settings(max_examples=120, deadline=None)
    @given(case=_scoped_cases())
    def test_equals_discovery_on_the_restricted_pair(self, case, restricted_discovery):
        pair, target, scope, conditions, transformations, k, weight = case
        config = CharlesConfig()
        got = discover_partitions(
            pair, target, conditions, transformations, k, config,
            residual_weight=weight, scope=scope,
        )
        want = restricted_discovery(
            pair, scope, target, conditions, transformations, k, config, residual_weight=weight
        )
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.condition == b.condition
            assert a.mask.tobytes() == b.mask.tobytes()
            assert np.float64(a.fidelity).tobytes() == np.float64(b.fidelity).tobytes()
            assert np.float64(a.coverage).tobytes() == np.float64(b.coverage).tobytes()

    def test_an_unchanged_scope_yields_no_partitions(self, employee_200):
        scope = ~employee_200.changed_mask("bonus")
        assert discover_partitions(
            employee_200, "bonus", ["edu"], ["bonus"], 2, scope=scope
        ) == []

    def test_no_scope_is_the_full_scope(self, employee_200):
        every_row = np.ones(employee_200.num_rows, dtype=bool)
        args = (employee_200, "bonus", ["edu", "exp"], ["bonus"], 3, CharlesConfig())
        got, want = discover_partitions(*args, scope=every_row), discover_partitions(*args)
        assert [(p.condition, p.mask.tobytes(), p.fidelity, p.coverage) for p in got] == [
            (p.condition, p.mask.tobytes(), p.fidelity, p.coverage) for p in want
        ]
