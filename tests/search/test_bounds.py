"""Pre-discovery score bounds: admissibility, ranking invariance, no waste.

Three contracts keep pre-discovery bound pruning safe to run by default:

* **admissibility** — for every spec the executor could run, the true score of
  whatever summary it produces never exceeds :meth:`ScoreBoundIndex.bound`
  (property-tested over generated pair states);
* **ranking invariance** — the default search and an exhaustive one
  (``prune_search=False``) differ in wall clock only, the ranked output is
  byte-identical;
* **no wasted work** — a spec pruned by its bound reaches neither partition
  discovery nor a lookup in the partition table.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Charles, CharlesConfig
from repro.relational.snapshot import SnapshotPair
from repro.relational.table import Table
from repro.search import (
    GLOBAL,
    MemoTable,
    ParallelExecutor,
    SearchCaches,
    SerialExecutor,
    build_search_plan,
)
from repro.search import executors
from repro.search.bounds import ScoreBoundIndex, bound_histogram, grouped_l1_floor
from repro.search.evaluator import CandidateEvaluator
from repro.workloads import employee_pair

_EDUCATIONS = ["BS", "MS", "PhD"]


def _ranking(result):
    return [
        (
            scored.summary.describe(),
            scored.score,
            scored.condition_attributes,
            scored.transformation_attributes,
            scored.n_partitions,
        )
        for scored in result.summaries
    ]


@st.composite
def perturbed_pairs(draw) -> SnapshotPair:
    """Employee-like pairs whose bonus evolves by a drawn, messy rule mix.

    Deliberately *not* a clean policy: per-row multipliers, shifts and
    untouched rows are drawn independently, so grouped rows frequently end at
    different targets and the residual floor is exercised away from zero.
    """
    n = draw(st.integers(4, 24))
    rows = []
    new_bonus = []
    for index in range(n):
        bonus = float(draw(st.integers(1, 40)) * 500)
        rows.append(
            {
                "id": f"r{index}",
                "edu": draw(st.sampled_from(_EDUCATIONS)),
                "exp": float(draw(st.integers(0, 4))),
                "bonus": bonus,
            }
        )
        kind = draw(st.integers(0, 3))
        if kind == 0:
            new_bonus.append(bonus)
        elif kind == 1:
            new_bonus.append(round(bonus * draw(st.sampled_from([0.5, 1.2, 2.0])), 2))
        elif kind == 2:
            new_bonus.append(bonus + float(draw(st.integers(-4, 8)) * 250))
        else:
            new_bonus.append(float(draw(st.integers(1, 40)) * 500))
    source = Table.from_rows(rows, primary_key="id")
    target = source.with_column("bonus", new_bonus)
    return SnapshotPair.align(source, target, key="id")


class TestAdmissibility:
    @settings(max_examples=20, deadline=None)
    @given(pair=perturbed_pairs())
    def test_no_achievable_score_exceeds_the_bound(self, pair):
        config = CharlesConfig(max_partitions=2, prune_search=False)
        if not pair.changed_mask("bonus").any():
            return
        plan = build_search_plan(["edu", "exp"], ["bonus"], config)
        index = ScoreBoundIndex(pair, "bonus", config)
        evaluator = CandidateEvaluator(pair, "bonus", config)
        for spec in plan.specs:
            outcome = evaluator.evaluate(spec)
            if outcome.scored is None:
                continue
            assert outcome.scored.score <= index.bound(spec), (
                f"spec {spec} scored {outcome.scored.score} above its "
                f"admissible bound {index.bound(spec)}"
            )

    def test_bound_is_shared_across_partition_counts_and_weights(self):
        pair = employee_pair(80, seed=3)
        config = CharlesConfig()
        plan = build_search_plan(["edu", "exp"], ["bonus"], config)
        index = ScoreBoundIndex(pair, "bonus", config)
        by_union = {}
        for spec in plan.specs:
            union = tuple(dict.fromkeys(spec.condition_subset + spec.transformation_subset))
            record = index.spec_bound(spec)
            assert by_union.setdefault(union, record) is record, (
                "specs sharing an attribute union must share one cached bound"
            )

    def test_unchanged_pair_bounds_at_one(self):
        # a zero baseline means "nothing changed" is already perfect; the
        # ceiling must not divide by it, and the bound stays admissible
        source = employee_pair(30, seed=1).source
        pair = SnapshotPair.align(source, source, key="name")
        index = ScoreBoundIndex(pair, "bonus", CharlesConfig())
        plan = build_search_plan(["edu"], ["bonus"], CharlesConfig())
        record = index.spec_bound(plan.specs[0])
        assert record.baseline == 0.0
        assert record.accuracy_ceiling == 1.0
        assert record.score_bound >= 1.0

    def test_no_usable_rows_bounds_at_one(self):
        rows = [
            {"id": f"r{i}", "edu": _EDUCATIONS[i % 3], "bonus": float("nan")}
            for i in range(6)
        ]
        source = Table.from_rows(rows, primary_key="id")
        target = source.with_column("bonus", [float("nan")] * 6)
        pair = SnapshotPair.align(source, target, key="id")
        index = ScoreBoundIndex(pair, "bonus", CharlesConfig())
        plan = build_search_plan(["edu"], ["bonus"], CharlesConfig())
        record = index.spec_bound(plan.specs[0])
        assert record.accuracy_ceiling == 1.0
        assert record.residual_floor == 0.0

    def test_one_residual_floor_per_distinct_union(self, monkeypatch):
        # the grouping pass is the expensive part of a bound: the ceiling and
        # the record's residual_floor field must share one pass per union
        calls: list[tuple[str, ...]] = []
        original = ScoreBoundIndex._residual_floor

        def counted(self, union):
            calls.append(union)
            return original(self, union)

        monkeypatch.setattr(ScoreBoundIndex, "_residual_floor", counted)
        pair = employee_pair(80, seed=3)
        config = CharlesConfig()
        index = ScoreBoundIndex(pair, "bonus", config)
        plan = build_search_plan(["edu", "exp"], ["bonus", "salary"], config)
        unions = set()
        for spec in plan.specs:
            unions.add(tuple(dict.fromkeys(spec.condition_subset + spec.transformation_subset)))
            record = index.spec_bound(spec)
            ratio = min(1.0, max(0.0, record.residual_floor / record.baseline))
            assert record.accuracy_ceiling == 1.0 - ratio ** config.accuracy_sharpness
        assert sorted(calls) == sorted(unions)

    def test_residual_floor_is_never_negative(self):
        # prefix-sum cancellation must not leak a tiny negative E_min (it
        # would raise a negative float to a fractional power -> complex)
        pair = employee_pair(150, seed=9)
        config = CharlesConfig()
        index = ScoreBoundIndex(pair, "bonus", config)
        for spec in build_search_plan(["edu", "exp"], ["bonus"], config).specs:
            record = index.spec_bound(spec)
            assert record.residual_floor >= 0.0
            assert 0.0 <= record.accuracy_ceiling <= 1.0


class TestRankingInvariance:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_differential_rankings_with_pruning_on_and_off(self, seed):
        pair = employee_pair(150, seed=seed, noise_fraction=0.05)
        kwargs = dict(
            condition_attributes=["edu", "exp"], transformation_attributes=["bonus"]
        )
        pruned = Charles(CharlesConfig()).summarize_pair(pair, "bonus", **kwargs)
        exhaustive = Charles(CharlesConfig(prune_search=False)).summarize_pair(
            pair, "bonus", **kwargs
        )
        assert _ranking(pruned) == _ranking(exhaustive)
        assert pruned.search_stats.bound_pruning
        assert not exhaustive.search_stats.bound_pruning
        assert exhaustive.search_stats.candidates_pruned_spec_bounds == 0

    def test_exhaustive_mode_disables_bound_pruning(self):
        # prune_search=False promises an exhaustive enumeration; bound
        # pruning must not undercut it
        pair = employee_pair(60, seed=2)
        result = Charles(CharlesConfig(prune_search=False)).summarize_pair(
            pair, "bonus",
            condition_attributes=["edu"], transformation_attributes=["bonus"],
        )
        assert not result.search_stats.bound_pruning
        assert result.search_stats.candidates_pruned_spec_bounds == 0


class _RecordingTable(MemoTable):
    """A memo table that records every key looked up."""

    def __init__(self):
        super().__init__()
        self.looked_up: list = []

    def lookup(self, key):
        self.looked_up.append(key)
        return super().lookup(key)


def _two_slice_pair(rows: int = 100, seed: int = 11) -> SnapshotPair:
    """A quantised pair whose policy rewrites two ``dept``/``region`` slices.

    The old bonus is ``grade * 1000``, so a union missing ``dept`` or
    ``region`` groups each changed row with untouched twins and bounds low.
    A two-rule summary captures the policy, so the floor an early
    partitioned round sets lets later rounds skip those unions' specs.
    """
    rng = np.random.default_rng(seed)
    dept = rng.choice(["ENG", "FIN", "OPS", "POL"], size=rows)
    region = rng.choice(["N", "S", "W"], size=rows)
    grade = rng.integers(1, 6, size=rows)
    tenure = rng.integers(0, 21, size=rows)
    bonus = grade * 1_000.0
    source = Table.from_rows(
        [
            {
                "id": f"e{i}",
                "dept": str(dept[i]),
                "region": str(region[i]),
                "tenure": float(tenure[i]),
                "bonus": float(bonus[i]),
            }
            for i in range(rows)
        ],
        primary_key="id",
    )
    new_bonus = bonus.copy()
    pol_w = (dept == "POL") & (region == "W")
    fin_s = (dept == "FIN") & (region == "S")
    new_bonus[pol_w] = new_bonus[pol_w] * 2.0 + 5_000.0
    new_bonus[fin_s] = new_bonus[fin_s] * 0.5
    target = source.with_column("bonus", [float(b) for b in new_bonus])
    return SnapshotPair.align(source, target, key="id")


class TestNoWastedLookups:
    def test_bound_pruned_specs_never_reach_the_partition_cache(self, monkeypatch):
        # the floor starts at -inf, so every skip below comes from a floor
        # the run itself set in an earlier round
        pair = _two_slice_pair()
        config = CharlesConfig(alpha=0.8, top_k=5)
        caches = SearchCaches()
        caches.partitions = partitions = _RecordingTable()
        plan = build_search_plan(["dept", "region"], ["bonus", "tenure"], config)
        evaluated = []
        original = CandidateEvaluator.evaluate

        def spy(self, spec, known_signatures=frozenset()):
            evaluated.append(spec)
            return original(self, spec, known_signatures)

        monkeypatch.setattr(CandidateEvaluator, "evaluate", spy)
        ranked, stats = SerialExecutor().execute(
            pair, "bonus", plan, config, caches=caches
        )

        skipped = set(plan.specs) - set(evaluated)
        assert ranked
        assert stats.candidates_pruned_spec_bounds == len(skipped) > 0
        assert all(spec.kind != GLOBAL for spec in skipped)
        keys = CandidateEvaluator(pair, "bonus", config)

        def top_level_key(spec):
            return keys._partition_key(
                spec.condition_subset,
                spec.transformation_subset,
                spec.n_partitions,
                spec.residual_weight,
                keys._full_mask,
            )

        looked_up = set(partitions.looked_up)
        assert not looked_up & {top_level_key(spec) for spec in skipped}
        # every partitioned survivor did look its discovery up
        assert {
            top_level_key(spec) for spec in evaluated if spec.kind != GLOBAL
        } <= looked_up


class TestPrunedSpecCounting:
    def test_spec_bound_prunes_are_counted_without_outcomes(self):
        # a pruned spec has no outcome; the round loop counts it straight
        # into the stats and the `charles_specs_total` counter
        pair = _two_slice_pair()
        config = CharlesConfig(alpha=0.8, top_k=5)
        plan = build_search_plan(["dept", "region"], ["bonus", "tenure"], config)
        before = {
            status: executors._SPECS_TOTAL.value(status=status)
            for status in ("spec-bound", "duplicate", "evaluated")
        }
        _, stats = SerialExecutor().execute(pair, "bonus", plan, config)
        counted = {
            status: executors._SPECS_TOTAL.value(status=status) - value
            for status, value in before.items()
        }
        assert stats.candidates_pruned_spec_bounds > 0
        assert counted == {
            "spec-bound": stats.candidates_pruned_spec_bounds,
            "duplicate": stats.candidates_pruned_duplicates,
            "evaluated": stats.candidates_evaluated,
        }
        assert sum(counted.values()) == len(plan)

    def test_parallel_executor_prunes_and_ranks_like_serial(self):
        # the bound filter runs in the round loop, before any chunk leaves
        # for a worker, so both executors skip the same specs
        pair = _two_slice_pair()
        config = CharlesConfig(alpha=0.8, top_k=5)
        plan = build_search_plan(["dept", "region"], ["bonus", "tenure"], config)
        serial_ranked, serial = SerialExecutor().execute(pair, "bonus", plan, config)
        parallel_ranked, parallel = ParallelExecutor(2).execute(
            pair, "bonus", plan, config
        )
        assert [(s.summary.describe(), s.score) for s in parallel_ranked] == [
            (s.summary.describe(), s.score) for s in serial_ranked
        ]
        assert serial.candidates_pruned_spec_bounds > 0
        assert (
            parallel.candidates_pruned_spec_bounds,
            parallel.candidates_pruned_duplicates,
            parallel.candidates_evaluated,
        ) == (
            serial.candidates_pruned_spec_bounds,
            serial.candidates_pruned_duplicates,
            serial.candidates_evaluated,
        )


class TestPlanOrder:
    def test_survivors_are_evaluated_in_plan_order(self, monkeypatch):
        # no reordering by bound: the specs that pass the floor run in the
        # order the plan lists them, so ties break as in an unpruned search
        pair = _two_slice_pair()
        config = CharlesConfig(alpha=0.8, top_k=5)
        plan = build_search_plan(["dept", "region"], ["bonus", "tenure"], config)
        evaluated = []
        original = CandidateEvaluator.evaluate

        def spy(self, spec, known_signatures=frozenset()):
            evaluated.append(spec)
            return original(self, spec, known_signatures)

        monkeypatch.setattr(CandidateEvaluator, "evaluate", spy)
        _, stats = SerialExecutor().execute(pair, "bonus", plan, config)

        survivors = set(evaluated)
        assert stats.candidates_pruned_spec_bounds > 0
        assert len(evaluated) == len(survivors)
        assert len(evaluated) == len(plan) - stats.candidates_pruned_spec_bounds
        assert evaluated == [spec for spec in plan.specs if spec in survivors]


def _unique_rows_floor(prints, values) -> float:
    """The residual floor grouped by ``np.unique(axis=0)``: the oracle."""
    _, inverse = np.unique(np.column_stack(prints), axis=0, return_inverse=True)
    inverse = np.asarray(inverse).ravel()
    order = np.lexsort((values, inverse))
    groups, values = inverse[order], values[order]
    prefix = np.concatenate(([0.0], np.cumsum(values)))
    starts = np.flatnonzero(np.r_[True, groups[1:] != groups[:-1]])
    ends = np.r_[starts[1:], values.size]
    counts = ends - starts
    lower = starts + counts // 2
    upper = starts + (counts + 1) // 2
    deviations = (prefix[ends] - prefix[upper]) - (prefix[lower] - prefix[starts])
    return max(0.0, float(deviations.sum()))


#: fingerprints of NaN cells: the quiet NaN numpy makes, a negative one and
#: two payloads, as ``float64.view(uint64)`` produces them
_NAN_BITS = (
    int(np.array([np.nan]).view(np.uint64)[0]),
    0xFFF8000000000000,
    0x7FF0000000000001,
    0x7FF8DEADBEEF0000,
)
_PRINTS = st.sampled_from((0, 1, 2**63, 2**64 - 1) + _NAN_BITS) | st.integers(0, 2**64 - 1)


@st.composite
def fingerprint_tables(draw):
    """Fingerprint columns whose rows repeat, and one value per row."""
    width = draw(st.integers(1, 4))
    distinct = draw(st.lists(st.tuples(*[_PRINTS] * width), min_size=1, max_size=6))
    rows = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=40))
    prints = [np.array([row[column] for row in rows], dtype=np.uint64) for column in range(width)]
    values = draw(st.lists(
        st.sampled_from((0.0, 1.5, -2.0)) | st.floats(-1e9, 1e9, allow_nan=False),
        min_size=len(rows), max_size=len(rows),
    ))
    return prints, np.array(values, dtype=float)


class TestGroupedFloor:
    """One lexsort groups the rows exactly as ``np.unique(axis=0)`` did."""

    @settings(max_examples=300, deadline=None)
    @given(table=fingerprint_tables())
    @example(table=([np.array([5], dtype=np.uint64)], np.array([3.25])))
    @example(table=(
        [np.array(_NAN_BITS * 2, dtype=np.uint64), np.array([7] * 8, dtype=np.uint64)],
        np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]),
    ))
    def test_bit_identical_to_unique_rows(self, table):
        prints, values = table
        assert grouped_l1_floor(prints, values) == _unique_rows_floor(prints, values)

    def test_duplicate_rows_share_one_median(self):
        prints = [np.array([1, 1, 1, 2], dtype=np.uint64), np.array([9, 9, 9, 9], dtype=np.uint64)]
        # group (1, 9): median 2, deviations 1 + 0 + 4; group (2, 9) alone: 0
        assert grouped_l1_floor(prints, np.array([1.0, 2.0, 6.0, 100.0])) == 5.0

    def test_a_single_row_or_none_leaves_no_error(self):
        assert grouped_l1_floor([np.array([3], dtype=np.uint64)], np.array([42.0])) == 0.0
        assert grouped_l1_floor([np.array([], dtype=np.uint64)], np.array([])) == 0.0


class TestHistogram:
    def test_empty_plan_renders_placeholder(self):
        assert bound_histogram([]) == "(no specs)"

    def test_buckets_cover_all_bounds(self):
        text = bound_histogram([0.05, 0.05, 0.62, 0.95, 1.2, -0.1])
        counted = sum(int(part.split(":")[1]) for part in text.split())
        assert counted == 6
        assert "0.0-0.1:3" in text  # -0.1 clips into the first bucket


@st.composite
def pairs_with_an_infinite_cell(draw) -> SnapshotPair:
    """:func:`perturbed_pairs` with one ``bonus`` cell, old or new, set to ±inf."""
    pair = draw(perturbed_pairs())
    side = draw(st.sampled_from(["source", "target"]))
    row = draw(st.integers(0, pair.num_rows - 1))
    table = getattr(pair, side)
    bonus = table.column("bonus")
    bonus[row] = draw(st.sampled_from([float("inf"), float("-inf")]))
    table = table.with_column("bonus", bonus, dtype=pair.schema.column("bonus").dtype)
    source, target = (table, pair.target) if side == "source" else (pair.source, table)
    return SnapshotPair.align(source, target, key="id")


class TestNonFiniteValues:
    @settings(max_examples=20, deadline=None)
    @given(pair=pairs_with_an_infinite_cell())
    def test_no_achievable_score_exceeds_the_bound(self, pair):
        config = CharlesConfig(max_partitions=2, prune_search=False)
        index = ScoreBoundIndex(pair, "bonus", config)
        evaluator = CandidateEvaluator(pair, "bonus", config)
        for spec in build_search_plan(["edu", "exp"], ["bonus"], config).specs:
            outcome = evaluator.evaluate(spec)
            if outcome.scored is not None:
                assert outcome.scored.score <= index.bound(spec), spec.describe()

    def test_infinite_cell_bounds_like_a_missing_one(self):
        pair = employee_pair(80, seed=3)
        plan = build_search_plan(["edu", "exp"], ["bonus"], CharlesConfig())
        row = int(np.nonzero(pair.changed_mask("bonus"))[0][0])
        records = []
        for value in (float("inf"), None):
            bonus = pair.target.column("bonus")
            bonus[row] = value
            target = pair.target.with_column(
                "bonus", bonus, dtype=pair.schema.column("bonus").dtype
            )
            index = ScoreBoundIndex(
                SnapshotPair.align(pair.source, target, key="name"), "bonus", CharlesConfig()
            )
            records.append([index.spec_bound(spec) for spec in plan.specs])
        assert records[0] == records[1]
        assert all(np.isfinite(record.baseline) for record in records[0])
