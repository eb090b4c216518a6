"""The online cost model and its two packing primitives.

The model only steers *scheduling* — worker-chunk packing and prefetch batch
splits — so the contracts here are about coverage and determinism (every
index appears exactly once, ties break the same way every run) plus the
hierarchical back-off of the predictor.  Ranking equivalence of the
cost-routed parallel path rides on the executor differential test at the
bottom.
"""

from __future__ import annotations

import pytest

from repro.core import Charles, CharlesConfig, CharlesResult
from repro.search import build_search_plan
from repro.search.costmodel import OnlineCostModel, batch_indices, pack_indices
from repro.workloads import employee_pair


def _specs():
    plan = build_search_plan(["edu", "exp"], ["bonus"], CharlesConfig())
    return plan.specs


class TestOnlineCostModel:
    def test_cold_model_predicts_the_default(self):
        model = OnlineCostModel()
        spec = _specs()[0]
        assert model.observations == 0
        assert model.predict(spec) > 0.0

    def test_exact_key_wins_over_backoff(self):
        specs = _specs()
        partitioned = [s for s in specs if s.n_partitions is not None]
        a, b = partitioned[0], next(
            s for s in partitioned if s.n_partitions != partitioned[0].n_partitions
        )
        model = OnlineCostModel()
        model.observe(a, 4.0)
        model.observe(b, 0.5)
        assert model.predict(a) == pytest.approx(4.0)
        assert model.predict(b) == pytest.approx(0.5)

    def test_unseen_spec_backs_off_to_coarser_means(self):
        specs = _specs()
        partitioned = [s for s in specs if s.n_partitions is not None]
        model = OnlineCostModel()
        model.observe(partitioned[0], 2.0)
        # a same-kind spec with different shape falls back toward the kind mean
        other = next(
            s
            for s in partitioned
            if s.condition_subset != partitioned[0].condition_subset
        )
        assert model.predict(other) == pytest.approx(2.0)

    def test_nonpositive_observations_are_ignored(self):
        model = OnlineCostModel()
        model.observe(_specs()[0], 0.0)
        model.observe(_specs()[0], -1.0)
        assert model.observations == 0


class TestPackIndices:
    def test_every_index_appears_exactly_once(self):
        costs = [5.0, 1.0, 3.0, 2.0, 4.0, 0.5, 2.5]
        chunks = pack_indices(costs, 3)
        flat = sorted(index for chunk in chunks for index in chunk)
        assert flat == list(range(len(costs)))

    def test_longest_first_balances_chunks(self):
        # classic LPT instance: greedy-by-order packs (8+7, 6+5, 4) = 15/11/4,
        # longest-first packs (8+4, 7+5, 6) = 12/12/6
        costs = [8.0, 7.0, 6.0, 5.0, 4.0]
        chunks = pack_indices(costs, 3)
        loads = sorted(sum(costs[i] for i in chunk) for chunk in chunks)
        assert max(loads) <= 12.0

    def test_deterministic_under_ties(self):
        costs = [1.0] * 8
        assert pack_indices(costs, 3) == pack_indices(costs, 3)

    def test_single_chunk_collapses(self):
        assert pack_indices([1.0, 2.0], 1) == [(0, 1)]

    def test_empty_costs_give_no_chunks(self):
        assert pack_indices([], 4) == []


class TestBatchIndices:
    def test_batches_are_contiguous_and_cover_everything(self):
        costs = [0.4] * 11
        batches = batch_indices(costs, budget_seconds=1.0)
        flat = [index for batch in batches for index in batch]
        assert flat == list(range(11))
        for batch in batches:
            assert list(batch) == list(range(batch[0], batch[-1] + 1))

    def test_budget_splits_but_never_starves(self):
        # each item alone exceeds the budget: one item per batch, never zero
        batches = batch_indices([5.0, 5.0, 5.0], budget_seconds=1.0)
        assert batches == [(0,), (1,), (2,)]

    def test_empty_costs_give_no_batches(self):
        assert batch_indices([], budget_seconds=1.0) == []


class TestCostRoutedEquivalence:
    def _ranking(self, result: CharlesResult):
        return [(s.summary.describe(), s.score) for s in result.summaries]

    def test_routed_parallel_matches_serial(self):
        pair = employee_pair(120, seed=4)
        kwargs = dict(
            condition_attributes=["edu", "exp"], transformation_attributes=["bonus"]
        )
        serial = Charles(CharlesConfig(n_jobs=1)).summarize_pair(
            pair, "bonus", **kwargs
        )
        routed = Charles(CharlesConfig(n_jobs=2)).summarize_pair(
            pair, "bonus", **kwargs
        )
        assert self._ranking(serial) == self._ranking(routed)
