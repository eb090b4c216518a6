"""Executor equivalence: serial and parallel searches must rank identically."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Charles, CharlesConfig, DiffDiscoveryEngine
from repro.search import (
    ParallelExecutor,
    SearchCaches,
    SerialExecutor,
    build_search_plan,
    select_executor,
)
from repro.workloads import employee_pair


def _ranking(result):
    """Byte-exact identity of a ranked result: text, scores and provenance."""
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


class TestExecutorSelection:
    def test_serial_for_single_job(self):
        assert isinstance(select_executor(CharlesConfig(n_jobs=1)), SerialExecutor)

    def test_parallel_for_multiple_jobs(self):
        executor = select_executor(CharlesConfig(n_jobs=3))
        assert isinstance(executor, ParallelExecutor)
        assert executor.n_jobs == 3

    def test_parallel_executor_rejects_single_job(self):
        with pytest.raises(ValueError):
            ParallelExecutor(1)


class TestChunking:
    @pytest.mark.parametrize("n_jobs", [2, 3])
    @pytest.mark.parametrize("count", [1, 2, 5, 17, 40])
    def test_chunks_are_contiguous_and_cover_every_index_in_order(self, n_jobs, count):
        chunks = ParallelExecutor(n_jobs)._chunk_indices(count)
        assert [index for chunk in chunks for index in chunk] == list(range(count))
        assert all(chunk for chunk in chunks)
        assert len(chunks) <= 2 * n_jobs

    def test_chunk_sizes_differ_by_at_most_one(self):
        # plan order fixes which specs share a chunk, so balance comes from
        # the split alone: no chunk is more than one spec longer than another
        for n_jobs in (2, 3, 4):
            for count in range(1, 60):
                sizes = [
                    len(chunk)
                    for chunk in ParallelExecutor(n_jobs)._chunk_indices(count)
                ]
                assert len(sizes) == min(count, 2 * n_jobs)
                assert max(sizes) - min(sizes) <= 1


class TestSerialParallelEquivalence:
    def test_identical_rankings_on_employee(self, employee_200):
        serial = Charles(CharlesConfig(n_jobs=1)).summarize_pair(
            employee_200, "bonus",
            condition_attributes=["edu", "exp"], transformation_attributes=["bonus"],
        )
        parallel = Charles(CharlesConfig(n_jobs=2)).summarize_pair(
            employee_200, "bonus",
            condition_attributes=["edu", "exp"], transformation_attributes=["bonus"],
        )
        assert _ranking(serial) == _ranking(parallel)
        assert serial.total_candidates == parallel.total_candidates

    def test_identical_rankings_on_billionaires(self, billionaires_300):
        serial = Charles(CharlesConfig(n_jobs=1)).summarize_pair(billionaires_300, "net_worth")
        parallel = Charles(CharlesConfig(n_jobs=2)).summarize_pair(billionaires_300, "net_worth")
        assert _ranking(serial) == _ranking(parallel)

    def test_identical_full_ranked_lists(self, fig1_pair):
        args = (fig1_pair, "bonus", ["edu", "exp", "gen"], ["bonus", "salary"])
        serial = DiffDiscoveryEngine(CharlesConfig(n_jobs=1)).discover(*args)
        parallel = DiffDiscoveryEngine(CharlesConfig(n_jobs=2)).discover(*args)
        assert [s.summary.structural_key() for s in serial] == [
            s.summary.structural_key() for s in parallel
        ]
        assert [s.score for s in serial] == [s.score for s in parallel]

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_property_equivalence_on_generated_employee_workloads(self, seed):
        pair = employee_pair(60, seed=seed)
        serial = Charles(CharlesConfig(n_jobs=1)).summarize_pair(
            pair, "bonus",
            condition_attributes=["edu", "exp"], transformation_attributes=["bonus"],
        )
        parallel = Charles(CharlesConfig(n_jobs=2)).summarize_pair(
            pair, "bonus",
            condition_attributes=["edu", "exp"], transformation_attributes=["bonus"],
        )
        assert _ranking(serial) == _ranking(parallel)


class TestParallelFallback:
    def test_broken_pool_falls_back_to_serial_with_identical_results(self, fig1_pair):
        config = CharlesConfig(n_jobs=2)
        plan = build_search_plan(["edu", "exp"], ["bonus"], config)
        executor = ParallelExecutor(2)
        executor._setup(fig1_pair, "bonus", config)
        try:
            with pytest.warns(RuntimeWarning, match="falling back to serial"):
                executor._fall_back_to_serial(RuntimeError("worker died"))
            assert executor._effective_n_jobs() == 1
            outcomes, _ = executor._run_round(plan.rounds[1], frozenset())
        finally:
            executor._teardown()
        serial = SerialExecutor()
        serial._setup(fig1_pair, "bonus", config)
        expected, _ = serial._run_round(plan.rounds[1], frozenset())
        assert [o.spec for o in outcomes] == [o.spec for o in expected]
        assert [o.scored.score if o.scored else None for o in outcomes] == [
            o.scored.score if o.scored else None for o in expected
        ]

    def test_stats_report_effective_jobs_after_fallback(self, fig1_pair):
        config = CharlesConfig(n_jobs=2)
        plan = build_search_plan(["edu"], ["bonus"], config)
        executor = ParallelExecutor(2)
        original_setup = executor._setup

        def broken_setup(pair, target, cfg, caches=None):
            original_setup(pair, target, cfg, caches)
            with pytest.warns(RuntimeWarning):
                executor._fall_back_to_serial(RuntimeError("simulated pool loss"))

        executor._setup = broken_setup
        ranked, stats = executor.execute(fig1_pair, "bonus", plan, config)
        assert ranked
        assert stats.n_jobs == 1


class TestSuppliedCaches:
    def _execute(self, pair, config, caches):
        plan = build_search_plan(["edu", "exp"], ["bonus", "salary"], config)
        return SerialExecutor().execute(pair, "bonus", plan, config, caches=caches)

    def test_shared_caches_are_used_by_serial_executor(self, fig1_pair):
        config = CharlesConfig()
        caches = SearchCaches()
        self._execute(fig1_pair, config, caches)
        first = caches.counters()
        assert first.fit_misses > 0
        # the same search again: all lookups must hit the shared caches
        self._execute(fig1_pair, config, caches)
        second = caches.counters()
        assert second.fit_misses == first.fit_misses
        assert second.partition_misses == first.partition_misses
        assert second.fit_hits > first.fit_hits


class TestSearchStatsThreading:
    def test_result_carries_search_stats(self, fig1_result):
        stats = fig1_result.search_stats
        assert stats is not None
        assert stats.candidates_enumerated > 0
        assert stats.candidates_enumerated == (
            stats.candidates_evaluated + stats.candidates_pruned
        )

    def test_no_change_result_still_has_stats(self, fig1_tables):
        from repro.relational.snapshot import SnapshotPair

        source, _ = fig1_tables
        pair = SnapshotPair.align(source, source)
        result = Charles().summarize_pair(pair, "bonus")
        assert result.search_stats is not None
        assert result.search_stats.candidates_enumerated == 0

    def test_stats_describe_and_as_dict(self, fig1_result):
        stats = fig1_result.search_stats
        text = stats.describe()
        assert "candidates planned" in text and "jobs=" in text
        payload = stats.as_dict()
        assert payload["candidates_enumerated"] == stats.candidates_enumerated
        assert 0.0 <= payload["cache_hit_rate"] <= 1.0


class TestStructuralDeduplication:
    def test_rankings_contain_no_structural_duplicates(self, fig1_pair):
        ranked = DiffDiscoveryEngine().discover(
            fig1_pair, "bonus", ["edu", "exp"], ["bonus", "salary"]
        )
        keys = [scored.summary.structural_key() for scored in ranked]
        assert len(keys) == len(set(keys))

    def test_structural_key_ignores_formatting_but_not_structure(self, fig1_result):
        best = fig1_result.best.summary
        assert best.structural_key() == best.structural_key()
        trimmed = best.__class__(
            best.target,
            best.conditional_transformations[:-1],
            identity_fallback=best.identity_fallback,
        )
        assert trimmed.structural_key() != best.structural_key()
