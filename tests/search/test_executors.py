"""Executor equivalence: serial and parallel searches must rank identically."""

import concurrent.futures
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Charles, CharlesConfig
from repro.search import SearchCaches, SearchExecutor, build_search_plan
from repro.search.executors import _FALLBACKS_TOTAL, _chunk_indices
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


def _full_ranking(ranked):
    return [(s.summary.structural_key(), s.score) for s in ranked]


class TestExecutorJobs:
    def test_serial_by_default(self):
        assert SearchExecutor().n_jobs == 1

    def test_keeps_the_requested_jobs(self):
        assert SearchExecutor(3).n_jobs == 3

    def test_rejects_fewer_than_one_job(self):
        with pytest.raises(ValueError, match="n_jobs"):
            SearchExecutor(0)

    def test_serial_search_reports_one_job(self, fig1_pair):
        config = CharlesConfig()
        plan = build_search_plan(["edu"], ["bonus"], config)
        _, stats = SearchExecutor().execute(fig1_pair, "bonus", plan, config)
        assert stats.n_jobs == 1


class TestChunking:
    @pytest.mark.parametrize("n_jobs", [2, 3])
    @pytest.mark.parametrize("count", [1, 2, 5, 17, 40])
    def test_chunks_are_contiguous_and_cover_every_index_in_order(self, n_jobs, count):
        chunks = _chunk_indices(count, n_jobs)
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
                    for chunk in _chunk_indices(count, n_jobs)
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
        config = CharlesConfig()
        plan = build_search_plan(["edu", "exp", "gen"], ["bonus", "salary"], config)
        serial, _ = SearchExecutor(1).execute(fig1_pair, "bonus", plan, config)
        parallel, stats = SearchExecutor(2).execute(fig1_pair, "bonus", plan, config)
        assert _full_ranking(serial) == _full_ranking(parallel)
        assert stats.n_jobs == 2

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


class _BrokenMapPool:
    """A process pool whose workers die on the first round sent to them."""

    def __init__(self, *args, **kwargs):
        pass

    def map(self, function, payloads):
        raise BrokenProcessPool("a worker died")

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def _unavailable_pool(*args, **kwargs):
    raise OSError("no semaphores here")


class TestParallelFallback:
    """A failing pool hands the search to the in-process evaluator."""

    @pytest.mark.parametrize(
        "pool", [_unavailable_pool, _BrokenMapPool], ids=["construction", "map"]
    )
    def test_pool_failure_falls_back_to_the_serial_ranking(self, monkeypatch, fig1_pair, pool):
        config = CharlesConfig()
        plan = build_search_plan(["edu", "exp"], ["bonus"], config)
        expected, serial = SearchExecutor().execute(fig1_pair, "bonus", plan, config)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        fallbacks = _FALLBACKS_TOTAL.value()
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            ranked, stats = SearchExecutor(2).execute(fig1_pair, "bonus", plan, config)
        assert _FALLBACKS_TOTAL.value() == fallbacks + 1
        assert stats.n_jobs == 1
        assert _full_ranking(ranked) == _full_ranking(expected)
        assert stats.candidates_evaluated == serial.candidates_evaluated


class TestSuppliedCaches:
    def _execute(self, pair, config, caches):
        plan = build_search_plan(["edu", "exp"], ["bonus", "salary"], config)
        return SearchExecutor().execute(pair, "bonus", plan, config, caches=caches)

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
        config = CharlesConfig()
        plan = build_search_plan(["edu", "exp"], ["bonus", "salary"], config)
        ranked, _ = SearchExecutor().execute(fig1_pair, "bonus", plan, config)
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
