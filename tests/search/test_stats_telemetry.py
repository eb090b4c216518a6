"""Counter arithmetic and rendering: BackendCounters, CacheCounters, SearchStats."""

import pytest

from repro.cachestore import BackendCounters
from repro.search.cache import CacheCounters
from repro.search.stats import SearchStats


class TestBackendCounters:
    def test_add_sums_every_field(self):
        total = BackendCounters(hits=2, misses=3, evictions=1, round_trips=4, failovers=1) + (
            BackendCounters(hits=5, misses=1, evictions=0, round_trips=2, failovers=2)
        )
        assert total == BackendCounters(
            hits=7, misses=4, evictions=1, round_trips=6, failovers=3
        )

    def test_sub_inverts_add(self):
        base = BackendCounters(hits=10, misses=5, round_trips=8, failovers=2)
        delta = BackendCounters(hits=3, misses=1, round_trips=2, failovers=1)
        assert (base + delta) - delta == base

    def test_hit_rate_and_lookups(self):
        counters = BackendCounters(hits=3, misses=1)
        assert counters.lookups == 4
        assert counters.hit_rate == pytest.approx(0.75)
        assert BackendCounters().hit_rate == 0.0

    def test_as_dict_carries_raw_fields_and_rate(self):
        counters = BackendCounters(hits=3, misses=1, evictions=2, round_trips=5, failovers=1)
        assert counters.as_dict() == {
            "hits": 3,
            "misses": 1,
            "evictions": 2,
            "round_trips": 5,
            "failovers": 1,
            "hit_rate": 0.75,
        }


class TestCacheCounters:
    def test_add_merges_backend_layers_by_name(self):
        left = CacheCounters(
            fit_hits=1,
            backends=(
                ("memory", BackendCounters(hits=1)),
                ("remote[a:1]", BackendCounters(hits=2, round_trips=2)),
            ),
        )
        right = CacheCounters(
            fit_hits=2,
            backends=(
                ("remote[a:1]", BackendCounters(misses=1, round_trips=1, failovers=1)),
                ("remote[b:2]", BackendCounters(hits=4)),
            ),
        )
        merged = left + right
        assert merged.fit_hits == 3
        layers = merged.by_backend
        assert set(layers) == {"memory", "remote[a:1]", "remote[b:2]"}
        assert layers["remote[a:1]"] == BackendCounters(
            hits=2, misses=1, round_trips=3, failovers=1
        )

    def test_sub_inverts_add_including_backends(self):
        base = CacheCounters(
            fit_hits=4,
            partition_misses=2,
            backends=(("remote[a:1]", BackendCounters(hits=5, round_trips=4)),),
        )
        delta = CacheCounters(
            fit_hits=1,
            partition_misses=1,
            backends=(("remote[a:1]", BackendCounters(hits=2, round_trips=1)),),
        )
        assert (base + delta) - delta == base

    def test_derived_totals(self):
        counters = CacheCounters(
            fit_hits=2, fit_misses=1, partition_hits=1, partition_misses=2,
            fit_evictions=1, partition_evictions=2,
        )
        assert counters.hits == 3 and counters.misses == 3
        assert counters.evictions == 3
        assert counters.hit_rate == pytest.approx(0.5)


class TestSearchStats:
    def test_merge_cache_counters_accumulates_layers(self):
        stats = SearchStats()
        stats.merge_cache_counters(
            CacheCounters(
                fit_hits=1,
                partition_misses=1,
                backends=(("remote[a:1]", BackendCounters(hits=1, round_trips=1)),),
            )
        )
        stats.merge_cache_counters(
            CacheCounters(
                fit_hits=2,
                backends=(
                    ("memory", BackendCounters(hits=3)),
                    ("remote[a:1]", BackendCounters(misses=2, round_trips=2, failovers=1)),
                ),
            )
        )
        assert stats.fit_cache_hits == 3
        assert stats.partitions_recomputed == 1
        assert stats.backend_counters["remote[a:1]"] == BackendCounters(
            hits=1, misses=2, round_trips=3, failovers=1
        )
        assert stats.backend_counters["memory"].hits == 3

    def test_as_dict_nests_backend_layers_as_plain_dicts(self):
        stats = SearchStats()
        stats.merge_cache_counters(
            CacheCounters(backends=(("remote[a:1]", BackendCounters(hits=1, failovers=2)),))
        )
        payload = stats.as_dict()
        assert payload["backend_counters"] == {
            "remote[a:1]": {
                "hits": 1,
                "misses": 0,
                "evictions": 0,
                "round_trips": 0,
                "failovers": 2,
                "hit_rate": 1.0,
            }
        }

    def test_describe_golden_rendering(self):
        stats = SearchStats(
            candidates_enumerated=40,
            candidates_evaluated=25,
            candidates_pruned_duplicates=6,
            candidates_pruned_bounds=4,
            candidates_pruned_spec_bounds=5,
            fit_cache_hits=30,
            fit_cache_misses=10,
            cache_backend="remote",
            wall_time_seconds=1.234,
            n_jobs=4,
            warm_start_floor=0.875,
        )
        assert stats.describe() == (
            "40 candidates planned (25 evaluated, 15 pruned), "
            "cache hit rate 75.0%, 1.23s, jobs=4, "
            "5 bound-pruned before discovery, cache=remote, "
            "warm floor 0.875"
        )

    def test_describe_is_str(self):
        stats = SearchStats(candidates_enumerated=1)
        assert str(stats) == stats.describe()
