"""Tests for the memo caches and search pruning guarantees."""

import numpy as np
import pytest

from repro.cachestore import BackendCounters
from repro.core.config import CharlesConfig
from repro.core.discovery import DiffDiscoveryEngine
from repro.relational.snapshot import SnapshotPair
from repro.relational.table import Table
from repro.search import MemoCache, PairFingerprints, SearchCaches, mask_digest
from repro.search.cache import CacheCounters


class TestMemoCache:
    def test_miss_then_hit(self):
        cache = MemoCache()
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1) or 41) == 41
        assert cache.get_or_compute("k", lambda: calls.append(1) or 99) == 41
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_none_is_a_cacheable_value(self):
        cache = MemoCache()
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1)) is None
        assert cache.get_or_compute("k", lambda: calls.append(1)) is None
        assert len(calls) == 1
        assert cache.hits == 1

    def test_clear_preserves_counters(self):
        cache = MemoCache()
        cache.get_or_compute("k", lambda: 1)
        cache.clear()
        assert len(cache) == 0 and cache.misses == 1
        cache.get_or_compute("k", lambda: 2)
        assert cache.misses == 2


class TestMemoCacheLRU:
    def test_capacity_evicts_least_recently_used(self):
        cache = MemoCache(capacity=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 1)  # refresh "a"; "b" is now LRU
        cache.get_or_compute("c", lambda: 3)  # evicts "b"
        assert len(cache) == 2 and cache.evictions == 1
        calls = []
        assert cache.get_or_compute("a", lambda: calls.append(1) or 9) == 1
        assert calls == []  # "a" survived
        cache.get_or_compute("b", lambda: calls.append(1) or 9)
        assert calls == [1]  # "b" was recomputed

    def test_unbounded_by_default(self):
        cache = MemoCache()
        for index in range(1000):
            cache.get_or_compute(index, lambda: index)
        assert len(cache) == 1000 and cache.evictions == 0
        assert cache.capacity is None

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            MemoCache(capacity=0)

    def test_capacity_one_keeps_only_the_last_entry(self):
        cache = MemoCache(capacity=1)
        assert cache.get_or_compute("a", lambda: 1) == 1
        assert cache.get_or_compute("b", lambda: 2) == 2  # evicts "a"
        assert len(cache) == 1 and cache.evictions == 1
        calls = []
        assert cache.get_or_compute("b", lambda: calls.append(1) or 9) == 2
        assert calls == []  # "b" survived as the sole entry
        cache.get_or_compute("a", lambda: calls.append(1) or 3)
        assert calls == [1] and cache.evictions == 2  # "a" recomputed, "b" evicted

    def test_re_access_resets_eviction_order(self):
        cache = MemoCache(capacity=3)
        for key in ("a", "b", "c"):
            cache.get_or_compute(key, lambda k=key: k)
        # touch in reverse: eviction order must follow recency, not insertion
        cache.get_or_compute("b", lambda: None)
        cache.get_or_compute("a", lambda: None)
        cache.get_or_compute("d", lambda: "d")  # evicts "c", the true LRU
        cache.get_or_compute("e", lambda: "e")  # then "b"
        assert cache.evictions == 2
        # the survivors hit without recomputation (hits do not evict)
        recomputed = []
        for key in ("a", "d", "e"):
            cache.get_or_compute(key, lambda k=key: recomputed.append(k) or k)
        assert recomputed == []
        # the evicted keys were really gone
        cache.get_or_compute("c", lambda: recomputed.append("c") or "c")
        assert recomputed == ["c"]

    def test_config_threads_capacity_and_counts_evictions(self, fig1_pair):
        config = CharlesConfig(search_cache_capacity=4)
        _, stats = DiffDiscoveryEngine(config).discover_with_stats(
            fig1_pair, "bonus", ["edu", "exp"], ["bonus", "salary"]
        )
        assert stats.cache_evictions > 0
        # eviction never changes results, only recomputation counts
        unbounded, _ = DiffDiscoveryEngine(CharlesConfig()).discover_with_stats(
            fig1_pair, "bonus", ["edu", "exp"], ["bonus", "salary"]
        )
        bounded, _ = DiffDiscoveryEngine(config).discover_with_stats(
            fig1_pair, "bonus", ["edu", "exp"], ["bonus", "salary"]
        )
        assert [(s.summary.structural_key(), s.score) for s in bounded] == [
            (s.summary.structural_key(), s.score) for s in unbounded
        ]

    def test_invalid_config_capacity_rejected(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            CharlesConfig(search_cache_capacity=0)


class TestPairFingerprints:
    def _pair(self, bonuses_old, bonuses_new, cities=("x", "y", "z")):
        source = Table.from_rows(
            [
                {"id": str(i), "city": cities[i], "bonus": bonuses_old[i]}
                for i in range(3)
            ],
            primary_key="id",
        )
        target = source.with_column("bonus", list(bonuses_new))
        return SnapshotPair.align(source, target, key="id")

    def test_identical_content_same_token(self):
        pair_a = self._pair([1.0, 2.0, 3.0], [1.5, 2.0, 3.0])
        pair_b = self._pair([1.0, 2.0, 3.0], [1.5, 2.0, 3.0])
        mask = np.array([True, True, False])
        token_a = PairFingerprints(pair_a, "bonus").token(("bonus",), mask)
        token_b = PairFingerprints(pair_b, "bonus").token(("bonus",), mask)
        assert token_a == token_b

    def test_changing_a_masked_row_changes_the_token(self):
        pair_a = self._pair([1.0, 2.0, 3.0], [1.5, 2.0, 3.0])
        pair_b = self._pair([1.0, 2.0, 3.0], [9.9, 2.0, 3.0])
        mask = np.array([True, True, False])
        prints_a = PairFingerprints(pair_a, "bonus")
        prints_b = PairFingerprints(pair_b, "bonus")
        assert prints_a.token(("bonus",), mask) != prints_b.token(("bonus",), mask)

    def test_changing_an_unmasked_row_keeps_the_token(self):
        # the delta-invalidation property: entries over untouched rows survive
        pair_a = self._pair([1.0, 2.0, 3.0], [1.0, 2.0, 3.5])
        pair_b = self._pair([1.0, 2.0, 3.0], [1.0, 2.0, 9.9])
        mask = np.array([True, True, False])
        prints_a = PairFingerprints(pair_a, "bonus")
        prints_b = PairFingerprints(pair_b, "bonus")
        assert prints_a.token(("bonus",), mask) == prints_b.token(("bonus",), mask)

    def test_categorical_and_missing_values_distinguished(self):
        pair_a = self._pair([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], cities=("x", "y", "z"))
        pair_b = self._pair([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], cities=("x", "y", "w"))
        mask = np.ones(3, dtype=bool)
        token_a = PairFingerprints(pair_a, "bonus").token(("city", "bonus"), mask)
        token_b = PairFingerprints(pair_b, "bonus").token(("city", "bonus"), mask)
        assert token_a != token_b

    def test_attribute_order_and_duplicates_normalised(self):
        pair = self._pair([1.0, 2.0, 3.0], [1.5, 2.0, 3.0])
        prints = PairFingerprints(pair, "bonus")
        mask = np.ones(3, dtype=bool)
        assert prints.token(("city", "bonus"), mask) == prints.token(
            ("city", "bonus", "city"), mask
        )


class TestPairFingerprintGolden:
    """Tokens pinned to fixed hex values, so cache keys cannot drift.

    Disk and remote caches key entries by these tokens; a change to how a
    table stores its columns must leave every token byte-identical, or
    caches written before the change would silently go cold.  The pair mixes
    every dtype with missing values, an INT beyond 2**53, ``-0.0``, a target
    in a different row order and a restricted sub-pair.
    """

    @staticmethod
    def _pair():
        rows = [
            {"id": 1, "edu": "PhD", "active": True, "exp": 3, "salary": 100.5, "bonus": 10},
            {"id": 2, "edu": None, "active": False, "exp": 2**60, "salary": None, "bonus": 20},
            {"id": 3, "edu": "MS", "active": None, "exp": None, "salary": -0.0, "bonus": None},
            {"id": 4, "edu": "PhD", "active": True, "exp": -7, "salary": 1e300, "bonus": 40},
            {"id": 5, "edu": "BS", "active": False, "exp": 0, "salary": 2.5, "bonus": 50},
        ]
        new_bonus = {1: 11, 2: 22, 3: 33, 4: 44, 5: None}
        target_rows = [dict(rows[i], bonus=new_bonus[rows[i]["id"]]) for i in (2, 0, 4, 1, 3)]
        source = Table.from_rows(rows, primary_key="id")
        target = Table.from_rows(target_rows, primary_key="id")
        return SnapshotPair.align(source, target)

    def test_tokens_match_the_pinned_values(self):
        pair = self._pair()
        prints = PairFingerprints(pair, "bonus")
        every_row = np.ones(5, dtype=bool)
        some_rows = np.array([True, False, True, True, False])
        assert prints.token(["edu", "active", "exp", "salary"], every_row).hex() == (
            "1830506170ca51afbceb9a39950a0a84"
        )
        assert prints.token(["edu", "active"], some_rows).hex() == (
            "824dcf7ca243b0058e149d376d76aecb"
        )
        assert prints.token(["exp"], pair.changed_mask("bonus")).hex() == (
            "f4057fc237b71cf1b0fba6befb90b73e"
        )

    def test_restricted_pair_tokens_match_the_pinned_value(self):
        sub = self._pair().restricted(np.array([False, True, True, True, False]))
        token = PairFingerprints(sub, "bonus").token(["edu", "active", "exp"], np.ones(3, dtype=bool))
        assert token.hex() == "390a6bcde44e2d5e0bc5b771c0b174d2"


class TestMaskDigest:
    def test_distinct_masks_distinct_digests(self):
        a = np.array([True, False, True])
        b = np.array([True, True, False])
        assert mask_digest(a) != mask_digest(b)
        assert mask_digest(a) == mask_digest(a.copy())

    def test_non_contiguous_mask_supported(self):
        mask = np.zeros((4, 2), dtype=bool)[:, 0]
        assert mask_digest(mask) == mask_digest(np.zeros(4, dtype=bool))


class TestCacheCountersArithmetic:
    def _counters(self, scale):
        return CacheCounters(
            fit_hits=1 * scale,
            fit_misses=2 * scale,
            partition_hits=3 * scale,
            partition_misses=4 * scale,
            fit_evictions=5 * scale,
            partition_evictions=6 * scale,
            backends=(("memory", BackendCounters(7 * scale, 8 * scale, 9 * scale)),),
        )

    def test_add_is_fieldwise(self):
        total = self._counters(1) + self._counters(2)
        assert total == self._counters(3)
        assert total.hits == 3 + 9 and total.misses == 6 + 12
        assert total.evictions == 15 + 18

    def test_sub_inverts_add(self):
        assert self._counters(3) - self._counters(2) == self._counters(1)
        assert self._counters(1) - self._counters(1) == self._counters(0)

    def test_add_merges_distinct_backend_layers(self):
        left = CacheCounters(backends=(("l1-memory", BackendCounters(1, 2, 0)),))
        right = CacheCounters(backends=(("l2-disk", BackendCounters(3, 4, 5)),))
        merged = (left + right).by_backend
        assert merged == {
            "l1-memory": BackendCounters(1, 2, 0),
            "l2-disk": BackendCounters(3, 4, 5),
        }

    def test_hit_rate_bounds(self):
        assert CacheCounters().hit_rate == 0.0
        assert CacheCounters(fit_hits=3, fit_misses=1).hit_rate == 0.75
        assert BackendCounters().hit_rate == 0.0
        assert BackendCounters(hits=1, misses=3).hit_rate == 0.25


class TestSearchCaches:
    def test_counters_delta_arithmetic(self):
        caches = SearchCaches()
        before = caches.counters()
        caches.fits.get_or_compute("a", lambda: 1)
        caches.fits.get_or_compute("a", lambda: 1)
        caches.partitions.get_or_compute("p", lambda: [])
        delta = caches.counters() - before
        assert (delta.fit_hits, delta.fit_misses) == (1, 1)
        assert (delta.partition_hits, delta.partition_misses) == (0, 1)


class TestEngineCacheBehaviour:
    def test_search_reuses_fits_across_specs(self, fig1_pair):
        _, stats = DiffDiscoveryEngine().discover_with_stats(
            fig1_pair, "bonus", ["edu", "exp"], ["bonus", "salary"]
        )
        assert stats.fit_cache_hits > 0
        assert stats.partition_cache_misses > 0
        assert 0.0 < stats.cache_hit_rate < 1.0

    def test_stats_account_for_every_spec(self, fig1_pair):
        _, stats = DiffDiscoveryEngine().discover_with_stats(
            fig1_pair, "bonus", ["edu", "exp"], ["bonus"]
        )
        assert stats.candidates_enumerated == stats.candidates_evaluated + stats.candidates_pruned
        assert stats.wall_time_seconds > 0.0
        assert stats.rounds >= 2


class TestPruningSafety:
    @pytest.mark.parametrize("fixture_name,target,conditions,transformations", [
        ("fig1_pair", "bonus", ["edu", "exp", "gen"], ["bonus", "salary"]),
        ("employee_200", "bonus", ["edu", "exp"], ["bonus"]),
    ])
    def test_pruning_never_drops_a_topk_summary(
        self, request, fixture_name, target, conditions, transformations
    ):
        pair = request.getfixturevalue(fixture_name)
        pruned = DiffDiscoveryEngine(CharlesConfig(prune_search=True)).discover(
            pair, target, conditions, transformations
        )
        complete = DiffDiscoveryEngine(CharlesConfig(prune_search=False)).discover(
            pair, target, conditions, transformations
        )
        top_k = CharlesConfig().top_k
        pruned_top = [(s.summary.structural_key(), s.score) for s in pruned[:top_k]]
        complete_top = [(s.summary.structural_key(), s.score) for s in complete[:top_k]]
        assert pruned_top == complete_top

    def test_pruning_reduces_scored_candidates(self, fig1_pair):
        _, with_pruning = DiffDiscoveryEngine(
            CharlesConfig(prune_search=True)
        ).discover_with_stats(fig1_pair, "bonus", ["edu", "exp", "gen"], ["bonus", "salary"])
        assert with_pruning.candidates_pruned > 0
