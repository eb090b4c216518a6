"""Tests for the pair memo, the results store's bound and search pruning guarantees."""

import hashlib
import sys
import threading

import numpy as np
import pytest

from repro.cachestore import MISSING, InProcessBackend
from repro.core.config import CharlesConfig
from repro.relational.snapshot import SnapshotPair
from repro.relational.table import Table
from repro.search import MemoTable, SearchCaches, SearchExecutor, build_search_plan, mask_digest
from repro.search.bounds import _column_fingerprint
from repro.search.cache import CacheCounters, snapshot_digest
from repro.timeline import EngineSession
from repro.workloads import employee_pair
from repro.workloads.streaming import streaming_employee_timeline


class TestMemoTable:
    def test_miss_then_hit(self):
        table = MemoTable()
        assert table.lookup("k") is MISSING
        table["k"] = 41
        assert table.lookup("k") == 41
        assert table.hits == 1 and table.misses == 1

    def test_none_is_a_cacheable_value(self):
        table = MemoTable()
        table["k"] = None
        assert table.lookup("k") is None
        assert table.hits == 1 and table.misses == 0

    def test_clear_preserves_counters(self):
        table = MemoTable()
        table.lookup("k")
        table["k"] = 1
        table.clear()
        assert len(table) == 0 and table.misses == 1
        assert table.lookup("k") is MISSING
        assert table.misses == 2


def _get_or_put(backend, key, compute):
    value = backend.get(key)
    if value is MISSING:
        value = compute()
        backend.put(key, value)
    return value


class TestResultsStoreBound:
    """The capacity bound applies to the results store alone."""

    def test_capacity_evicts_the_oldest_write(self):
        store = InProcessBackend(capacity=2)
        _get_or_put(store, "a", lambda: 1)
        _get_or_put(store, "b", lambda: 2)
        _get_or_put(store, "a", lambda: 1)  # a hit: "a" is still the oldest write
        _get_or_put(store, "c", lambda: 3)  # evicts "a"
        assert len(store) == 2 and store.evictions == 1
        calls = []
        assert _get_or_put(store, "b", lambda: calls.append(1) or 9) == 2
        assert calls == []  # "b" survived
        _get_or_put(store, "a", lambda: calls.append(1) or 9)
        assert calls == [1]  # "a" was recomputed

    def test_unbounded_by_default(self):
        store = InProcessBackend()
        for index in range(1000):
            _get_or_put(store, index, lambda: index)
        assert len(store) == 1000 and store.evictions == 0
        assert store.capacity is None

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            InProcessBackend(capacity=0)

    def test_capacity_one_keeps_only_the_last_entry(self):
        store = InProcessBackend(capacity=1)
        assert _get_or_put(store, "a", lambda: 1) == 1
        assert _get_or_put(store, "b", lambda: 2) == 2  # evicts "a"
        assert len(store) == 1 and store.evictions == 1
        calls = []
        assert _get_or_put(store, "b", lambda: calls.append(1) or 9) == 2
        assert calls == []  # "b" survived as the sole entry
        _get_or_put(store, "a", lambda: calls.append(1) or 3)
        assert calls == [1] and store.evictions == 2  # "a" recomputed, "b" evicted

    def test_re_access_leaves_the_eviction_order_alone(self):
        store = InProcessBackend(capacity=3)
        for key in ("a", "b", "c"):
            _get_or_put(store, key, lambda k=key: k)
        # touch in reverse: eviction follows the writes, not the reads
        _get_or_put(store, "b", lambda: None)
        _get_or_put(store, "a", lambda: None)
        _get_or_put(store, "d", lambda: "d")  # evicts "a", the oldest write
        _get_or_put(store, "e", lambda: "e")  # then "b"
        assert store.evictions == 2
        # the survivors hit without recomputation (hits do not evict)
        recomputed = []
        for key in ("c", "d", "e"):
            _get_or_put(store, key, lambda k=key: recomputed.append(k) or k)
        assert recomputed == []
        # the evicted keys were really gone
        _get_or_put(store, "a", lambda: recomputed.append("a") or "a")
        assert recomputed == ["a"]

    def test_config_capacity_bounds_the_results_store_only(self, fig1_pair):
        config = CharlesConfig(search_cache_capacity=4)
        caches = SearchCaches.from_config(config)
        assert caches.results.capacity == 4
        plan = build_search_plan(["edu", "exp"], ["bonus", "salary"], config)
        bounded, stats = SearchExecutor().execute(
            fig1_pair, "bonus", plan, config, caches=caches
        )
        # the memo is not bounded: it holds more entries than the capacity
        assert len(caches.fits) > 4 and stats.fit_cache_hits > 0
        unbounded, _ = SearchExecutor().execute(fig1_pair, "bonus", plan, CharlesConfig())
        assert [(s.summary.structural_key(), s.score) for s in bounded] == [
            (s.summary.structural_key(), s.score) for s in unbounded
        ]

    def test_invalid_config_capacity_rejected(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            CharlesConfig(search_cache_capacity=0)


def _pair(bonuses_old, bonuses_new, cities=("x", "y", "z")):
    source = Table.from_rows(
        [{"id": str(i), "city": cities[i], "bonus": bonuses_old[i]} for i in range(3)],
        primary_key="id",
    )
    target = source.with_column("bonus", list(bonuses_new))
    return SnapshotPair.align(source, target, key="id")


class TestColumnFingerprint:
    """The per-row prints the score bounds group rows by."""

    def test_identical_content_same_prints(self):
        pair_a = _pair([1.0, 2.0, 3.0], [1.5, 2.0, 3.0])
        pair_b = _pair([1.0, 2.0, 3.0], [1.5, 2.0, 3.0])
        for name in ("city", "bonus"):
            assert np.array_equal(
                _column_fingerprint(pair_a.source, name), _column_fingerprint(pair_b.source, name)
            )

    def test_categorical_and_missing_values_distinguished(self):
        pair_a = _pair([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], cities=("x", "y", "z"))
        pair_b = _pair([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], cities=("x", "y", "w"))
        prints_a = _column_fingerprint(pair_a.source, "city")
        prints_b = _column_fingerprint(pair_b.source, "city")
        assert prints_a[:2].tolist() == prints_b[:2].tolist()
        assert prints_a[2] != prints_b[2]
        # a missing value prints apart from every level
        missing = _pair([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], cities=("x", None, "y"))
        prints = _column_fingerprint(missing.source, "city")
        assert len(set(prints.tolist())) == 3

    def test_numeric_prints_are_the_raw_bits(self):
        pair = _pair([1.0, -0.0, 0.0], [1.0, 2.0, 3.0])
        prints = _column_fingerprint(pair.source, "bonus")
        assert prints.dtype == np.uint64
        assert prints[1] != prints[2]  # -0.0 and 0.0 differ bit for bit
        assert prints[0] == np.array([1.0]).view(np.uint64)[0]


def _token(pair, target, attributes, mask):
    """The hash the retired per-spec memo keys were built from, over the prints."""
    digest = hashlib.blake2b(digest_size=16)
    for name in dict.fromkeys(attributes):
        if name != target:
            digest.update(_column_fingerprint(pair.source, name)[mask].tobytes())
    digest.update(_column_fingerprint(pair.source, target)[mask].tobytes())
    digest.update(_column_fingerprint(pair.target, target)[mask].tobytes())
    return digest.digest()


class TestColumnFingerprintGolden:
    """Prints pinned to fixed digests, so bound floors cannot drift.

    The score bounds group rows by these prints; a change to how a table
    stores its columns must leave every print byte-identical.  The digests
    are the ones pinned before the helper moved to :mod:`repro.search.bounds`.
    The pair mixes every dtype with missing values, an INT beyond 2**53,
    ``-0.0``, a target in a different row order and a restricted sub-pair.
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

    def test_prints_match_the_pinned_values(self):
        pair = self._pair()
        every_row = np.ones(5, dtype=bool)
        some_rows = np.array([True, False, True, True, False])
        assert _token(pair, "bonus", ["edu", "active", "exp", "salary"], every_row).hex() == (
            "1830506170ca51afbceb9a39950a0a84"
        )
        assert _token(pair, "bonus", ["edu", "active"], some_rows).hex() == (
            "824dcf7ca243b0058e149d376d76aecb"
        )
        assert _token(pair, "bonus", ["exp"], pair.changed_mask("bonus")).hex() == (
            "f4057fc237b71cf1b0fba6befb90b73e"
        )

    def test_restricted_pair_prints_match_the_pinned_value(self):
        pair = self._pair()
        rows = np.array([False, True, True, True, False])
        sub = SnapshotPair(pair.source.mask(rows), pair.target.mask(rows), pair.key)
        token = _token(sub, "bonus", ["edu", "active", "exp"], np.ones(3, dtype=bool))
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


class TestSnapshotDigest:
    """Content digests of snapshots: pinned values, each table hashed once."""

    @pytest.fixture()
    def hashed(self, monkeypatch):
        """The alignment key of every snapshot digest computed (not looked up)."""
        keys = []
        original = hashlib.blake2b

        def spy(data=b"", **kwargs):
            keys.append(data)
            return original(data, **kwargs)

        monkeypatch.setattr(hashlib, "blake2b", spy)
        return keys

    def test_digests_match_the_pinned_values(self):
        pair = employee_pair(40, seed=5)
        assert snapshot_digest(pair.source, pair.key).hex() == "bbbf40cbbf43173b918533bfba9bc02a"
        assert snapshot_digest(pair.target, pair.key).hex() == "f3e8627d759c5ed67f341f25aac0f036"
        assert snapshot_digest(pair.source, None).hex() == "e934e6a2757225135a9f3276a6b8026c"

    def test_a_repeat_call_does_not_rehash(self, hashed):
        pair = employee_pair(40, seed=5)
        first = snapshot_digest(pair.source, pair.key)
        assert hashed == [repr(pair.key).encode("utf-8")]
        assert snapshot_digest(pair.source, pair.key) == first
        assert len(hashed) == 1
        # another alignment key is another digest
        assert snapshot_digest(pair.source, None) != first
        assert len(hashed) == 2

    def test_concurrent_first_calls_agree(self):
        # the memo's check-then-store may race; every thread still gets the
        # one digest the content defines
        pair = employee_pair(200, seed=5)
        want = snapshot_digest(employee_pair(200, seed=5).source, pair.key)
        results = []

        def digest():
            results.append(snapshot_digest(pair.source, pair.key))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=digest) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == [want] * 8
        assert pair.source._digests == {pair.key: want}

    def test_a_session_hashes_each_version_once(self, hashed):
        store, _ = streaming_employee_timeline(60, num_versions=4, seed=5)
        session = EngineSession(CharlesConfig(max_partitions=2))
        for source, target in (("v1", "v2"), ("v2", "v3"), ("v3", "v4")):
            session.summarize_pair(store.pair(source, target), "bonus")
        session.close()
        # result key and pair scope share one digest per table, and each
        # hop's source is the previous hop's target
        assert hashed.count(repr(store.key).encode("utf-8")) == 4


class TestCacheCountersArithmetic:
    def _counters(self, scale):
        return CacheCounters(
            fit_hits=1 * scale,
            fit_misses=2 * scale,
            partition_hits=3 * scale,
            partition_misses=4 * scale,
        )

    def test_add_is_fieldwise(self):
        total = self._counters(1) + self._counters(2)
        assert total == self._counters(3)
        assert total.hits == 3 + 9 and total.misses == 6 + 12

    def test_sub_inverts_add(self):
        assert self._counters(3) - self._counters(2) == self._counters(1)
        assert self._counters(1) - self._counters(1) == self._counters(0)

    def test_hit_rate_bounds(self):
        assert CacheCounters().hit_rate == 0.0
        assert CacheCounters(fit_hits=3, fit_misses=1).hit_rate == 0.75


class TestSearchCaches:
    def test_counters_delta_arithmetic(self):
        caches = SearchCaches()
        before = caches.counters()
        caches.fits.lookup("a")
        caches.fits["a"] = 1
        caches.fits.lookup("a")
        caches.partitions.lookup("p")
        delta = caches.counters() - before
        assert (delta.fit_hits, delta.fit_misses) == (1, 1)
        assert (delta.partition_hits, delta.partition_misses) == (0, 1)

    def test_a_new_pair_clears_every_memo_table(self):
        caches = SearchCaches()
        tables = (
            caches.fits,
            caches.partitions,
            caches.residual_features,
            caches.condition_features,
            caches.labellings,
            caches.inductions,
            caches.summaries,
        )
        caches.scope_to_pair(b"a")
        for table in tables:
            table["k"] = 1
        caches.results.put("r", 1)
        caches.scope_to_pair(b"a")  # the same pair keeps its entries
        assert all(len(table) == 1 for table in tables)
        caches.scope_to_pair(b"b")
        assert all(len(table) == 0 for table in tables)
        assert caches.results.get("r") == 1  # result entries are not pair-scoped


def _ranking(ranked):
    return [(scored.summary.describe(), scored.score) for scored in ranked]


class TestPairScope:
    """Memo keys name rows by mask digest, so caches must follow the pair."""

    def test_one_caches_object_across_pairs_gives_cold_rankings(self):
        config = CharlesConfig(max_partitions=3, top_k=5)
        plan = build_search_plan(["edu", "exp"], ["bonus", "salary"], config)
        pair_a = employee_pair(120, seed=3)
        pair_b = employee_pair(120, seed=4)  # the same shape, other content
        cold = {
            name: _ranking(SearchExecutor().execute(pair, "bonus", plan, config)[0])
            for name, pair in (("a", pair_a), ("b", pair_b))
        }
        assert cold["a"] != cold["b"]
        caches = SearchCaches()
        for name, pair in (("a", pair_a), ("b", pair_b), ("a", pair_a)):
            ranked, _ = SearchExecutor().execute(pair, "bonus", plan, config, caches=caches)
            assert _ranking(ranked) == cold[name], name

    def test_the_same_pair_keeps_its_memo(self):
        config = CharlesConfig(max_partitions=3, top_k=5)
        plan = build_search_plan(["edu", "exp"], ["bonus"], config)
        pair = employee_pair(120, seed=3)
        caches = SearchCaches()
        SearchExecutor().execute(pair, "bonus", plan, config, caches=caches)
        misses = caches.counters().misses
        # an equal pair built anew digests the same: every lookup hits
        SearchExecutor().execute(employee_pair(120, seed=3), "bonus", plan, config, caches=caches)
        assert caches.counters().misses == misses


def _search(pair, target, conditions, transformations, config=None):
    """One search over the full ranked list: ``(ranked, stats)``."""
    config = config or CharlesConfig()
    plan = build_search_plan(conditions, transformations, config)
    return SearchExecutor().execute(pair, target, plan, config)


class TestEngineCacheBehaviour:
    def test_search_reuses_fits_across_specs(self, fig1_pair):
        _, stats = _search(fig1_pair, "bonus", ["edu", "exp"], ["bonus", "salary"])
        assert stats.fit_cache_hits > 0
        assert stats.partition_cache_misses > 0
        assert 0.0 < stats.cache_hit_rate < 1.0

    def test_stats_account_for_every_spec(self, fig1_pair):
        _, stats = _search(fig1_pair, "bonus", ["edu", "exp"], ["bonus"])
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
        pruned, _ = _search(
            pair, target, conditions, transformations, CharlesConfig(prune_search=True)
        )
        complete, _ = _search(
            pair, target, conditions, transformations, CharlesConfig(prune_search=False)
        )
        top_k = CharlesConfig().top_k
        pruned_top = [(s.summary.structural_key(), s.score) for s in pruned[:top_k]]
        complete_top = [(s.summary.structural_key(), s.score) for s in complete[:top_k]]
        assert pruned_top == complete_top

    def test_pruning_reduces_scored_candidates(self, fig1_pair):
        _, with_pruning = _search(
            fig1_pair, "bonus", ["edu", "exp", "gen"], ["bonus", "salary"],
            CharlesConfig(prune_search=True),
        )
        assert with_pruning.candidates_pruned > 0
