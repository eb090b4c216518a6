"""Tests for the warm engine session: cache reuse, one-shot pruning, hard invariants."""

from __future__ import annotations

import pytest

from repro.cachestore import BackendCounters
from repro.core import Charles, CharlesConfig
from repro.exceptions import DiscoveryError
from repro.ml.kmeans import KMeans
from repro.timeline import EngineSession, TimelineStore
from repro.workloads import streaming_employee_timeline


def _ranking(result):
    return [(s.summary.describe(), s.score) for s in result.summaries]


# a reduced search space keeps these end-to-end tests fast without changing
# any of the mechanisms under test
_FAST = dict(max_partitions=2, max_condition_attributes=2, top_k=5)


@pytest.fixture(scope="module")
def chain():
    """A 4-version streaming chain (3 hops; includes only bonus-touching hops)."""
    store, _ = streaming_employee_timeline(100, num_versions=4, seed=13)
    return store


class TestWarmEqualsCold:
    def test_timeline_rankings_match_cold_per_pair_runs(self, chain):
        config = CharlesConfig(**_FAST)
        cold = [
            _ranking(Charles(config).summarize_pair(pair, "bonus"))
            for _, _, pair in chain.consecutive_pairs()
        ]
        # partition_maintenance is retired: either value runs the same search,
        # and the retired patch counters stay readable at 0
        for maintenance in (True, False):
            session = EngineSession(config.replace(partition_maintenance=maintenance))
            warm = session.summarize_timeline(chain, "bonus")
            assert warm.rankings() == cold
            for stats in (hop.stats for hop in warm.hops if hop.stats):
                assert stats.partitions_patched == stats.partition_patch_fallbacks == 0
                assert stats.partitions_recomputed == stats.partition_cache_misses

    def test_equality_holds_with_tiny_cache_capacity(self, chain):
        # the capacity bounds the results store: one entry, so every hop's
        # result evicts the one before it
        config = CharlesConfig(search_cache_capacity=1, **_FAST)
        cold = [
            _ranking(Charles(config).summarize_pair(pair, "bonus"))
            for _, _, pair in chain.consecutive_pairs()
        ]
        session = EngineSession(config)
        warm = session.summarize_timeline(chain, "bonus")
        assert warm.rankings() == cold
        searched = sum(1 for hop in warm.hops if hop.stats.candidates_enumerated)
        assert searched > 1
        assert len(session.caches.results) == 1
        assert session.caches.results.counters().evictions == searched - 1

    def test_retired_warm_start_is_accepted_and_ignored(self, chain):
        config = CharlesConfig(**_FAST)
        cold = [
            _ranking(Charles(config).summarize_pair(pair, "bonus"))
            for _, _, pair in chain.consecutive_pairs()
        ]
        for warm_start in (True, False):
            session = EngineSession(config.replace(warm_start=warm_start))
            warm = session.summarize_timeline(chain, "bonus")
            assert warm.rankings() == cold
            assert session.warm_start_fallbacks == 0
        assert config.replace(warm_start=False).cache_fingerprint() == config.cache_fingerprint()


class TestCachePersistence:
    def test_requerying_the_same_pair_is_served_from_its_result_entry(self, chain):
        session = EngineSession(CharlesConfig(**_FAST))
        _, _, pair = chain.consecutive_pairs()[0]
        first = session.summarize_pair(pair, "bonus")
        before = session.cache_counters()
        second = session.summarize_pair(pair, "bonus")
        assert _ranking(first) == _ranking(second)
        assert second.total_candidates == first.total_candidates
        assert second.condition_attributes == first.condition_attributes
        # the re-query runs no search at all: not one memo lookup
        assert session.cache_counters() == before
        stats = second.search_stats
        assert stats.result_hits == 1 and first.search_stats.result_hits == 0
        assert stats.cache_lookups == stats.candidates_evaluated == 0
        # the memory layer counts the results store alone, not memo traffic
        assert stats.backend_counters == {"memory": BackendCounters(hits=1)}
        assert first.search_stats.backend_counters == {"memory": BackendCounters(misses=1)}

    def test_a_changed_shortlist_still_reuses_per_spec_entries(self, chain):
        config = CharlesConfig(**_FAST)
        session = EngineSession(config)
        _, _, pair = chain.consecutive_pairs()[0]
        first = session.summarize_pair(pair, "bonus")
        narrower = first.condition_attributes[:1]
        second = session.summarize_pair(
            pair,
            "bonus",
            condition_attributes=narrower,
            transformation_attributes=first.transformation_attributes,
        )
        stats = second.search_stats
        assert stats.result_hits == 0
        assert stats.cache_hits > 0
        cold = Charles(config).summarize_pair(
            pair,
            "bonus",
            condition_attributes=narrower,
            transformation_attributes=first.transformation_attributes,
        )
        assert _ranking(second) == _ranking(cold)
        assert cold.search_stats.cache_hits < stats.cache_hits

    def test_a_narrower_shortlist_runs_fewer_kmeans_fits(self, chain, monkeypatch):
        config = CharlesConfig(**_FAST)
        _, _, pair = chain.consecutive_pairs()[0]
        session = EngineSession(config)
        first = session.summarize_pair(pair, "bonus")
        narrower = dict(
            condition_attributes=first.condition_attributes[:1],
            transformation_attributes=first.transformation_attributes,
        )
        fits = []
        original = KMeans.fit

        def spy(self, points):
            fits.append(self.n_clusters)
            return original(self, points)

        monkeypatch.setattr(KMeans, "fit", spy)
        cold = Charles(config).summarize_pair(pair, "bonus", **narrower)
        cold_fits = len(fits)
        del fits[:]
        warm = session.summarize_pair(pair, "bonus", **narrower)
        assert cold_fits > 0 and len(fits) < cold_fits
        assert _ranking(warm) == _ranking(cold)

    def test_the_memo_holds_only_the_last_pairs_entries(self, chain):
        # per-spec keys rotate with every hop, so earlier pairs' entries are
        # dead weight: the session drops them when the pair changes
        config = CharlesConfig(**_FAST)
        pairs = [pair for _, _, pair in chain.consecutive_pairs()]
        session = EngineSession(config)
        for pair in pairs:
            session.summarize_pair(pair, "bonus")
        fresh = EngineSession(config)
        fresh.summarize_pair(pairs[-1], "bonus")
        assert len(session.caches.fits) == len(fresh.caches.fits) > 0
        assert len(session.caches.partitions) == len(fresh.caches.partitions) > 0

    def test_a_repeated_timeline_aggregates_its_result_hits(self, chain):
        session = EngineSession(CharlesConfig(**_FAST))
        first = session.summarize_timeline(chain, "bonus")
        again = session.summarize_timeline(chain, "bonus")
        assert again.rankings() == first.rankings()
        assert first.aggregate_stats.result_hits == 0
        aggregate = again.aggregate_stats
        assert aggregate.result_hits == len(again.hops) > 0
        assert aggregate.backend_counters["memory"].hits == len(again.hops)
        assert aggregate.cache_lookups == 0

    def test_session_counters_accumulate_across_runs(self, chain):
        session = EngineSession(CharlesConfig(**_FAST))
        for _, _, pair in chain.consecutive_pairs():
            session.summarize_pair(pair, "bonus")
        counters = session.cache_counters()
        assert counters.fit_hits > 0 and counters.partition_misses > 0
        assert session.runs_completed == len(chain) - 1


class TestPruningMatchesOneShot:
    """A session run prunes exactly what a fresh one-shot run prunes.

    The top-k floor belongs to one run's round loop and starts at ``-inf``,
    so nothing a session learned from earlier hops may change which specs
    are skipped; only cache hits may differ.
    """

    @pytest.mark.parametrize("config", [CharlesConfig(**_FAST), CharlesConfig(top_k=3)])
    def test_each_hop_prunes_like_a_fresh_run(self, chain, config):
        session = EngineSession(config)
        for _, _, pair in chain.consecutive_pairs():
            warm = session.summarize_pair(pair, "bonus").search_stats
            cold = Charles(config).summarize_pair(pair, "bonus").search_stats
            assert warm.candidates_pruned_spec_bounds == cold.candidates_pruned_spec_bounds
            assert warm.candidates_pruned_duplicates == cold.candidates_pruned_duplicates
            assert warm.candidates_evaluated == cold.candidates_evaluated
        assert session.runs_completed == len(chain) - 1


class TestDeltaShortCircuit:
    def test_untouched_hops_skip_the_search(self):
        store, policies = streaming_employee_timeline(80, num_versions=6, seed=13)
        # hop 4 of the policy sequence is the salary-only COLA: bonus untouched
        assert policies[3].target == "salary"
        session = EngineSession(CharlesConfig(**_FAST))
        result = session.summarize_timeline(store, "bonus")
        skipped = result.hops[3]
        assert skipped.delta.touches(["salary"])
        assert not skipped.delta.touches(["bonus"])
        assert skipped.stats.candidates_enumerated == 0
        assert skipped.result.best.summary.label == "no change detected"
        # the skipped hop's ranking still matches a cold run on the same pair
        cold = Charles(CharlesConfig(**_FAST)).summarize_pair(store.pair("v4", "v5"), "bonus")
        assert skipped.ranking() == _ranking(cold)

    def test_short_circuit_validates_target(self, chain):
        session = EngineSession()
        pair = chain.consecutive_pairs()[0][2]
        with pytest.raises(DiscoveryError, match="numeric"):
            session._unchanged_result(pair, "edu")


class TestFacadeIntegration:
    def test_charles_session_shares_config(self, chain):
        charles = Charles(CharlesConfig(top_k=5))
        session = charles.session()
        assert isinstance(session, EngineSession)
        assert session.config.top_k == 5

    def test_charles_summarize_timeline_matches_session(self, chain):
        config = CharlesConfig(**_FAST)
        via_facade = Charles(config).summarize_timeline(chain, "bonus")
        via_session = EngineSession(config).summarize_timeline(chain, "bonus")
        assert via_facade.rankings() == via_session.rankings()
        assert via_facade.target == "bonus"
        assert len(via_facade) == len(chain) - 1

    def test_timeline_result_describe_and_lookup(self, chain):
        result = EngineSession(CharlesConfig(**_FAST)).summarize_timeline(chain, "bonus")
        text = result.describe()
        assert "v1 -> v2" in text and "total:" in text
        hop = result.hop("v2", "v3")
        assert hop.source_version == "v2"
        with pytest.raises(Exception, match="no hop"):
            result.hop("v1", "v9")


class TestLifecycle:
    """close() releases caches exactly once; a closed session refuses work."""

    def test_close_is_idempotent(self, chain):
        session = EngineSession(CharlesConfig(**_FAST))
        session.summarize_pair(chain.consecutive_pairs()[0][2], "bonus")
        session.close()
        session.close()  # second close must be a no-op, not a double-release
        assert session.closed

    def test_use_after_close_raises(self, chain):
        from repro.exceptions import SessionClosedError

        session = EngineSession(CharlesConfig(**_FAST))
        session.close()
        pair = chain.consecutive_pairs()[0][2]
        with pytest.raises(SessionClosedError):
            session.summarize_pair(pair, "bonus")
        with pytest.raises(SessionClosedError):
            session.summarize_timeline(chain, "bonus")

    def test_touch_and_idle_clock(self, chain):
        import time as time_module

        session = EngineSession(CharlesConfig(**_FAST))
        assert session.idle_seconds >= 0.0
        time_module.sleep(0.02)
        before = session.idle_seconds
        session.touch()
        assert session.idle_seconds < before
        session.close()

    def test_queries_reset_the_idle_clock(self, chain):
        import time as time_module

        session = EngineSession(CharlesConfig(**_FAST))
        time_module.sleep(0.02)
        session.summarize_pair(chain.consecutive_pairs()[0][2], "bonus")
        assert session.idle_seconds < 0.02
        session.close()
