"""Tests for the warm engine session: cache reuse, warm floors, hard invariants."""

from __future__ import annotations

import pytest

from repro.core import Charles, CharlesConfig
from repro.exceptions import DiscoveryError
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
        config = CharlesConfig(search_cache_capacity=8, **_FAST)
        cold = [
            _ranking(Charles(config).summarize_pair(pair, "bonus"))
            for _, _, pair in chain.consecutive_pairs()
        ]
        session = EngineSession(config)
        warm = session.summarize_timeline(chain, "bonus")
        assert warm.rankings() == cold
        assert session.cache_counters().evictions > 0

    def test_equality_holds_without_warm_start(self, chain):
        config = CharlesConfig(warm_start=False, **_FAST)
        cold = [
            _ranking(Charles(config).summarize_pair(pair, "bonus"))
            for _, _, pair in chain.consecutive_pairs()
        ]
        session = EngineSession(config)
        warm = session.summarize_timeline(chain, "bonus")
        assert warm.rankings() == cold
        assert all(not hop.stats.warm_started for hop in warm.hops if hop.stats)


class TestCachePersistence:
    def test_requerying_the_same_pair_is_fully_cached(self, chain):
        session = EngineSession(CharlesConfig(**_FAST))
        _, _, pair = chain.consecutive_pairs()[0]
        first = session.summarize_pair(pair, "bonus")
        before = session.cache_counters()
        second = session.summarize_pair(pair, "bonus")
        after = session.cache_counters()
        assert _ranking(first) == _ranking(second)
        # the re-query recomputes nothing: every fit and partition discovery hits
        assert after.fit_misses == before.fit_misses
        assert after.partition_misses == before.partition_misses
        assert after.fit_hits > before.fit_hits

    def test_session_counters_accumulate_across_runs(self, chain):
        session = EngineSession(CharlesConfig(**_FAST))
        for _, _, pair in chain.consecutive_pairs():
            session.summarize_pair(pair, "bonus")
        counters = session.cache_counters()
        assert counters.fit_hits > 0 and counters.partition_misses > 0
        assert session.runs_completed == len(chain) - 1


class TestWarmStartFloors:
    def test_floor_is_seeded_from_previous_run(self, chain):
        session = EngineSession(CharlesConfig(**_FAST))
        hops = chain.consecutive_pairs()
        assert session.warm_floor("bonus") is None
        first = session.summarize_pair(hops[0][2], "bonus")
        config = session.config
        expected = first.summaries[config.top_k - 1].score - config.warm_start_margin
        assert session.warm_floor("bonus") == pytest.approx(expected)
        second = session.summarize_pair(hops[1][2], "bonus")
        assert second.search_stats.warm_started

    def test_fallback_restores_cold_ranking_when_floor_overshoots(self, chain):
        # an absurd margin of 0 with a manually inflated floor must trigger the
        # verify-or-fallback path and still return the cold ranking
        config = CharlesConfig(warm_start_margin=0.0, **_FAST)
        session = EngineSession(config)
        hops = chain.consecutive_pairs()
        session.summarize_pair(hops[0][2], "bonus")
        session._floors["bonus"] = 0.999  # force an unbeatable seed
        result = session.summarize_pair(hops[1][2], "bonus")
        cold = Charles(config).summarize_pair(hops[1][2], "bonus")
        assert _ranking(result) == _ranking(cold)
        assert session.warm_start_fallbacks == 1
        assert result.search_stats.warm_start_fallback

    def test_no_seed_when_pruning_disabled(self, chain):
        session = EngineSession(CharlesConfig(prune_search=False, **_FAST))
        hops = chain.consecutive_pairs()
        session.summarize_pair(hops[0][2], "bonus")
        assert session.warm_floor("bonus") is None


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
