"""The cache service changes where entries live, never what a search returns.

The hard invariants of the subsystem, end to end through real engines:
rankings with a remote store are byte-identical to in-process rankings —
including when a request is served from another engine's result entry, when
several engine processes race on one server, and when the server is killed
mid-session (degrade to miss, never to a wrong result).
"""

import multiprocessing

import pytest

from repro.cachestore import BackendCounters
from repro.core import Charles, CharlesConfig
from repro.cacheserver import AsyncCacheServer, server_stats
from repro.timeline import EngineSession

_FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()


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


def _summarize(pair, config):
    return Charles(config).summarize_pair(
        pair,
        "bonus",
        condition_attributes=["edu", "exp"],
        transformation_attributes=["bonus", "salary"],
    )


@pytest.fixture(scope="module")
def server():
    with AsyncCacheServer() as running:
        yield running


@pytest.fixture(scope="module")
def memory_ranking(fig1_pair):
    return _ranking(_summarize(fig1_pair, CharlesConfig()))


class TestRankingsAgainstServer:
    def test_remote_backend_identical(self, fig1_pair, memory_ranking, server):
        config = CharlesConfig(cache_backend="remote", cache_url=server.url)
        result = _summarize(fig1_pair, config)
        assert _ranking(result) == memory_ranking
        stats = result.search_stats
        assert stats.cache_backend == "remote"
        # a one-shot run honours the remote backend (the store outlives the
        # run and serves the fleet), unlike the nothing-to-share shared kind
        assert stats.cache_backend_requested is None

    def test_remote_layer_reports_round_trips(self, fig1_pair, server):
        config = CharlesConfig(cache_backend="remote", cache_url=server.url)
        stats = _summarize(fig1_pair, config).search_stats
        remote = stats.backend_counters["remote"]
        # the fabric sees one lookup per request: the result entry's; a miss
        # adds the PUT that stores it
        assert remote.lookups == 1
        assert remote.round_trips == (1 if remote.hits else 2)
        payload = stats.as_dict()
        assert payload["backend_counters"]["remote"]["round_trips"] > 0
        assert payload["backend_counters"]["remote"]["failovers"] == 0

    def test_second_engine_is_fully_warm_off_the_server(self, fig1_pair, memory_ranking, server):
        config = CharlesConfig(cache_backend="remote", cache_url=server.url)
        first = _summarize(fig1_pair, config)
        # a brand-new engine (fresh caches object, fresh connection) is served
        # the whole ranking from the result entry the first engine published
        second = _summarize(fig1_pair, config)
        assert _ranking(second) == _ranking(first) == memory_ranking
        stats = second.search_stats
        assert stats.result_hits == 1
        assert stats.cache_lookups == stats.candidates_evaluated == 0

    def test_engine_session_over_remote(self, fig1_pair, memory_ranking, server):
        config = CharlesConfig(cache_backend="remote", cache_url=server.url)
        with EngineSession(config) as session:
            result = session.summarize_pair(
                fig1_pair,
                "bonus",
                condition_attributes=["edu", "exp"],
                transformation_attributes=["bonus", "salary"],
            )
        assert _ranking(result) == memory_ranking

    def test_namespacing_keeps_reconfigured_runs_cold(self, fig1_pair, server):
        config = CharlesConfig(cache_backend="remote", cache_url=server.url)
        _summarize(fig1_pair, config)
        # a different seed changes k-means outcomes without changing content
        # keys — the reconfigured run must recompute, not reuse seed-0 entries
        stats = _summarize(fig1_pair, config.replace(seed=123)).search_stats
        assert stats.result_hits == 0
        assert stats.fit_cache_misses > 0 and stats.partition_cache_misses > 0
        # so must a different shortlist
        narrower = Charles(config).summarize_pair(
            fig1_pair,
            "bonus",
            condition_attributes=["edu"],
            transformation_attributes=["bonus", "salary"],
        )
        assert narrower.search_stats.result_hits == 0
        warm = _summarize(fig1_pair, config).search_stats
        assert warm.result_hits == 1

    def test_server_holds_result_entries_only(self, fig1_pair, server):
        config = CharlesConfig(cache_backend="remote", cache_url=server.url)
        _summarize(fig1_pair, config)
        regions = server_stats(server.url)["regions"]
        assert regions["results"]["entries"] > 0
        # per-spec memo entries stay in the engine's process
        assert regions["fits"]["entries"] == regions["partitions"]["entries"] == 0


def _fleet_engine(url, barrier, queue):
    """One fleet member: summarize against the shared server (child process)."""
    from repro.workloads import example_pair

    pair = example_pair()
    config = CharlesConfig(cache_backend="remote", cache_url=url)
    barrier.wait(timeout=30)  # genuinely concurrent, not accidentally serial
    result = _summarize(pair, config)
    queue.put((_ranking(result), result.search_stats.result_hits))


@pytest.mark.skipif(not _FORK_AVAILABLE, reason="needs the fork start method")
class TestFleetProcesses:
    def test_two_concurrent_engine_processes_identical_rankings(
        self, fig1_pair, memory_ranking
    ):
        # separate *processes* (the acceptance shape): no Python state shared
        # with this test, every reused entry travelled through the server
        context = multiprocessing.get_context("fork")
        with AsyncCacheServer() as private:
            queue = context.Queue()
            barrier = context.Barrier(2)
            engines = [
                context.Process(target=_fleet_engine, args=(private.url, barrier, queue))
                for _ in range(2)
            ]
            for engine in engines:
                engine.start()
            results = [queue.get(timeout=120) for _ in engines]
            for engine in engines:
                engine.join(timeout=30)
                assert engine.exitcode == 0
        for ranking, _ in results:
            assert ranking == memory_ranking

    def test_second_fleet_member_starts_warm(self, memory_ranking):
        context = multiprocessing.get_context("fork")
        with AsyncCacheServer() as private:
            rankings = []
            for expected_cold in (True, False):
                queue = context.Queue()
                barrier = context.Barrier(1)
                engine = context.Process(
                    target=_fleet_engine, args=(private.url, barrier, queue)
                )
                engine.start()
                ranking, result_hits = queue.get(timeout=120)
                engine.join(timeout=30)
                assert engine.exitcode == 0
                rankings.append(ranking)
                # the second member is served the first member's result entry
                assert result_hits == (0 if expected_cold else 1)
        assert rankings[0] == rankings[1] == memory_ranking


class TestServerOutage:
    def test_mid_session_server_kill_degrades_to_identical_results(
        self, fig1_pair, memory_ranking
    ):
        private = AsyncCacheServer().start()
        config = CharlesConfig(cache_backend="remote", cache_url=private.url)
        with EngineSession(config.replace(warm_start=False)) as session:
            kwargs = dict(
                condition_attributes=["edu", "exp"],
                transformation_attributes=["bonus", "salary"],
            )
            alive = session.summarize_pair(fig1_pair, "bonus", **kwargs)
            assert _ranking(alive) == memory_ranking
            private.shutdown()  # the fleet cache dies mid-session
            dead = session.summarize_pair(fig1_pair, "bonus", **kwargs)
            # the result lookup degraded to a miss — and the ranking is
            # *still* byte-identical, the outage cost a search only
            assert _ranking(dead) == memory_ranking
            stats = dead.search_stats
            assert stats.result_hits == 0
            assert stats.backend_counters["remote"] == BackendCounters(misses=1)
            # the session's per-spec entries live in its process, so the
            # repeated search still reuses every one of them
            assert stats.fit_cache_misses == stats.partition_cache_misses == 0

    def test_engine_boots_and_runs_with_no_server_at_all(self, fig1_pair, memory_ranking):
        config = CharlesConfig(cache_backend="remote", cache_url="127.0.0.1:9")
        result = _summarize(fig1_pair, config)
        assert _ranking(result) == memory_ranking
        stats = result.search_stats
        cold = _summarize(fig1_pair, CharlesConfig()).search_stats
        assert stats.backend_counters["remote"] == BackendCounters(misses=1)
        assert stats.cache_hits == cold.cache_hits


class TestConfigValidation:
    def test_remote_requires_cache_url(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            CharlesConfig(cache_backend="remote")

    def test_cache_url_is_execution_neutral(self):
        base = CharlesConfig()
        pointed = base.replace(cache_backend="remote", cache_url="cache.internal:8737")
        # where entries live never affects results, so the fingerprint — and
        # with it every persistent namespace — must not rotate
        assert pointed.cache_fingerprint() == base.cache_fingerprint()
