"""The sharded fabric: routing, replication, failover — same results.

Topology is never allowed to show up in results: the standing invariant is
byte-identical rankings across in-process caches, a 1-shard fabric, an
N-shard replicated fabric, and an N-shard fabric with a member killed
mid-run.  Everything else here pins down the mechanics: replica-set writes
cast before they are collected, read failover around the ring, per-shard
degradation, and the one lookup plus R writes a search costs the fabric.
"""

import os

import pytest

from repro.cachestore import MISSING, BackendCounters
from repro.cachestore.base import STORE_ERRORS
from repro.cacheserver import AsyncCacheServer, ShardedRemoteBackend
from repro.core import Charles, CharlesConfig
from repro.search.evaluator import CandidateEvaluator
from repro.timeline import EngineSession


@pytest.fixture()
def fleet():
    """Three live cache servers and their comma-separated fabric URL."""
    servers = [AsyncCacheServer().start() for _ in range(3)]
    try:
        yield servers
    finally:
        for server in servers:
            server.shutdown()


def _url(servers) -> str:
    return ",".join(server.url for server in servers)


def _fabric(servers, **kwargs) -> ShardedRemoteBackend:
    kwargs.setdefault("namespace", os.urandom(8))
    return ShardedRemoteBackend(_url(servers), **kwargs)


def _entries(server) -> int:
    from repro.cacheserver import server_stats

    regions = server_stats(server.url)["regions"]
    return sum(region["entries"] for region in regions.values())


class TestSharding:
    def test_roundtrip_and_counters(self, fleet):
        fabric = _fabric(fleet)
        key = ("fit", "bonus", ("salary",), b"token")
        assert fabric.get(key) is MISSING
        fabric.put(key, {"value": 42}, cost_hint=0.01)
        assert fabric.get(key) == {"value": 42}
        assert fabric.hits == 1 and fabric.misses == 1
        fabric.close()

    def test_entries_spread_across_every_shard(self, fleet):
        fabric = _fabric(fleet)
        for index in range(60):
            fabric.put(("k", index), index)
        assert len(fabric) == 60  # replication=1: one physical copy per key
        per_shard = [_entries(server) for server in fleet]
        assert sum(per_shard) == 60
        assert all(count > 0 for count in per_shard)  # no shard starved
        fabric.close()

    def test_clear_drops_every_shard(self, fleet):
        fabric = _fabric(fleet)
        for index in range(30):
            fabric.put(("k", index), index)
        fabric.clear()
        assert len(fabric) == 0
        assert all(_entries(server) == 0 for server in fleet)
        fabric.close()

    def test_single_endpoint_fabric_behaves_like_pr4_client(self, fleet):
        fabric = ShardedRemoteBackend(fleet[0].url, namespace=os.urandom(8))
        assert fabric.get("k") is MISSING
        fabric.put("k", 1)
        assert fabric.get("k") == 1
        assert fabric.round_trips == 3  # miss, put, hit — one wire op each
        assert fabric.endpoints == (fleet[0].url,)
        fabric.close()

    def test_fabrics_agree_on_placement(self, fleet):
        # two engines with their own fabric instances serve each other's keys
        writer = _fabric(fleet)
        reader = ShardedRemoteBackend(_url(fleet), namespace=writer.namespace)
        for index in range(20):
            writer.put(("k", index), index)
        assert [reader.get(("k", index)) for index in range(20)] == list(range(20))
        writer.close(), reader.close()

    def test_breakdown_reports_per_endpoint_components(self, fleet):
        fabric = _fabric(fleet)
        for index in range(12):
            fabric.put(("k", index), index)
            fabric.get(("k", index))
        layers = fabric.breakdown()
        components = {name for name in layers if name.startswith("remote[")}
        assert components == {f"remote[{server.url}]" for server in fleet}
        assert sum(layers[name].round_trips for name in components) == (
            layers["remote"].round_trips
        )
        fabric.close()

    def test_replication_validation(self, fleet):
        with pytest.raises(ValueError):
            ShardedRemoteBackend(_url(fleet), replication=0)
        clamped = ShardedRemoteBackend(_url(fleet), replication=99)
        assert clamped.replication == 3  # clamped to the fleet size
        clamped.close()


class TestReplicationAndFailover:
    def test_replicated_put_lands_on_replica_set(self, fleet):
        fabric = _fabric(fleet, replication=2)
        for index in range(40):
            fabric.put(("k", index), index)
        # every put returned acknowledged, so the counts are final.
        # Physical occupancy doubles: owner + one successor per key.
        assert len(fabric) == 80
        assert sum(_entries(server) for server in fleet) == 80
        fabric.close()

    def test_shard_death_costs_zero_reuse_with_replication(self, fleet):
        fabric = _fabric(fleet, replication=2)
        for index in range(40):
            fabric.put(("k", index), index, cost_hint=0.01)
        fleet[0].shutdown()  # kill one member mid-conversation
        values = [fabric.get(("k", index)) for index in range(40)]
        assert values == list(range(40))  # every key still served
        assert fabric.hits == 40 and fabric.misses == 0
        assert fabric.failovers > 0  # dead-owner keys came off successors
        assert fabric.connection_failures >= 1
        fabric.close()

    def test_shard_death_without_replication_degrades_only_its_keys(self, fleet):
        fabric = _fabric(fleet, replication=1)
        for index in range(40):
            fabric.put(("k", index), index)
        fleet[0].shutdown()
        values = [fabric.get(("k", index)) for index in range(40)]
        missed = [index for index, value in enumerate(values) if value is MISSING]
        assert 0 < len(missed) < 40  # the dead shard's keys — and only those
        assert fabric.failovers == 0  # nowhere to fail over at R=1
        for index, value in enumerate(values):
            if index not in missed:
                assert value == index
        fabric.close()

    def test_owner_miss_is_authoritative(self, fleet):
        # a healthy owner answering MISS must not trigger replica reads:
        # replication is for availability, not for second opinions
        fabric = _fabric(fleet, replication=3)
        before = fabric.round_trips
        assert fabric.get("never-written") is MISSING
        assert fabric.round_trips == before + 1
        assert fabric.failovers == 0
        fabric.close()


    def test_a_put_is_cast_to_every_replica_before_any_answer_is_collected(self, fleet):
        fabric = _fabric(fleet, replication=3)
        calls = []
        for client in fabric._clients:
            for name in ("submit", "collect"):
                original = getattr(client, name)

                def record(*args, _name=name, _original=original):
                    calls.append(_name)
                    return _original(*args)

                setattr(client, name, record)
        fabric.put("k", 1)
        assert calls == ["submit"] * 3 + ["collect"] * 3
        assert fabric.round_trips == 3
        assert len(fabric) == 3  # stored on all three before put returned
        fabric.close()


class TestGetMany:
    def test_get_many_mixes_hits_and_misses_accurately(self, fleet):
        fabric = _fabric(fleet)
        for index in range(0, 30, 2):
            fabric.put(("k", index), index)
        values = fabric.get_many([("k", index) for index in range(30)])
        for index, value in enumerate(values):
            assert value == (index if index % 2 == 0 else MISSING)
        assert fabric.hits == 15 and fabric.misses == 15
        fabric.close()

    def test_prefetch_sends_nothing(self, fleet):
        fabric = _fabric(fleet)
        fabric.prefetch([("k", index) for index in range(10)])
        assert fabric.round_trips == 0 and fabric.hits == fabric.misses == 0
        fabric.close()

    def test_whole_fleet_down_degrades_to_misses(self, fleet):
        fabric = _fabric(fleet, replication=2)
        for server in fleet:
            server.shutdown()
        assert fabric.get_many([("k", index) for index in range(10)]) == [MISSING] * 10
        assert fabric.misses == 10
        fabric.close()


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


def _summarize(pair, config):
    return Charles(config).summarize_pair(
        pair,
        "bonus",
        condition_attributes=["edu", "exp"],
        transformation_attributes=["bonus", "salary"],
    )


class TestTopologyNeverChangesResults:
    """The acceptance invariant: rankings are byte-identical per topology."""

    def test_rankings_identical_across_every_topology(self, fig1_pair):
        memory = _ranking(_summarize(fig1_pair, CharlesConfig()))

        servers = [AsyncCacheServer().start() for _ in range(3)]
        try:
            one_shard = CharlesConfig(
                cache_backend="remote", cache_url=servers[0].url
            )
            assert _ranking(_summarize(fig1_pair, one_shard)) == memory

            sharded = CharlesConfig(
                cache_backend="remote",
                cache_url=",".join(server.url for server in servers),
                cache_replication=2,
            )
            warm = _summarize(fig1_pair, sharded)
            assert _ranking(warm) == memory
            stats = warm.search_stats
            assert stats.cache_backend == "remote"
            assert stats.backend_counters["remote"].round_trips > 0

            servers[1].shutdown()  # a fleet member dies between runs
            degraded = _summarize(fig1_pair, sharded)
            assert _ranking(degraded) == memory
        finally:
            for server in servers:
                server.shutdown()

    def test_sharded_stats_expose_per_endpoint_layers(self, fig1_pair):
        servers = [AsyncCacheServer().start() for _ in range(2)]
        try:
            config = CharlesConfig(
                cache_backend="remote",
                cache_url=",".join(server.url for server in servers),
            )
            stats = _summarize(fig1_pair, config).search_stats
            layers = set(stats.backend_counters)
            assert "remote" in layers
            assert {f"remote[{server.url}]" for server in servers} <= layers
            payload = stats.as_dict()["backend_counters"]
            assert all("failovers" in counters for counters in payload.values())
        finally:
            for server in servers:
                server.shutdown()

    def test_a_put_to_a_dead_replica_is_counted(self, fig1_pair):
        memory = _ranking(_summarize(fig1_pair, CharlesConfig()))
        servers = [AsyncCacheServer().start() for _ in range(2)]
        try:
            config = CharlesConfig(
                cache_backend="remote",
                cache_url=",".join(server.url for server in servers),
                cache_replication=2,
            )
            servers[0].shutdown()
            before = STORE_ERRORS.value(backend="remote", op="put")
            result = _summarize(fig1_pair, config)
            assert STORE_ERRORS.value(backend="remote", op="put") - before == 1
            assert _ranking(result) == memory
            # the surviving replica holds the entry: the repeat is served
            assert _summarize(fig1_pair, config).search_stats.result_hits == 1
        finally:
            for server in servers:
                server.shutdown()

    def test_a_shard_killed_mid_run_degrades_to_recomputation(self, fig1_pair, monkeypatch):
        memory = _ranking(_summarize(fig1_pair, CharlesConfig()))
        servers = [AsyncCacheServer().start() for _ in range(2)]
        evaluate = CandidateEvaluator.evaluate

        def evaluate_then_kill(self, spec, known_signatures=frozenset()):
            for server in servers:
                server.shutdown()  # idempotent; the search is under way
            return evaluate(self, spec, known_signatures)

        try:
            config = CharlesConfig(
                cache_backend="remote",
                cache_url=",".join(server.url for server in servers),
            )
            with monkeypatch.context() as patch:
                patch.setattr(CandidateEvaluator, "evaluate", evaluate_then_kill)
                killed = _summarize(fig1_pair, config)
            assert _ranking(killed) == memory
            # nothing was stored, so the next engine recomputes, identically
            again = _summarize(fig1_pair, config)
            assert again.search_stats.result_hits == 0
            assert again.search_stats.candidates_evaluated > 0
            assert _ranking(again) == memory
        finally:
            for server in servers:
                server.shutdown()

    def test_a_search_costs_one_get_and_r_puts_then_one_get(self, fig1_pair):
        servers = [AsyncCacheServer().start() for _ in range(2)]
        try:
            config = CharlesConfig(
                cache_backend="remote",
                cache_url=",".join(server.url for server in servers),
                cache_replication=2,
            )
            with EngineSession(config) as session:
                first = session.summarize_pair(
                    fig1_pair, "bonus", **_SHORTLISTS
                ).search_stats
                second = session.summarize_pair(
                    fig1_pair, "bonus", **_SHORTLISTS
                ).search_stats
            # a miss: one GET, then the PUT to both replicas
            assert first.backend_counters["remote"] == BackendCounters(
                misses=1, round_trips=3
            )
            # a repeat: one GET, answered by the owner
            assert second.backend_counters["remote"] == BackendCounters(
                hits=1, round_trips=1
            )
            assert second.result_hits == 1 and second.cache_lookups == 0
            served = [_verb_counts(server.url) for server in servers]
            assert sum(counts.get("GET", 0) for counts in served) == 2
            assert [counts.get("PUT", 0) for counts in served] == [1, 1]
        finally:
            for server in servers:
                server.shutdown()

    def test_second_engine_is_served_from_the_result_entry(self, fig1_pair):
        servers = [AsyncCacheServer().start() for _ in range(3)]
        try:
            config = CharlesConfig(
                cache_backend="remote",
                cache_url=",".join(server.url for server in servers),
                cache_replication=2,
            )
            first = _summarize(fig1_pair, config)
            second = _summarize(fig1_pair, config)
            assert _ranking(first) == _ranking(second)
            assert second.total_candidates == first.total_candidates
            stats = second.search_stats
            assert stats.result_hits == 1
            assert stats.cache_lookups == stats.candidates_evaluated == 0
        finally:
            for server in servers:
                server.shutdown()


_SHORTLISTS = dict(
    condition_attributes=["edu", "exp"], transformation_attributes=["bonus", "salary"]
)


def _verb_counts(url: str) -> dict[str, float]:
    """Requests a shard handled, by verb (its ``METRICS`` exposition)."""
    from repro.cacheserver import server_metrics
    from repro.obs.metrics import parse_prometheus

    metrics = parse_prometheus(server_metrics(url))
    prefix = 'cacheserver_requests_total{verb="'
    return {
        name[len(prefix) : -2]: value
        for name, value in metrics.items()
        if name.startswith(prefix)
    }
