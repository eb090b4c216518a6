"""The sharded fabric: routing, replication, failover, prefetch — same results.

Topology is never allowed to show up in results: the standing invariant is
byte-identical rankings across in-process caches, a 1-shard fabric, an
N-shard replicated fabric, and an N-shard fabric with a member killed
mid-run.  Everything else here pins down the mechanics that make that cheap:
replica-set writes, read failover around the ring, per-shard degradation and
round-synchronised MGET prefetching.
"""

import os
import pickle

import pytest

from repro.cachestore import MISSING
from repro.cacheserver import AsyncCacheServer, ShardedRemoteBackend, ShardedRemoteHandle
from repro.cacheserver import protocol
from repro.core import Charles, CharlesConfig


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
        fabric.flush()  # publish and forget the search's view: the hit is remote
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
        writer.flush()
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
        # len() doubles as a write barrier: LEN answers arrive behind the
        # pipelined casts on each shard's connection, so the counts are final.
        # Physical occupancy doubles: owner + one successor per key.
        assert len(fabric) == 80
        assert sum(_entries(server) for server in fleet) == 80
        fabric.close()

    def test_shard_death_costs_zero_reuse_with_replication(self, fleet):
        fabric = _fabric(fleet, replication=2)
        for index in range(40):
            fabric.put(("k", index), index, cost_hint=0.01)
        fabric.flush()  # published; the reads below go to the fleet
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
        fabric.flush()
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


class TestPrefetch:
    def test_get_many_is_one_mget_per_shard(self, fleet):
        fabric = _fabric(fleet)
        keys = [("k", index) for index in range(42)]
        for key in keys:
            fabric.put(key, key[1])
        fabric.flush()
        before = fabric.round_trips
        assert fabric.get_many(keys) == [key[1] for key in keys]
        # 42 lookups cost at most one MGET per shard, not 42 round trips
        assert fabric.round_trips - before <= len(fleet)
        assert fabric.hits == 42
        fabric.close()

    def test_local_view_answers_until_flush(self, fleet):
        fabric = _fabric(fleet)
        fabric.put("k", 1)
        fabric.flush()
        fabric.prefetch(["k", "absent"])
        before = fabric.round_trips
        for _ in range(2):  # a prefetched hit and miss, asked twice
            assert fabric.get("k") == 1
            assert fabric.get("absent") is MISSING
        fabric.prefetch(["k"])  # already resolved: not asked again
        assert fabric.round_trips == before
        assert fabric.hits == 2 and fabric.misses == 2
        fabric.flush()  # the search ended: the next one asks the fleet
        assert fabric.get("k") == 1
        assert fabric.round_trips == before + 1
        fabric.close()

    def test_put_supersedes_buffered_answer(self, fleet):
        fabric = _fabric(fleet)
        fabric.put("k", 1)
        fabric.prefetch(["k"])
        fabric.put("k", 2)  # fresher than whatever prefetch buffered
        assert fabric.get("k") == 2
        fabric.close()

    def test_prefetch_mixes_hits_and_misses_accurately(self, fleet):
        fabric = _fabric(fleet)
        for index in range(0, 30, 2):
            fabric.put(("k", index), index)
        values = fabric.get_many([("k", index) for index in range(30)])
        for index, value in enumerate(values):
            assert value == (index if index % 2 == 0 else MISSING)
        assert fabric.hits == 15 and fabric.misses == 15
        fabric.close()

    def test_degraded_shard_fails_prefetch_over_to_replicas(self, fleet):
        fabric = _fabric(fleet, replication=2)
        keys = [("k", index) for index in range(40)]
        for key in keys:
            fabric.put(key, key[1])
        fabric.flush()
        fleet[0].shutdown()
        assert fabric.get_many(keys) == [key[1] for key in keys]
        assert fabric.hits == 40 and fabric.misses == 0
        assert fabric.failovers > 0
        fabric.close()

    def test_whole_fleet_down_prefetch_degrades_to_misses(self, fleet):
        fabric = _fabric(fleet, replication=2)
        for server in fleet:
            server.shutdown()
        assert fabric.get_many([("k", index) for index in range(10)]) == [MISSING] * 10
        assert fabric.misses == 10
        fabric.close()


class TestHandles:
    def test_handle_roundtrips_through_pickle(self, fleet):
        fabric = _fabric(fleet, replication=2, capacity=512)
        fabric.put("shared-key", [1, 2, 3])
        fabric.flush()
        handle = fabric.handle()
        assert isinstance(handle, ShardedRemoteHandle)
        attached = pickle.loads(pickle.dumps(handle)).attach()
        assert attached.get("shared-key") == [1, 2, 3]
        assert attached.replication == 2 and attached.capacity == 512
        assert attached.endpoints == fabric.endpoints
        # counters are per-instance, like every other attached backend
        assert attached.hits == 1 and fabric.hits == 0
        attached.close(), fabric.close()

    def test_regions_stay_distinct_across_the_fabric(self, fleet):
        namespace = os.urandom(8)
        fits = ShardedRemoteBackend(
            _url(fleet), protocol.REGION_FITS, namespace=namespace
        )
        partitions = ShardedRemoteBackend(
            _url(fleet), protocol.REGION_PARTITIONS, namespace=namespace
        )
        fits.put("k", "fits-value")
        fits.flush()
        assert partitions.get("k") is MISSING
        fits.close(), partitions.close()


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

    def test_puts_lost_with_a_killed_shard_are_counted(self, fig1_pair, monkeypatch):
        # write-behind can lose what a shard never received: the PUTs still
        # buffered for it when it dies.  Each is counted; rankings stand.
        from repro.cachestore.base import STORE_ERRORS

        memory = _ranking(_summarize(fig1_pair, CharlesConfig()))
        servers = [AsyncCacheServer().start() for _ in range(2)]
        victim = servers[0]
        put = ShardedRemoteBackend.put
        buffered_at_kill = []

        def put_then_kill(self, key, value, cost_hint=None):
            put(self, key, value, cost_hint)
            (client,) = [c for c in self._clients if c.url == victim.url]
            if not buffered_at_kill and client._conn is not None and client._conn._buffered:
                buffered_at_kill.append(client._conn._buffered)
                victim.shutdown()

        monkeypatch.setattr(ShardedRemoteBackend, "put", put_then_kill)
        try:
            config = CharlesConfig(
                cache_backend="remote",
                cache_url=",".join(server.url for server in servers),
            )
            before = STORE_ERRORS.value(backend="remote", op="put")
            result = _summarize(fig1_pair, config)
            lost = STORE_ERRORS.value(backend="remote", op="put") - before
            assert buffered_at_kill  # the shard died with PUTs buffered for it
            assert lost >= buffered_at_kill[0]
            assert _ranking(result) == memory
        finally:
            for server in servers:
                server.shutdown()

    def test_second_engine_runs_fully_warm_off_the_fabric(self, fig1_pair):
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
            stats = second.search_stats
            assert stats.fit_cache_misses == 0 and stats.partition_cache_misses == 0
        finally:
            for server in servers:
                server.shutdown()
