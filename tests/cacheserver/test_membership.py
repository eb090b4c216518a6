"""Elastic ring membership: JOIN/LEAVE/TOPOLOGY, warm-up, epoch propagation.

The acceptance invariant stays what it always was — topology never shows up
in results: rankings are byte-identical whether the fleet is static, grows a
member mid-search, or loses one.  On top of that this file pins the elastic
mechanics: a joining shard warms itself from its ring predecessors
(``HANDOFF``), every response carries the topology epoch once one is
configured, and a running fabric follows the newest epoch by refreshing its
ring incrementally — reusing surviving shard clients and moving only the
changed endpoints' arcs.
"""

import os
import threading
import time

import pytest

from repro.cachestore import MISSING
from repro.cacheserver import (
    AsyncCacheServer,
    HashRing,
    ShardedRemoteBackend,
    fleet_join,
    fleet_leave,
    server_metrics,
    server_stats,
    server_topology,
)
from repro.cacheserver import protocol
from repro.core import Charles, CharlesConfig
from repro.exceptions import CacheStoreError
from repro.obs.metrics import parse_prometheus


def _fabric(urls, **kwargs) -> ShardedRemoteBackend:
    kwargs.setdefault("namespace", os.urandom(8))
    return ShardedRemoteBackend(",".join(urls), **kwargs)


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


class TestRingIncrementalUpdates:
    def test_add_matches_a_fresh_ring(self):
        urls = ["h1:1", "h2:2", "h3:3"]
        grown = HashRing(urls[:2])
        grown.add(urls[2])
        fresh = HashRing(urls)
        assert grown.endpoints == fresh.endpoints
        assert grown._points == fresh._points
        assert grown._owners == fresh._owners

    def test_remove_matches_a_fresh_ring(self):
        urls = ["h1:1", "h2:2", "h3:3"]
        shrunk = HashRing(urls)
        shrunk.remove("h2:2")
        fresh = HashRing(["h1:1", "h3:3"])
        assert shrunk.endpoints == fresh.endpoints
        assert shrunk._points == fresh._points
        assert shrunk._owners == fresh._owners

    def test_join_moves_only_keys_the_newcomer_owns(self):
        ring = HashRing(["h1:1", "h2:2", "h3:3"])
        digests = [os.urandom(16) for _ in range(500)]
        before = {d: ring.endpoints[ring.owner(d)] for d in digests}
        ring.add("h4:4")
        moved = 0
        for digest in digests:
            owner = ring.endpoints[ring.owner(digest)]
            if owner != before[digest]:
                assert owner == "h4:4"  # movement only *onto* the newcomer
                moved += 1
        assert 0 < moved < len(digests) // 2  # ~1/4 of the space, not a reshuffle

    def test_leave_moves_keys_onto_the_old_first_successor(self):
        # the minimal-movement property replication leans on: a departed
        # key's new owner is exactly the failover rung readers already tried
        ring = HashRing(["h1:1", "h2:2", "h3:3"])
        digests = [os.urandom(16) for _ in range(500)]
        expectations = {}
        for digest in digests:
            preference = ring.preference(digest, 2)
            expectations[digest] = [ring.endpoints[i] for i in preference]
        ring.remove("h2:2")
        for digest in digests:
            owner_before, successor = expectations[digest]
            owner_after = ring.endpoints[ring.owner(digest)]
            if owner_before == "h2:2":
                assert owner_after == successor
            else:
                assert owner_after == owner_before

    def test_guards(self):
        ring = HashRing(["h1:1"])
        with pytest.raises(CacheStoreError):
            ring.add("h1:1")
        with pytest.raises(CacheStoreError):
            ring.remove("h9:9")
        with pytest.raises(CacheStoreError):
            ring.remove("h1:1")  # never empty the ring


class TestEpochOnTheWire:
    def test_attach_and_decode_roundtrip(self):
        body = protocol.encode_response(protocol.HIT, b"value")
        assert protocol.attach_epoch(body, 0) == body  # epoch 0: wire unchanged
        stamped = protocol.attach_epoch(body, 7)
        assert stamped != body
        status, payload, epoch = protocol.decode_response_full(stamped)
        assert (status, payload, epoch) == (protocol.HIT, b"value", 7)
        # epoch-unaware readers see the same response, flag stripped
        assert protocol.decode_response(stamped) == (protocol.HIT, b"value")

    def test_truncated_epoch_header_is_a_protocol_error(self):
        stamped = protocol.attach_epoch(protocol.encode_response(protocol.OK), 3)
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_response_full(stamped[:3])

    def test_entry_packing_roundtrip_and_truncation(self):
        entries = [
            (os.urandom(protocol.DIGEST_SIZE), 1.5, b"abc"),
            (os.urandom(protocol.DIGEST_SIZE), 0.0, b""),
        ]
        packed = protocol.pack_entries(entries)
        assert protocol.unpack_entries(packed) == entries
        with pytest.raises(protocol.ProtocolError):
            protocol.unpack_entries(packed[:-1])
        with pytest.raises(protocol.ProtocolError):
            protocol.unpack_entries(packed + b"x")


@pytest.fixture()
def pair():
    with AsyncCacheServer() as first, AsyncCacheServer() as second:
        yield first, second


class TestMembershipVerbs:
    def test_join_broadcast_reaches_every_member(self, pair):
        first, second = pair
        outcome = fleet_join([first.url], second.url)
        assert outcome["epoch"] == 1
        assert outcome["endpoints"] == [first.url, second.url]
        for server in pair:
            view = server_topology(server.url)
            assert view["epoch"] == 1
            assert view["endpoints"] == [first.url, second.url]

    def test_stale_epoch_is_ignored(self, pair):
        first, second = pair
        fleet_join([first.url], second.url)  # epoch 1
        fleet_join([first.url], second.url)  # epoch 2 (idempotent re-run)
        assert server_topology(first.url)["epoch"] == 2
        # a replayed older broadcast must not win
        import json as json_module
        import socket as socket_module

        stale = json_module.dumps(
            {"epoch": 1, "endpoints": [first.url], "subject": first.url}
        ).encode("utf-8")
        with socket_module.create_connection(first.address, timeout=5) as sock:
            protocol.send_message(
                sock,
                0,
                protocol.encode_request(
                    protocol.JOIN, protocol.REGION_ALL, payload=stale
                ),
            )
            _, body = protocol.recv_message(sock)
        status, payload, epoch = protocol.decode_response_full(body)
        assert status == protocol.OK and epoch == 2
        assert b'"adopted": false' in payload
        assert server_topology(first.url)["epoch"] == 2

    def test_malformed_membership_payloads_are_errors(self, pair):
        first, _ = pair
        import socket as socket_module

        for payload in (b"not json", b"[]", b'{"epoch": 0, "endpoints": ["a:1"], "subject": "a:1"}'):
            with socket_module.create_connection(first.address, timeout=5) as sock:
                protocol.send_message(
                    sock,
                    0,
                    protocol.encode_request(
                        protocol.JOIN, protocol.REGION_ALL, payload=payload
                    ),
                )
                _, body = protocol.recv_message(sock)
            assert protocol.decode_response(body)[0] == protocol.ERROR

    def test_fleet_leave_guards(self, pair):
        first, second = pair
        with pytest.raises(CacheStoreError):
            fleet_leave([first.url], first.url)  # never empty the fleet
        with pytest.raises(CacheStoreError):
            fleet_leave([first.url], second.url)  # not a member


class TestJoinWarmsFromPredecessors:
    def test_newcomer_holds_exactly_the_entries_it_now_owns(self):
        with AsyncCacheServer() as a, AsyncCacheServer() as b, AsyncCacheServer() as c:
            fabric = _fabric([a.url, b.url])
            for index in range(150):
                fabric.put(("k", index), index, cost_hint=0.5)
            outcome = fleet_join([a.url, b.url], c.url)
            ring = HashRing((a.url, b.url, c.url))
            owned = 0
            for donor in (a, b):
                for region in donor._regions.values():
                    owned += sum(
                        1 for digest in region._entries if ring.owner(digest) == 2
                    )
            assert outcome["warmed"] == owned > 0
            assert c.warmed_entries == owned
            # warmed entries answer reads directly off the newcomer
            entries = server_stats(c.url)["regions"]["fits"]["entries"]
            assert entries == owned
            fabric.close()

    def test_join_never_loses_an_entry(self):
        with AsyncCacheServer() as a, AsyncCacheServer() as b, AsyncCacheServer() as c:
            fabric = _fabric([a.url, b.url], replication=2)
            for index in range(100):
                fabric.put(("k", index), index * 3, cost_hint=0.5)
            fleet_join([a.url, b.url], c.url)
            # the fabric notices the epoch on its next operations and
            # re-routes under the 3-member ring; every key still resolves
            values = [fabric.get(("k", index)) for index in range(100)]
            assert values == [index * 3 for index in range(100)]
            assert len(fabric.endpoints) == 3
            assert fabric._seen_epoch == 1
            fabric.close()

    def test_leave_fails_over_like_a_shard_death(self):
        with AsyncCacheServer() as a, AsyncCacheServer() as b, AsyncCacheServer() as c:
            urls = [a.url, b.url, c.url]
            fleet_join(urls[:2], c.url)  # establish an elastic 3-fleet
            fabric = _fabric(urls, replication=2)
            for index in range(100):
                fabric.put(("k", index), index, cost_hint=0.5)
            fleet_leave(urls, b.url)
            values = [fabric.get(("k", index)) for index in range(100)]
            # replication 2 under the write-time topology means the departed
            # member's keys live on their old first successor — the new owner
            assert values == list(range(100))
            assert len(fabric.endpoints) == 2
            assert b.url not in fabric.endpoints
            fabric.close()


def _propose(server, proposal: dict) -> dict:
    """Send one JOIN proposal straight to ``server``; returns its JSON answer."""
    import json as json_module
    import socket as socket_module

    body = protocol.encode_request(
        protocol.JOIN, protocol.REGION_ALL, payload=json_module.dumps(proposal).encode("utf-8")
    )
    with socket_module.create_connection(server.address, timeout=10) as sock:
        protocol.send_message(sock, 0, body)
        _, response = protocol.recv_message(sock)
    status, payload = protocol.decode_response(response)
    assert status == protocol.OK, payload
    return json_module.loads(payload.decode("utf-8"))


class TestWarmUpFailuresAreCounted:
    def test_join_with_a_dead_donor_warms_from_the_live_one(self):
        dead = "127.0.0.1:9"  # the discard port: nothing listens there
        with AsyncCacheServer() as live, AsyncCacheServer() as joiner:
            fabric = _fabric([live.url])
            for index in range(100):
                fabric.put(("k", index), index, cost_hint=0.5)
            len(fabric)  # write barrier: LEN answers behind the pipelined casts
            fabric.close()
            endpoints = [dead, live.url, joiner.url]
            proposal = {"epoch": 1, "endpoints": endpoints, "subject": joiner.url}
            # the live donor learns the new ring first, so it can answer HANDOFF;
            # the dead one never hears anything (fleet_join would stop at it)
            assert _propose(live, proposal)["adopted"]
            outcome = _propose(joiner, proposal)
            ring = HashRing(tuple(endpoints))
            owned = sum(
                1
                for region in live._regions.values()
                for digest in region._entries
                if ring.owner(digest) == 2
            )
            assert outcome["adopted"] and outcome["warmed"] == owned > 0
            samples = parse_prometheus(server_metrics(joiner.url))
            assert samples["cacheserver_handoff_failures_total"] >= 1
            # the donor that answered costs nothing on its own counter
            assert parse_prometheus(server_metrics(live.url))[
                "cacheserver_handoff_failures_total"
            ] == 0

    def test_unparseable_donor_is_counted_not_raised(self):
        with AsyncCacheServer() as joiner:
            proposal = {"epoch": 1, "endpoints": ["no-port", joiner.url], "subject": joiner.url}
            outcome = _propose(joiner, proposal)
            assert outcome["adopted"] and outcome["warmed"] == 0
            samples = parse_prometheus(server_metrics(joiner.url))
            assert samples["cacheserver_handoff_failures_total"] >= 1


class TestTopologyChangesNeverChangeResults:
    def test_rankings_survive_live_join_and_leave_mid_search(self, fig1_pair):
        memory = _ranking(_summarize(fig1_pair, CharlesConfig()))
        with AsyncCacheServer() as a, AsyncCacheServer() as b, AsyncCacheServer() as c:
            config = CharlesConfig(
                cache_backend="remote",
                cache_url=f"{a.url},{b.url}",
                cache_replication=2,
            )
            churn_done = threading.Event()
            errors: list[Exception] = []

            def churn() -> None:
                # reshape the fleet while the search below is running: grow
                # by one member, then shrink by one — both broadcasts land
                # mid-run, and running clients refresh off the epoch bump
                try:
                    time.sleep(0.05)
                    fleet_join([a.url, b.url], c.url)
                    time.sleep(0.05)
                    fleet_leave([a.url, b.url, c.url], b.url)
                except Exception as error:  # pragma: no cover - reporting
                    errors.append(error)
                finally:
                    churn_done.set()

            churner = threading.Thread(target=churn, daemon=True)
            churner.start()
            try:
                live = _summarize(fig1_pair, config)
            finally:
                churner.join(timeout=30)
            assert not errors
            assert churn_done.is_set()
            assert _ranking(live) == memory
            # and a fresh run against the settled (joined+left) fleet agrees
            settled = CharlesConfig(
                cache_backend="remote",
                cache_url=f"{a.url},{c.url}",
                cache_replication=2,
            )
            assert _ranking(_summarize(fig1_pair, settled)) == memory


class TestFabricFollowsEpochs:
    def test_clients_and_counters_survive_a_refresh(self):
        with AsyncCacheServer() as a, AsyncCacheServer() as b, AsyncCacheServer() as c:
            fabric = _fabric([a.url, b.url])
            for index in range(20):
                fabric.put(("k", index), index)
            survivors = {client.url: client for client in fabric._clients}
            trips_before = fabric.round_trips
            fleet_join([a.url, b.url], c.url)
            # the first operation's response carries the new epoch; the next
            # operation sees it and refreshes the ring
            assert fabric.get(("k", 0)) == 0
            assert fabric.get(("k", 1)) in (1, MISSING)
            assert len(fabric.endpoints) == 3
            for client in fabric._clients:
                if client.url in survivors:
                    assert client is survivors[client.url]  # reused, not redialed
            assert fabric.round_trips >= trips_before
            fabric.close()

    def test_replication_expands_with_the_fleet(self):
        with AsyncCacheServer() as a, AsyncCacheServer() as b:
            fabric = _fabric([a.url], replication=2)
            assert fabric.replication == 1  # clamped to the fleet size
            fabric.put(("k", 1), 1)
            fleet_join([a.url], b.url)
            fabric.get(("k", 1))  # primes the epoch off this response
            fabric.get(("k", 1))  # sees it and refreshes
            assert len(fabric.endpoints) == 2
            assert fabric.replication == 2  # the requested factor, now usable
            fabric.close()
