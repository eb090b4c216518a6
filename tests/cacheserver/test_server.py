"""The cache service itself: serving, admin verbs, eviction, degrade-to-miss.

Every client here is a one-endpoint :class:`ShardedRemoteBackend` — the one
remote client production builds — so the degrade and backoff cases reach the
endpoint's :class:`~repro.cacheserver.client.ShardClient` through
``backend._clients[0]``.
"""

import os
import socket
import threading

import pytest

from repro.cachestore import MISSING
from repro.cacheserver import (
    AsyncCacheServer,
    ShardedRemoteBackend,
    parse_url,
    server_clear,
    server_ping,
    server_stats,
)
from repro.cacheserver import protocol
from repro.exceptions import CacheStoreError, CharlesError, ConfigurationError


@pytest.fixture(scope="module")
def server():
    with AsyncCacheServer() as running:
        yield running


@pytest.fixture()
def backend(server):
    # a fresh namespace per test keeps tests invisible to each other while
    # sharing one server process, exactly like differently configured engines
    attached = ShardedRemoteBackend(server.url, namespace=os.urandom(8))
    yield attached
    attached.close()


class TestParseUrl:
    def test_host_port(self):
        assert parse_url("cache.internal:8737") == ("cache.internal", 8737)
        assert parse_url("tcp://10.0.0.7:901") == ("10.0.0.7", 901)

    @pytest.mark.parametrize("bad", ["", "justhost", ":80", "host:", "host:abc", "host:0"])
    def test_malformed_urls_rejected(self, bad):
        with pytest.raises(CacheStoreError):
            parse_url(bad)


class TestServing:
    def test_miss_then_put_then_hit(self, backend):
        key = ("fit", "bonus", ("salary",), b"token")
        assert backend.get(key) is MISSING
        backend.put(key, {"value": 42}, cost_hint=0.01)
        assert backend.get(key) == {"value": 42}
        assert backend.hits == 1 and backend.misses == 1
        assert backend.round_trips == 3

    def test_none_is_a_cacheable_value(self, backend):
        backend.put("none-key", None)
        assert backend.get("none-key") is None

    def test_overwrite_replaces(self, backend):
        backend.put("k", 1)
        backend.put("k", 2)
        assert backend.get("k") == 2

    def test_namespaces_partition_the_server(self, server):
        first = ShardedRemoteBackend(server.url, namespace=b"config-a")
        second = ShardedRemoteBackend(server.url, namespace=b"config-b")
        first.put("k", 1)
        assert second.get("k") is MISSING
        second.put("k", 2)
        assert first.get("k") == 1 and second.get("k") == 2
        first.close(), second.close()

    def test_a_second_engine_reads_what_the_first_stored(self, server, backend):
        # put returns once the shard acknowledged the entry
        backend.put("shared-key", [1, 2, 3])
        other = ShardedRemoteBackend(server.url, namespace=backend.namespace)
        assert other.get("shared-key") == [1, 2, 3]
        # counters are per-instance
        assert other.hits == 1 and backend.hits == 0
        other.close()

    def test_len_counts_region_entries(self, server):
        with AsyncCacheServer() as private:
            results = ShardedRemoteBackend(private.url)
            results.put("a", 1)
            results.put("b", 2)
            assert len(results) == 2
            results.clear()
            assert len(results) == 0
            results.close()

    def test_concurrent_clients_stay_consistent(self, server):
        namespace = os.urandom(8)
        errors = []

        def hammer(worker: int) -> None:
            try:
                client = ShardedRemoteBackend(server.url, namespace=namespace)
                for index in range(40):
                    client.put(("k", worker, index), index, cost_hint=0.001)
                    assert client.get(("k", worker, index)) == index
                client.close()
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        check = ShardedRemoteBackend(server.url, namespace=namespace)
        assert check.get(("k", 3, 39)) == 39
        check.close()


class TestAdminVerbs:
    def test_ping(self, server):
        assert server_ping(server.url)

    def test_stats_of_a_fresh_server_lists_only_the_results_region(self):
        with AsyncCacheServer() as private:
            regions = server_stats(private.url)["regions"]
        assert regions == {
            "results": {"entries": 0, "hits": 0, "misses": 0, "evictions": 0, "hit_rate": 0.0}
        }

    def test_stats_reports_the_results_region(self, server, backend):
        backend.put("k", 1)
        backend.get("k")
        stats = server_stats(server.url)
        assert set(stats["regions"]) == {"results"}
        results = stats["regions"]["results"]
        assert results["entries"] >= 1 and results["hits"] >= 1
        assert stats["server"]["requests"] > 0

    def test_clear_drops_every_region(self):
        with AsyncCacheServer() as private:
            results = ShardedRemoteBackend(private.url)
            results.put("a", 1)
            results.put("b", 2)
            server_clear(private.url)
            assert len(results) == 0
            results.close()

    def test_unknown_region_is_an_error_response_not_a_crash(self, server):
        with socket.create_connection(server.address) as sock:
            protocol.send_message(sock, 7, bytes((protocol.LEN, 77)))  # no such region
            request_id, body = protocol.recv_message(sock)
            status, payload = protocol.decode_response(body)
            assert request_id == 7  # errors still carry the request id back
            assert status == protocol.ERROR and b"region" in payload
            # the connection survives the error and keeps serving
            protocol.send_message(
                sock, 8, protocol.encode_request(protocol.PING, protocol.REGION_ALL)
            )
            request_id, body = protocol.recv_message(sock)
            assert request_id == 8
            assert protocol.decode_response(body)[0] == protocol.OK

    def test_unframeable_client_is_dropped_quietly(self, server):
        with socket.create_connection(server.address) as sock:
            sock.sendall(b"\xff\xff\xff\xff")  # a 4 GiB length prefix
            assert sock.recv(1024) == b""  # server closed on us
        assert server_ping(server.url)  # and is still healthy


class TestEvictionOnTheServer:
    def test_cost_aware_region_retains_expensive_entries(self):
        with AsyncCacheServer(capacity=3) as bounded:
            client = ShardedRemoteBackend(bounded.url)
            client.put("expensive", list(range(8)), cost_hint=4.0)
            for index in range(10):
                client.put(f"cheap{index}", list(range(8)), cost_hint=0.0001)
            assert client.get("expensive") == list(range(8))
            assert server_stats(bounded.url)["regions"]["results"]["evictions"] == 8
            client.close()

    def test_invalid_capacity_rejected_as_configuration_error(self):
        # ConfigurationError (not ValueError) so the CLI exits 2 cleanly
        with pytest.raises(ConfigurationError):
            AsyncCacheServer(capacity=0)

    def test_heap_eviction_scales_with_removals_and_overwrites(self):
        # exercise the lazy-deletion heap: overwrites orphan entries, clear
        # resets, and eviction order still follows density then insertion
        with AsyncCacheServer(capacity=2) as bounded:
            client = ShardedRemoteBackend(bounded.url)
            client.put("a", b"x", cost_hint=0.1)
            client.put("a", b"x", cost_hint=3.0)  # upgrade orphans the 0.1 entry
            client.put("b", b"y", cost_hint=1.0)
            client.put("c", b"z", cost_hint=0.5)  # evicts the cheapest: "c" itself
            assert client.get("a") == b"x" and client.get("b") == b"y"
            assert client.get("c") is MISSING
            client.close()


class TestDegradeToMiss:
    def test_unreachable_server_degrades_instead_of_raising(self):
        backend = ShardedRemoteBackend("127.0.0.1:9")  # the discard port: nothing there
        assert backend.get("k") is MISSING
        backend.put("k", 1)  # silent: counted as a store error, never raised
        assert len(backend) == 0
        backend.clear()  # also a no-op
        assert backend.misses == 1
        assert backend.connection_failures >= 1
        assert backend.round_trips == 0

    def test_construction_never_contacts_the_server(self):
        # a fleet engine must boot while the cache service is still down
        backend = ShardedRemoteBackend("127.0.0.1:9")
        assert backend.round_trips == 0 and backend.connection_failures == 0

    def test_server_death_mid_conversation_degrades(self):
        private = AsyncCacheServer().start()
        backend = ShardedRemoteBackend(private.url)
        backend.put("k", 1)
        assert backend.get("k") == 1
        private.shutdown()
        assert backend.get("k") is MISSING  # dead server: miss, not exception
        assert backend.connection_failures >= 1
        backend.close()

    def test_client_recovers_after_backoff_when_server_returns(self):
        from repro.cacheserver import client as client_module

        private = AsyncCacheServer().start()
        host, port = private.address
        backend = ShardedRemoteBackend(private.url)
        backend.put("k", 1)
        private.shutdown()
        assert backend.get("k") is MISSING  # the failure that starts the backoff
        # a new server on the same port (the entries are gone with the old one)
        revived = AsyncCacheServer(host=host, port=port).start()
        try:
            for index in range(client_module.RETRY_AFTER_OPS):
                backend.get(("burn", index))  # burn through the degraded op budget
            backend._clients[0]._retry_not_before = 0.0  # and skip the wall-clock window
            backend.put("k", 2)
            assert backend.get("k") == 2  # reconnected and serving again
        finally:
            revived.shutdown()
            backend.close()

    def test_backoff_window_blocks_reconnection_attempts(self):
        from repro.cacheserver import client as client_module

        backend = ShardedRemoteBackend("127.0.0.1:9")
        assert backend.get("k") is MISSING  # first failure opens the window
        assert backend.connection_failures == 1
        for index in range(client_module.RETRY_AFTER_OPS + 5):
            backend.get(("burn", index))
        # the op budget is burned, but the wall-clock window (1s, far longer
        # than this loop) must still hold the next connect attempt back — this
        # is what bounds the stalls a blackholed server can cause
        assert backend.connection_failures == 1
        backend._clients[0]._retry_not_before = 0.0
        backend.get(("fresh", 0))
        assert backend.connection_failures == 2  # window over: attempt made
        backend.close()

    def test_shutdown_is_idempotent(self):
        private = AsyncCacheServer().start()
        private.shutdown()
        private.shutdown()


class TestCharlesErrorHierarchy:
    def test_admin_failures_are_charles_errors(self):
        # so the CLI's one except-clause turns them into exit code 2
        with pytest.raises(CharlesError):
            server_stats("127.0.0.1:9")
