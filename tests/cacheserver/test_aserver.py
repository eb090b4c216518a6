"""Differential testing: the asyncio server only frames what the core answers.

Everything request-shaped lives in :class:`CacheServerCore`; the
``AsyncCacheServer`` transport may add framing, coalescing and connection
handling, but no client may ever see a response the core would not have
produced.  The core of this file therefore drives the served transport with
raw frames and compares each response *byte for byte* against the same
request dispatched in-process on an identically configured core.  Payloads
that legitimately differ per process (stats, metrics, server urls) are
compared structurally instead, and a concurrency test checks that many
simultaneous connections make progress together on the one event loop.
"""

import gc
import logging
import socket
import struct
import threading
import time
import warnings

import pytest

from repro.cachestore import MISSING
from repro.cacheserver import (
    AsyncCacheServer,
    CacheServerCore,
    ShardedRemoteBackend,
    server_metrics,
    server_ping,
    server_stats,
)
from repro.cacheserver import protocol

_TIMEOUT = 5.0


class _InProcessCore(CacheServerCore):
    """The reference: the server core answering in-process, no transport."""

    address = ("in-process", 0)


@pytest.fixture()
def transports():
    """The served transport and the in-process reference, identically configured."""
    with AsyncCacheServer(capacity=64) as served:
        yield served, _InProcessCore(capacity=64)


def _roundtrip(server, body: bytes, request_id: int = 7) -> tuple[int, bytes]:
    """One raw framed request against a served server; returns (request_id, response)."""
    with socket.create_connection(server.address, timeout=_TIMEOUT) as sock:
        protocol.send_message(sock, request_id, body)
        return protocol.recv_message(sock)


def _reference(core: CacheServerCore, body: bytes, request_id: int = 7) -> tuple[int, bytes]:
    """The same request dispatched in-process, as the transport must frame it."""
    return request_id, core.dispatch(body)


def _digest(tag: bytes) -> bytes:
    return tag.ljust(protocol.DIGEST_SIZE, b"\x00")


class TestByteIdenticalResponses:
    """The same request must produce the same response bytes served or in-process."""

    @pytest.mark.parametrize(
        "body",
        [
            protocol.encode_request(protocol.PING, protocol.REGION_ALL),
            protocol.encode_request(protocol.LEN, protocol.REGION_ALL),
            protocol.encode_request(protocol.LEN, protocol.REGION_RESULTS),
            protocol.encode_request(
                protocol.GET, protocol.REGION_RESULTS, digest=_digest(b"absent")
            ),
            bytes((protocol.GET, 0)) + _digest(b"x"),  # the retired fits region
            bytes((protocol.LEN, 0)),  # the retired fits region
            # the retired partitions region
            protocol.encode_request(protocol.PUT, 1, digest=_digest(b"x"), payload=b"v"),
            bytes((protocol.CLEAR, 1)),  # the retired partitions region
            protocol.encode_request(protocol.CLEAR, protocol.REGION_ALL),
            bytes((250, protocol.REGION_RESULTS)),  # unknown verb
            bytes((7, protocol.REGION_RESULTS)) + _digest(b"x"),  # the retired batch verb
            bytes((protocol.GET, 99)) + _digest(b"x"),  # unknown region
            bytes((protocol.GET, protocol.REGION_RESULTS)) + b"short",  # bad digest
        ],
    )
    def test_same_frame_same_bytes(self, transports, body):
        served, core = transports
        assert _roundtrip(served, body) == _reference(core, body)

    def test_put_then_get_are_identical(self, transports):
        served, core = transports
        digest = _digest(b"key-1")
        put = protocol.encode_request(
            protocol.PUT,
            protocol.REGION_RESULTS,
            digest=digest,
            cost=1.25,
            payload=b"stored-bytes",
        )
        get = protocol.encode_request(protocol.GET, protocol.REGION_RESULTS, digest=digest)
        miss = protocol.encode_request(
            protocol.GET, protocol.REGION_RESULTS, digest=_digest(b"miss")
        )
        length = protocol.encode_request(protocol.LEN, protocol.REGION_ALL)
        conversation = (put, get, miss, length)
        served_answers = [_roundtrip(served, body) for body in conversation]
        reference_answers = [_reference(core, body) for body in conversation]
        assert served_answers == reference_answers
        status, payload = protocol.decode_response(served_answers[1][1])
        assert (status, payload) == (protocol.HIT, b"stored-bytes")

    def test_pipelined_burst_is_answered_in_order_with_matching_ids(self, transports):
        # queue a burst of frames before reading anything back — the
        # coalesced reply must echo every id, in order
        served, _ = transports
        frames = []
        for index in range(32):
            body = protocol.encode_request(
                protocol.PUT,
                protocol.REGION_RESULTS,
                digest=_digest(b"burst-%d" % index),
                payload=b"v",
            )
            frames.append(protocol.frame_message(index, body))
        with socket.create_connection(served.address, timeout=_TIMEOUT) as sock:
            sock.sendall(b"".join(frames))
            seen = [protocol.recv_message(sock)[0] for _ in range(32)]
        assert seen == list(range(32))


class TestStructuralParity:
    """Payloads that carry per-process facts compare by structure."""

    def test_stats_shape_and_counters_match(self, transports):
        served, core = transports
        backend = ShardedRemoteBackend(served.url, namespace=b"parity")
        backend.put("k", 41, cost_hint=0.5)
        assert backend.get("k") == 41
        assert backend.get("absent") is MISSING
        digests = [backend._digest("k"), backend._digest("absent")]
        backend.close()
        _reference(
            core,
            protocol.encode_request(
                protocol.PUT, protocol.REGION_RESULTS, digest=digests[0], cost=0.5, payload=b"v"
            ),
        )
        for digest in digests:
            _reference(
                core, protocol.encode_request(protocol.GET, protocol.REGION_RESULTS, digest=digest)
            )
        shapes = []
        for stats in (server_stats(served.url), core.stats()):
            regions = {
                name: (region["entries"], region["hits"], region["misses"])
                for name, region in stats["regions"].items()
            }
            shapes.append((sorted(stats), sorted(stats["server"]), regions))
        assert shapes[0] == shapes[1]

    def test_metrics_expose_the_same_series(self, transports):
        served, core = transports
        server_ping(served.url)
        _reference(core, protocol.encode_request(protocol.PING, protocol.REGION_ALL))
        names = []
        for exposition in (server_metrics(served.url), core.metrics_text()):
            names.append(
                sorted(
                    {
                        line.split("{")[0].split(" ")[0]
                        for line in exposition.splitlines()
                        if line and not line.startswith("#")
                    }
                )
            )
        assert names[0] == names[1]

    def test_trace_spans_record_identically(self, transports):
        from repro.cacheserver import server_trace
        from repro.obs.trace import TRACE_ID_BYTES, SPAN_ID_BYTES

        served, core = transports
        trace_context = b"\x11" * TRACE_ID_BYTES + b"\x00" * SPAN_ID_BYTES
        body = protocol.encode_request(
            protocol.GET,
            protocol.REGION_RESULTS,
            digest=_digest(b"traced"),
            trace=trace_context,
        )
        _roundtrip(served, body)
        _reference(core, body)
        recorded = []
        for spans in (
            server_trace(served.url, trace_id=("11" * TRACE_ID_BYTES)),
            core._drain_spans("11" * TRACE_ID_BYTES),
        ):
            recorded.append(
                [(span["name"], span["outcome"], span["attributes"]["region"]) for span in spans]
            )
        assert recorded[0] == recorded[1] == [("server.get", "ok", "results")]


class TestAsyncServerUnderConcurrency:
    def test_many_connections_make_progress_together(self):
        # 64 concurrent client connections, each doing real read/write
        # traffic, all on one event loop
        with AsyncCacheServer() as server:
            errors: list[Exception] = []

            def worker(worker_id: int) -> None:
                try:
                    backend = ShardedRemoteBackend(
                        server.url, namespace=b"w%d" % worker_id
                    )
                    for index in range(25):
                        backend.put(("k", index), (worker_id, index))
                        assert backend.get(("k", index)) == (worker_id, index)
                    backend.close()
                except Exception as error:  # pragma: no cover - reporting
                    errors.append(error)

            threads = [
                threading.Thread(target=worker, args=(i,), daemon=True)
                for i in range(64)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            assert not any(thread.is_alive() for thread in threads)
            requests = server_stats(server.url)["server"]["requests"]
            assert requests >= 64 * 50

    def test_inflight_gauge_follows_open_connections(self):
        from repro.obs.metrics import parse_prometheus

        def inflight(url: str) -> float:
            # the scrape's own admin connection is open while it renders
            return parse_prometheus(server_metrics(url))["cacheserver_connections_inflight"]

        with AsyncCacheServer() as server:
            assert inflight(server.url) == 1
            backend = ShardedRemoteBackend(server.url, namespace=b"gauge")
            backend.put("k", 1)
            assert backend.get("k") == 1  # the pipelined connection is now open
            assert inflight(server.url) == 2
            backend.close()

    def test_shutdown_right_after_a_connect_leaks_nothing(self):
        # a connection the loop accepts in the iteration that stops the
        # server used to fail Server._attach after Server.close() and leave
        # an unclosed transport behind, every time
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for _ in range(20):
                server = AsyncCacheServer().start()
                with socket.create_connection(server.address, timeout=_TIMEOUT):
                    server.shutdown()
            gc.collect()
        leaks = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == []

    def test_context_manager_lifecycle_is_idempotent(self):
        server = AsyncCacheServer()
        with server:
            assert server_ping(server.url)
        server.shutdown()  # second shutdown is a no-op
        with pytest.raises(Exception):
            server_ping(server.url)

    def test_url_is_valid_before_start(self):
        server = AsyncCacheServer()
        host, port = server.address
        assert host == "127.0.0.1" and port > 0
        assert server.url == f"{host}:{port}"
        server.shutdown()  # never started: just releases the socket


class _RecordingServer(AsyncCacheServer):
    """Records the server side of every accepted connection, then serves it."""

    def __init__(self) -> None:
        super().__init__()
        self.accepted: list = []

    async def _serve_connection(self, reader, writer) -> None:
        self.accepted.append(writer.get_extra_info("socket"))
        await super()._serve_connection(reader, writer)


class TestConnectionHandling:
    def test_accepted_connections_run_without_nagle(self):
        # a small response queued behind an un-ACKed one must not wait for
        # the client's delayed ACK; the listener does not pass TCP_NODELAY on
        with _RecordingServer() as server:
            with socket.create_connection(server.address, timeout=_TIMEOUT) as sock:
                ping = protocol.encode_request(protocol.PING, protocol.REGION_ALL)
                protocol.send_message(sock, 1, ping)
                protocol.recv_message(sock)
                (accepted,) = server.accepted
                assert accepted.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1

    def test_a_client_reset_is_counted_not_logged(self, caplog):
        from repro.obs.metrics import parse_prometheus

        caplog.set_level(logging.WARNING, logger="asyncio")
        with AsyncCacheServer() as server:
            sock = socket.create_connection(server.address, timeout=_TIMEOUT)
            get = protocol.encode_request(
                protocol.GET, protocol.REGION_RESULTS, digest=_digest(b"reset")
            )
            protocol.send_message(sock, 1, get)
            protocol.recv_message(sock)
            # close with an RST instead of a FIN
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
            deadline = time.monotonic() + _TIMEOUT
            while server_stats(server.url)["server"]["connection_errors"] == 0:
                assert time.monotonic() < deadline, "the reset was never counted"
                time.sleep(0.01)
            assert server_stats(server.url)["server"]["connection_errors"] == 1
            metrics = parse_prometheus(server_metrics(server.url))
            assert metrics["cacheserver_connection_errors_total"] == 1
            assert server_ping(server.url)  # the server keeps serving
        assert [r for r in caplog.records if r.name == "asyncio"] == []


class TestCliServesAsyncio:
    def test_no_transport_or_policy_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["cache-server"])
        assert not hasattr(args, "transport") and not hasattr(args, "policy")
        for removed in ("--threaded", "--async", "--policy"):
            with pytest.raises(SystemExit):
                parser.parse_args(["cache-server", removed])
