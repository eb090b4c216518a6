"""The reader-less fabric connection: write-behind PUTs, the caller reads.

A :class:`PipelinedConnection` has no reader thread: the thread that needs an
answer reads the socket itself, PUTs wait in an outbox until the next send,
and acknowledgements are drained without blocking before each send.  These
tests script the peer where timing matters (a silent server, a slow one, one
that answers every PUT with a large acknowledgement) and use a real
:class:`AsyncCacheServer` where the server's arrival order is the point.
"""

import multiprocessing
import os
import socket
import threading
import time

import pytest

from repro.cachestore import MISSING
from repro.cacheserver import AsyncCacheServer, ShardedRemoteBackend
from repro.cacheserver import protocol
from repro.cacheserver.pipeline import PipelinedConnection
from repro.core import Charles, CharlesConfig
from repro.timeline import EngineSession

_FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

_PING = protocol.encode_request(protocol.PING, protocol.REGION_ALL)


def _put(index: int, payload: bytes = b"v") -> bytes:
    return protocol.encode_request(
        protocol.PUT, protocol.REGION_FITS, digest=_digest(index), payload=payload
    )


def _digest(index: int) -> bytes:
    return index.to_bytes(protocol.DIGEST_SIZE, "big")


class _ScriptedServer:
    """One connection, answered in arrival order from a single thread.

    Each frame is answered ``delay`` seconds after the previous answer, with
    ``ack_bytes`` of payload and a blocking ``sendall``: while that send is
    stuck the server reads nothing, like any server whose client stopped
    reading.  ``silent`` reads forever and never answers.
    """

    def __init__(self, delay: float = 0.0, ack_bytes: int = 0, silent: bool = False):
        self._delay = delay
        self._answer = protocol.encode_response(protocol.OK, b"x" * ack_bytes)
        self._silent = silent
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()
        self.frames = 0
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        try:
            conn, _ = self._listener.accept()
        except OSError:  # closed before a client came
            return
        buffer = bytearray()
        with conn:
            try:
                while chunk := conn.recv(1 << 16):
                    if self._silent:
                        continue
                    buffer += chunk
                    for frame in protocol.drain_frames(buffer):
                        self.frames += 1
                        time.sleep(self._delay)
                        request_id = protocol.parse_message(frame)[0]
                        conn.sendall(protocol.frame_message(request_id, self._answer))
            except OSError:
                pass

    def close(self) -> None:
        self._listener.close()
        self._thread.join(timeout=10)


class _CountingSocket:
    """A socket stand-in that counts ``sendall`` calls and delegates the rest."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self.sends = 0

    def sendall(self, data) -> None:
        self.sends += 1
        self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestLiveness:
    def test_a_silent_peer_is_dead_after_one_timeout(self):
        server = _ScriptedServer(silent=True)
        try:
            connection = PipelinedConnection(server.address, timeout=0.5)
            for index in range(5):
                assert connection.fire(_put(index))
            started = time.monotonic()
            with pytest.raises(ConnectionError):
                connection.request(_PING)
            elapsed = time.monotonic() - started
            assert 0.4 <= elapsed < 1.0  # one timeout, not one per queued frame
            assert not connection.alive
            assert connection.unacknowledged == 5  # sent, never acknowledged
            with pytest.raises(ConnectionError):
                connection.request(_PING)  # failure-final
            assert not connection.fire(_put(9))
            connection.close()
        finally:
            server.close()

    def test_a_slow_peer_that_keeps_answering_is_served(self):
        # the eight acknowledgements and the PING answer arrive 0.15 s
        # apart: the request waits ~1.35 s in all, beyond the 0.5 s timeout,
        # yet no single read waits as long as the timeout
        server = _ScriptedServer(delay=0.15)
        try:
            connection = PipelinedConnection(server.address, timeout=0.5)
            for index in range(8):
                assert connection.fire(_put(index))
            started = time.monotonic()
            assert connection.request(_PING)[0] == protocol.OK
            assert time.monotonic() - started > 0.5
            assert connection.alive
            assert connection.unacknowledged == 0
            connection.close()
        finally:
            server.close()


class TestWriteBehind:
    def test_ten_thousand_puts_against_a_slow_server_do_not_deadlock(self):
        # 4 KiB each way per PUT, ~40 MiB in all, overflows the socket
        # buffers: a client that read no acknowledgement until the end would
        # leave the server stuck in sendall, no longer reading, and itself
        # stuck in sendall behind it until the send timed out
        server = _ScriptedServer(delay=0.0002, ack_bytes=4096)
        try:
            connection = PipelinedConnection(server.address, timeout=5.0)
            started = time.monotonic()
            for index in range(10_000):
                assert connection.fire(_put(index, b"v" * 4096))
            connection.flush()
            assert time.monotonic() - started < 30.0
            assert connection.alive
            assert connection.unacknowledged == 0
            assert server.frames == 10_000
            connection.close()
        finally:
            server.close()

    def test_a_get_behind_buffered_puts_sees_them_in_one_send(self):
        with AsyncCacheServer() as server:
            connection = PipelinedConnection(server.address, timeout=5.0)
            counting = connection._sock = _CountingSocket(connection._sock)
            for index in range(50):
                assert connection.fire(_put(index, b"value-%d" % index))
            assert counting.sends == 0  # buffered, not sent
            status, payload = connection.request(
                protocol.encode_request(protocol.GET, protocol.REGION_FITS, digest=_digest(49))
            )
            assert (status, payload) == (protocol.HIT, b"value-49")
            assert counting.sends == 1  # 50 PUTs and the GET left together
            assert connection.unacknowledged == 0  # acks read on the way
            connection.close()

    def test_a_second_client_sees_every_entry_after_flush(self):
        with AsyncCacheServer() as server:
            writer = ShardedRemoteBackend(server.url, namespace=os.urandom(8))
            reader = ShardedRemoteBackend(server.url, namespace=writer.namespace)
            values = {index: os.urandom(1024) for index in range(300)}  # > 4 outboxes
            for index, value in values.items():
                writer.put(("k", index), value)
            writer.flush()
            assert reader.get_many([("k", index) for index in values]) == list(values.values())
            assert reader.misses == 0
            writer.close(), reader.close()

    def test_close_publishes_what_is_buffered(self):
        with AsyncCacheServer() as server:
            writer = ShardedRemoteBackend(server.url, namespace=os.urandom(8))
            writer.put("k", 1)
            writer.close()
            reader = ShardedRemoteBackend(server.url, namespace=writer.namespace)
            assert reader.get("k") == 1
            assert reader.get("absent") is MISSING
            reader.close()


def _ranking(result):
    return [(scored.summary.describe(), scored.score) for scored in result.summaries]


_SHORTLISTS = dict(
    condition_attributes=["edu", "exp"], transformation_attributes=["bonus", "salary"]
)


class TestNoThreadsNoForkSharing:
    def test_no_pipeline_thread_during_or_after_a_fabric_search(self, fig1_pair):
        def pipeline_threads():
            return [t for t in threading.enumerate() if t.name == "charles-cache-pipeline"]

        with AsyncCacheServer() as server:
            config = CharlesConfig(cache_backend="remote", cache_url=server.url)
            with EngineSession(config) as session:
                session.summarize_pair(fig1_pair, "bonus", **_SHORTLISTS)
                assert session.caches.fits.backend.round_trips > 0
                assert pipeline_threads() == []  # connections open, no reader
            Charles(config).summarize_pair(fig1_pair, "bonus", **_SHORTLISTS)
            assert pipeline_threads() == []

    @pytest.mark.skipif(not _FORK_AVAILABLE, reason="needs the fork start method")
    def test_a_forked_child_never_reuses_its_parents_connection(self):
        with AsyncCacheServer() as server:
            fabric = ShardedRemoteBackend(server.url, namespace=os.urandom(8))
            fabric.put("parent", 1)  # opens the connection, stays buffered
            inherited = fabric._clients[0]._conn
            assert inherited is not None and inherited.unacknowledged == 1

            def child() -> None:
                fabric.put("child", 2)
                fabric.flush()
                own = fabric._clients[0]._conn
                # its own connection; the parent's outbox left untouched
                ok = own is not inherited and inherited.unacknowledged == 1
                os._exit(0 if ok else 1)

            process = multiprocessing.get_context("fork").Process(target=child)
            process.start()
            process.join(timeout=30)
            assert process.exitcode == 0
            fabric.flush()  # the parent's stream is intact: its ack arrives
            assert fabric._clients[0]._conn is inherited and inherited.alive
            reader = ShardedRemoteBackend(server.url, namespace=fabric.namespace)
            assert (reader.get("parent"), reader.get("child")) == (1, 2)
            fabric.close(), reader.close()
