"""The reader-less fabric connection: requests in flight, the caller reads.

A :class:`PipelinedConnection` has no reader thread: the thread that needs an
answer reads the socket itself, and answers are paired with requests by id,
so several requests may be in flight before any is collected.  These tests
script the peer where timing matters (a silent server, a slow one) and use a
real :class:`AsyncCacheServer` where the server's answers are the point.
"""

import multiprocessing
import os
import socket
import threading
import time

import pytest

from repro.cacheserver import AsyncCacheServer, ShardedRemoteBackend
from repro.cacheserver import protocol
from repro.cacheserver.pipeline import PipelinedConnection
from repro.core import Charles, CharlesConfig
from repro.timeline import EngineSession

_FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

_PING = protocol.encode_request(protocol.PING, protocol.REGION_ALL)


def _put(index: int, payload: bytes = b"v") -> bytes:
    return protocol.encode_request(
        protocol.PUT, protocol.REGION_RESULTS, digest=_digest(index), payload=payload
    )


def _digest(index: int) -> bytes:
    return index.to_bytes(protocol.DIGEST_SIZE, "big")


class _ScriptedServer:
    """One connection, answered in arrival order from a single thread.

    Each frame is answered ``OK`` ``delay`` seconds after the previous
    answer.  ``silent`` reads forever and never answers.
    """

    def __init__(self, delay: float = 0.0, silent: bool = False):
        self._delay = delay
        self._answer = protocol.encode_response(protocol.OK)
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


class TestLiveness:
    def test_a_silent_peer_is_dead_after_one_timeout(self):
        server = _ScriptedServer(silent=True)
        try:
            connection = PipelinedConnection(server.address, timeout=0.5)
            for index in range(5):
                connection.submit(_put(index))
            started = time.monotonic()
            with pytest.raises(ConnectionError):
                connection.request(_PING)
            elapsed = time.monotonic() - started
            assert 0.4 <= elapsed < 1.0  # one timeout, not one per request in flight
            assert not connection.alive
            with pytest.raises(ConnectionError):
                connection.request(_PING)  # failure-final
            with pytest.raises(ConnectionError):
                connection.submit(_put(9))
            connection.close()
        finally:
            server.close()

    def test_a_slow_peer_that_keeps_answering_is_served(self):
        # the eight PUT answers and the PING answer arrive 0.15 s apart: the
        # request waits ~1.35 s in all, beyond the 0.5 s timeout, yet no
        # single read waits as long as the timeout
        server = _ScriptedServer(delay=0.15)
        try:
            connection = PipelinedConnection(server.address, timeout=0.5)
            for index in range(8):
                connection.submit(_put(index))
            started = time.monotonic()
            assert connection.request(_PING)[0] == protocol.OK
            assert time.monotonic() - started > 0.5
            assert connection.alive
            connection.close()
        finally:
            server.close()


class TestRequestsInFlight:
    def test_answers_are_collected_by_id_in_any_order(self):
        with AsyncCacheServer() as server:
            connection = PipelinedConnection(server.address, timeout=5.0)
            puts = [connection.submit(_put(index, b"value-%d" % index)) for index in range(3)]
            get = connection.submit(
                protocol.encode_request(protocol.GET, protocol.REGION_RESULTS, digest=_digest(2))
            )
            # the GET arrived after the PUTs, so it sees them; collecting it
            # first files the PUT answers on the way
            assert connection.collect(get) == (protocol.HIT, b"value-2")
            assert [connection.collect(request_id)[0] for request_id in reversed(puts)] == [
                protocol.OK
            ] * 3
            connection.close()


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
                assert session.caches.results.round_trips > 0
                assert pipeline_threads() == []  # connections open, no reader
            Charles(config).summarize_pair(fig1_pair, "bonus", **_SHORTLISTS)
            assert pipeline_threads() == []

    @pytest.mark.skipif(not _FORK_AVAILABLE, reason="needs the fork start method")
    def test_a_forked_child_never_reuses_its_parents_connection(self):
        with AsyncCacheServer() as server:
            fabric = ShardedRemoteBackend(server.url, namespace=os.urandom(8))
            fabric.put("parent", 1)  # opens the connection
            inherited = fabric._clients[0]._conn
            assert inherited is not None

            def child() -> None:
                fabric.put("child", 2)
                own = fabric._clients[0]._conn
                os._exit(0 if own is not None and own is not inherited else 1)

            process = multiprocessing.get_context("fork").Process(target=child)
            process.start()
            process.join(timeout=30)
            assert process.exitcode == 0
            # the parent's stream is intact: it keeps serving on its socket
            assert fabric.get("child") == 2
            assert fabric._clients[0]._conn is inherited and inherited.alive
            assert fabric.get("parent") == 1
            fabric.close()
