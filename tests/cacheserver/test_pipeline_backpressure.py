"""Pipelined-window backpressure: throttle on a slow peer, die on a silent one.

The original backpressure rule waited on the oldest pending response with a
fixed timeout and killed the whole connection — and every request pending on
it — whenever that single response was late, even while the server was
demonstrably answering everything else.  A saturated window against a merely
slow shard therefore amplified latency into a full connection loss (and a
degrade window).  The rule is now progress-based: any response arriving
resets the deadline, so only a peer that stays *completely* silent for a
full timeout is declared dead.

These tests script both peers precisely: a server that answers newest-first
(so the oldest response is late while progress continues) must not get the
connection killed; a server that reads and never answers must.
"""

import socket
import threading
import time

import pytest

from repro.cacheserver import protocol
from repro.cacheserver import pipeline as pipeline_module
from repro.cacheserver.pipeline import PipelinedConnection

_PONG = protocol.encode_response(protocol.OK, b"pong")


class _LifoServer:
    """Answers every frame correctly — but newest-first, one per ``cadence``.

    With a saturated window this keeps the *oldest* response pending far
    longer than the timeout while responses keep arriving: exactly the
    slow-but-progressing shape the old backpressure rule misread as death.
    """

    def __init__(self, cadence: float) -> None:
        self._cadence = cadence
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()
        self._stack: list[int] = []
        self._lock = threading.Lock()
        self._conn: socket.socket | None = None
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self) -> None:
        try:
            conn, _ = self._listener.accept()
        except OSError:  # pragma: no cover - closed before a client came
            return
        self._conn = conn
        conn.settimeout(0.05)
        threading.Thread(target=self._answer, daemon=True).start()
        buffer = bytearray()
        while True:
            try:
                chunk = conn.recv(1 << 16)
            except TimeoutError:
                continue
            except OSError:
                return
            if not chunk:
                return
            buffer += chunk
            try:
                frames = protocol.drain_frames(buffer)
            except protocol.ProtocolError:  # pragma: no cover - clean client
                return
            with self._lock:
                for frame in frames:
                    self._stack.append(protocol.parse_message(frame)[0])

    def _answer(self) -> None:
        while True:
            time.sleep(self._cadence)
            with self._lock:
                request_id = self._stack.pop() if self._stack else None
            if request_id is None:
                continue
            try:
                self._conn.sendall(protocol.frame_message(request_id, _PONG))
            except OSError:
                return

    def close(self) -> None:
        self._listener.close()
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:  # pragma: no cover
                pass


class _SilentServer:
    """Accepts and reads forever; never answers a single frame."""

    def __init__(self) -> None:
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self) -> None:
        try:
            conn, _ = self._listener.accept()
        except OSError:  # pragma: no cover
            return
        with conn:
            try:
                while conn.recv(1 << 16):
                    pass
            except OSError:
                pass

    def close(self) -> None:
        self._listener.close()


_PING = protocol.encode_request(protocol.PING, protocol.REGION_ALL)


class TestProgressBasedBackpressure:
    def test_slow_but_progressing_server_never_gets_killed(self, monkeypatch):
        # window of 4, responses every 0.15s newest-first, timeout 0.5s: the
        # oldest response takes ~4 * 0.15 > timeout to arrive, but progress
        # keeps resetting the deadline — the connection must survive and
        # every single future must resolve
        monkeypatch.setattr(pipeline_module, "MAX_IN_FLIGHT", 4)
        server = _LifoServer(cadence=0.15)
        try:
            connection = PipelinedConnection(server.address, timeout=0.5)
            futures = [connection.submit(_PING) for _ in range(12)]
            answers = [future.result(timeout=10.0) for future in futures]
            assert connection.alive
            assert answers == [(protocol.OK, b"pong")] * 12
            connection.close()
        finally:
            server.close()

    def test_silent_server_is_still_declared_dead_promptly(self, monkeypatch):
        monkeypatch.setattr(pipeline_module, "MAX_IN_FLIGHT", 4)
        server = _SilentServer()
        try:
            connection = PipelinedConnection(server.address, timeout=0.5)
            started = time.monotonic()
            futures = [connection.submit(_PING) for _ in range(6)]
            elapsed = time.monotonic() - started
            assert not connection.alive  # zero progress for a full timeout
            # one no-progress window, not one timeout per queued request
            assert elapsed < 3.0
            for future in futures:
                with pytest.raises(ConnectionError):
                    future.result(timeout=1.0)
            connection.close()
        finally:
            server.close()

    def test_order_bookkeeping_stays_bounded_under_out_of_order_resolution(
        self, monkeypatch
    ):
        # the deque skips resolved ids lazily; after the whole window drains
        # it must not have accumulated stale entries proportional to traffic
        monkeypatch.setattr(pipeline_module, "MAX_IN_FLIGHT", 8)
        server = _LifoServer(cadence=0.01)
        try:
            connection = PipelinedConnection(server.address, timeout=5.0)
            futures = [connection.submit(_PING) for _ in range(100)]
            for future in futures:
                assert future.result(timeout=10.0) == (protocol.OK, b"pong")
            deadline = time.monotonic() + 5.0
            while connection._pending and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not connection._pending
            # stale ids are capped by the window size, never the total sent
            assert len(connection._order) <= 2 * 8
            assert connection.alive
            connection.close()
        finally:
            server.close()
