"""A pipelined cache-server connection: many requests in flight on one socket.

The PR-4 client was strictly request/response: every lookup paid a full
round trip before the next one could start, so a search's cache traffic was
serialised on the socket and fleet latency grew linearly with lookup count.
:class:`PipelinedConnection` removes that ceiling using the protocol's
request ids (:func:`~repro.cacheserver.protocol.send_message`): callers
submit request bodies and receive :class:`concurrent.futures.Future`\\ s; a
single reader thread pairs response messages back up with their futures by
id, so any number of requests may be outstanding at once.

Two usage patterns fall out:

* **fire-and-forget writes** — a ``PUT`` publishes an entry the caller never
  needs an answer for; :meth:`PipelinedConnection.fire` sends it and returns
  immediately (in-flight count bounded by :data:`MAX_IN_FLIGHT`, so a stalled
  server applies backpressure instead of unbounded buffering);
* **batched reads** — an ``MGET`` resolves a whole round's lookups in one
  round trip; :meth:`PipelinedConnection.request` blocks only for its own
  response, not for everything queued behind it.

Backpressure is *progress-based*: a submitter over the in-flight bound waits
on the oldest pending response, but the deadline resets whenever any
response arrives — a saturated window against a slow-but-working server
just throttles, and only a peer that stays completely silent for a full
timeout is declared dead.

The connection is failure-final: any socket or framing error fails every
pending future and marks the connection dead (``alive`` turns false).  The
degrade-to-miss and backoff policy stays where it was — in the client layer
above (:class:`~repro.cacheserver.client.ShardClient`), which discards dead
connections and answers locally until its backoff window allows a redial.

Thread safety: ``submit``/``fire``/``request`` may be called from any thread
(sends serialise on an internal lock); the reader thread is the only reader.
"""

from __future__ import annotations

import socket
import threading
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as _FutureTimeout

from repro.cacheserver import protocol

__all__ = ["PipelinedConnection", "MAX_IN_FLIGHT"]

#: hard bound on outstanding requests per connection; beyond it, submitters
#: block on the oldest pending future — backpressure, not unbounded memory
MAX_IN_FLIGHT = 512


class _DeadConnection(ConnectionError):
    """The connection failed; every pending and future request fails with this."""


class PipelinedConnection:
    """One persistent, multiplexed connection to a cache server.

    Connecting raises like ``socket.create_connection`` does; after that, all
    failures surface through the returned futures (and ``alive``), never as
    exceptions from ``submit``/``fire``.
    """

    def __init__(self, address: tuple[str, int], timeout: float) -> None:
        self._timeout = timeout
        self._sock = socket.create_connection(address, timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # sends keep the timeout (a wedged server must not hang a publisher
        # forever); the reader owns its own blocking recv loop below
        self._send_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: dict[int, Future] = {}
        # insertion order, for backpressure; ids resolved out of order stay
        # until they surface at the head and are skipped lazily — O(1) per
        # response instead of an O(n) scan of the whole window
        self._order: deque[int] = deque()
        self._next_id = 0
        self._dead = False
        # responses resolved so far; submitters compare snapshots of it to
        # tell a slow server (progress continues) from a silent one
        self._progress = 0
        #: high-water mark of requests simultaneously in flight — how much of
        #: the pipelining headroom traffic actually used (observability only)
        self.peak_in_flight = 0
        self._reader = threading.Thread(
            target=self._read_loop, name="charles-cache-pipeline", daemon=True
        )
        self._reader.start()

    # -- submitting ------------------------------------------------------------

    @property
    def alive(self) -> bool:
        """Whether the connection can still carry requests."""
        return not self._dead

    def submit(self, body: bytes) -> Future:
        """Send one request message; the future resolves to ``(status, payload)``.

        On a dead or failing connection the returned future carries a
        :class:`ConnectionError` — the caller decides what a failure means
        (for cache traffic: degrade to a miss).
        """
        future: Future = Future()
        with self._pending_lock:
            if self._dead:
                future.set_exception(_DeadConnection("connection is closed"))
                return future
            request_id = self._next_id
            self._next_id = (self._next_id + 1) & 0xFFFFFFFF
            self._pending[request_id] = future
            self._order.append(request_id)
            if len(self._pending) > self.peak_in_flight:
                self.peak_in_flight = len(self._pending)
            oldest_future = None
            if len(self._pending) > MAX_IN_FLIGHT:
                # skip ids the reader already resolved out of order; the
                # deque head is then the genuinely oldest pending request
                while self._order and self._order[0] not in self._pending:
                    self._order.popleft()
                if self._order:
                    oldest_future = self._pending.get(self._order[0])
        if oldest_future is not None:
            # backpressure: wait for the oldest response before queueing
            # more — but only a *silent* peer is fatal.  Any response
            # arriving resets the deadline, so a saturated window against a
            # slow server throttles the submitter instead of killing the
            # connection (and with it every pending request).
            while True:
                with self._pending_lock:
                    seen = self._progress
                try:
                    oldest_future.result(timeout=self._timeout)
                    break
                except (_FutureTimeout, TimeoutError):
                    with self._pending_lock:
                        advanced = self._progress != seen
                    if advanced:
                        continue  # slow but alive: keep waiting
                    self._fail(ConnectionError("pipelined peer stopped answering"))
                    return future
                except Exception:
                    # the oldest request itself failed: the connection is
                    # already dead or dying, surface that to our caller too
                    self._fail(ConnectionError("pipelined peer stopped answering"))
                    return future
        try:
            with self._send_lock:
                protocol.send_message(self._sock, request_id, body)
        except (OSError, protocol.ProtocolError) as error:
            self._fail(error)
        return future

    def fire(self, body: bytes) -> bool:
        """Send a request whose response nobody will wait for (pipelined PUT).

        Returns whether the send was accepted; a later failure of the actual
        request surfaces as a dead connection, which the owning client treats
        as a degrade signal on its next operation.
        """
        if self._dead:
            return False
        self.submit(body)
        return not self._dead

    def request(self, body: bytes) -> tuple[int, bytes]:
        """Send one request and block for its ``(status, payload)`` response."""
        future = self.submit(body)
        try:
            return future.result(timeout=self._timeout)
        except (_FutureTimeout, TimeoutError):
            # an unanswered request wedges everything queued behind it too:
            # the connection is useless, kill it so the client can degrade
            self._fail(ConnectionError("response timed out"))
            raise _DeadConnection("response timed out") from None

    # -- the reader ------------------------------------------------------------

    def _read_loop(self) -> None:
        """Drain frames off the socket, resolving pending futures by id.

        Reads through a local buffer so a recv timeout between chunks never
        loses a partial frame — data stays buffered until a frame completes.
        """
        buffer = bytearray()
        sock = self._sock
        while not self._dead:
            # parse every complete frame currently buffered (the server
            # coalesces response bursts, so one recv often carries many)
            try:
                frames = protocol.drain_frames(buffer)
            except protocol.ProtocolError as error:
                self._fail(error)
                return
            for frame in frames:
                try:
                    request_id, message = protocol.parse_message(frame)
                    status, payload = protocol.decode_response(message)
                except protocol.ProtocolError as error:
                    self._fail(error)
                    return
                with self._pending_lock:
                    future = self._pending.pop(request_id, None)
                    self._progress += 1  # any response is progress
                    # resolved ids are skipped lazily when they reach the
                    # order head (in submit's backpressure check) — no O(n)
                    # scan of the in-flight window per response
                    if self._order and self._order[0] == request_id:
                        self._order.popleft()
                if future is not None:
                    future.set_result((status, payload))
            try:
                chunk = sock.recv(1 << 16)
            except socket.timeout:
                continue  # idle connection; buffered partial data is kept
            except OSError as error:
                self._fail(error)
                return
            if not chunk:
                self._fail(ConnectionError("server closed the connection"))
                return
            buffer += chunk

    # -- teardown --------------------------------------------------------------

    def _fail(self, error: BaseException) -> None:
        """Mark the connection dead and fail every pending future."""
        with self._pending_lock:
            if self._dead:
                return
            self._dead = True
            pending = list(self._pending.values())
            self._pending.clear()
            self._order.clear()
        for future in pending:
            if not future.done():
                future.set_exception(_DeadConnection(str(error)))
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close on a dead socket
            pass

    def close(self) -> None:
        """Tear the connection down; pending requests fail as connection errors."""
        self._fail(ConnectionError("connection closed by the client"))
