"""A pipelined cache-server connection: write-behind PUTs, one wake per read.

:class:`PipelinedConnection` is one persistent socket to one shard, driven
entirely by the thread that calls it.  There is no reader thread: a caller
that needs an answer sends its request and reads the socket itself until its
response arrives.  The server answers each connection's frames in arrival
order and echoes their request ids
(:func:`~repro.cacheserver.protocol.send_message`), which is all the pairing
the client needs.

Two kinds of traffic share the socket:

* **write-behind writes** — :meth:`PipelinedConnection.fire` frames a ``PUT``
  into a per-connection outbox and returns.  The outbox leaves in the same
  ``sendall`` as the next request to the shard, so a search pays one shard
  wake per blocking read instead of one per key.  Arrival order gives
  read-your-writes: a ``GET`` queued behind buffered ``PUT``\\ s is answered
  after them.  The outbox also leaves on :meth:`~PipelinedConnection.flush`,
  on :meth:`~PipelinedConnection.close` and once it passes
  :data:`WRITE_BEHIND_BYTES`;
* **blocking reads** — :meth:`~PipelinedConnection.submit` sends a request
  (with the outbox) and returns its id; :meth:`~PipelinedConnection.collect`
  reads until that id's response is in.  The fabric submits one ``MGET`` per
  shard before it collects any, so N shards answer in one overlapped round
  trip.

Nobody waits for a ``PUT``'s acknowledgement.  Acknowledgements are read and
dropped on the way to a response, and drained without blocking before each
send, so the server never stalls writing to a client that is not reading.
:meth:`~PipelinedConnection.flush` reads every acknowledgement still owed:
once it returns, every other client sees the entries.

A peer that stays silent for a full ``timeout`` is dead; a slow peer that
keeps answering is not, because the timeout applies to each read.  The
connection is failure-final: a socket or framing error closes it, ``alive``
turns false and every later call raises :class:`ConnectionError`.
:attr:`~PipelinedConnection.unacknowledged` then counts the ``PUT``\\ s the
shard may never have stored.  Degrade-to-miss and backoff live in the client
layer above (:class:`~repro.cacheserver.client.ShardClient`).

A connection belongs to one thread at a time: its caller, or the engine
session that holds it.
"""

from __future__ import annotations

import select
import socket

from repro.cacheserver import protocol

__all__ = ["PipelinedConnection", "WRITE_BEHIND_BYTES"]

#: outbox size past which buffered PUT frames go out without waiting for the
#: next request (bounds client memory and the burst the server parses at once)
WRITE_BEHIND_BYTES = 64 * 1024


class _DeadConnection(ConnectionError):
    """The connection failed; every later request fails with this."""


class PipelinedConnection:
    """One persistent connection to a cache server, driven by its caller.

    Connecting raises like ``socket.create_connection`` does.  After that,
    :meth:`submit`, :meth:`collect`, :meth:`request` and :meth:`flush` raise
    :class:`ConnectionError` (a garbled response stream included) and
    :meth:`fire` returns ``False`` once the connection is dead.
    """

    def __init__(self, address: tuple[str, int], timeout: float) -> None:
        self._sock = socket.create_connection(address, timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._poller = select.poll()
        self._poller.register(self._sock, select.POLLIN)
        self._inbox = bytearray()  # received bytes not yet framed
        self._outbox = bytearray()  # framed PUTs not yet sent
        self._buffered = 0  # PUT frames in the outbox
        self._acks_owed = 0  # PUT frames sent whose acknowledgement is unread
        # request id -> response, None until it arrives (ids someone collects)
        self._awaited: dict[int, tuple[int, bytes] | None] = {}
        self._next_id = 0
        self._dead = False

    @property
    def alive(self) -> bool:
        """Whether the connection can still carry requests."""
        return not self._dead

    @property
    def unacknowledged(self) -> int:
        """``PUT`` frames not known to have reached the server (buffered or unacked)."""
        return self._buffered + self._acks_owed

    # -- writes ------------------------------------------------------------------

    def fire(self, body: bytes) -> bool:
        """Buffer a request nobody waits for (a write-behind ``PUT``).

        Returns whether the connection is still alive; the frame leaves with
        the next send.
        """
        if self._dead:
            return False
        self._outbox += protocol.frame_message(self._take_id(), body)
        self._buffered += 1
        if len(self._outbox) > WRITE_BEHIND_BYTES:
            try:
                self._send(b"")
            except ConnectionError:
                return False
        return True

    def flush(self) -> None:
        """Send the outbox and read every acknowledgement still owed.

        Once this returns, the server has stored every ``PUT`` fired on this
        connection, so every other client sees them.
        """
        self._check_alive()
        if self._outbox:
            self._send(b"")
        while self._acks_owed:
            self._receive()

    # -- blocking reads ------------------------------------------------------------

    def submit(self, body: bytes) -> int:
        """Send one request, with the outbox in front of it; returns its id."""
        self._check_alive()
        request_id = self._take_id()
        self._awaited[request_id] = None
        self._send(protocol.frame_message(request_id, body))
        return request_id

    def collect(self, request_id: int) -> tuple[int, bytes]:
        """Read until the response to ``request_id`` arrives; ``(status, payload)``."""
        while self._awaited.get(request_id) is None:
            self._check_alive()
            self._receive()
        return self._awaited.pop(request_id)

    def request(self, body: bytes) -> tuple[int, bytes]:
        """Send one request and block for its ``(status, payload)`` response."""
        return self.collect(self.submit(body))

    # -- the socket ------------------------------------------------------------------

    def _take_id(self) -> int:
        request_id = self._next_id
        self._next_id = (request_id + 1) & 0xFFFFFFFF
        return request_id

    def _check_alive(self) -> None:
        if self._dead:
            raise _DeadConnection("connection is closed")

    def _send(self, frame: bytes) -> None:
        """One ``sendall`` of the outbox plus ``frame``."""
        if self._acks_owed:
            # take in what the server already answered, so its writes to
            # this socket never back up behind a client that is not reading
            while self._poller.poll(0):
                self._receive()
        data = self._outbox + frame if self._outbox else frame
        try:
            self._sock.sendall(data)
        except OSError as error:
            self._fail()
            raise _DeadConnection(f"send failed: {error}") from None
        self._acks_owed += self._buffered
        self._buffered = 0
        self._outbox.clear()

    def _receive(self) -> None:
        """One ``recv``, then file every frame it completed.

        The socket's timeout bounds the wait, so a peer silent for a full
        ``timeout`` is dead while a slow one that keeps answering is not.
        """
        try:
            chunk = self._sock.recv(1 << 16)
        except OSError as error:  # a timeout included
            self._fail()
            raise _DeadConnection(f"receive failed: {error}") from None
        if not chunk:
            self._fail()
            raise _DeadConnection("server closed the connection")
        self._inbox += chunk
        try:
            for frame in protocol.drain_frames(self._inbox):
                request_id, message = protocol.parse_message(frame)
                response = protocol.decode_response(message)
                if request_id in self._awaited:
                    self._awaited[request_id] = response
                elif self._acks_owed:
                    self._acks_owed -= 1  # a PUT acknowledgement: nobody reads it
                else:
                    raise protocol.ProtocolError(
                        f"response to request {request_id} that is not in flight"
                    )
        except protocol.ProtocolError as error:
            self._fail()
            raise _DeadConnection(f"garbled response stream: {error}") from None

    # -- teardown --------------------------------------------------------------------

    def _fail(self) -> None:
        """Mark the connection dead and close the socket (idempotent)."""
        if self._dead:
            return
        self._dead = True
        self._outbox.clear()
        self._awaited.clear()
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close on a dead socket
            pass

    def close(self) -> None:
        """Publish what is buffered, then tear the connection down.

        A failure while publishing is not raised: :attr:`unacknowledged`
        counts what the shard may not have stored.
        """
        if not self._dead:
            try:
                self.flush()
            except ConnectionError:
                pass  # counted through `unacknowledged` by the owner
        self._fail()
