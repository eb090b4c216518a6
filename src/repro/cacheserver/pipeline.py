"""A pipelined cache-server connection: requests in flight, one wake per read.

:class:`PipelinedConnection` is one persistent socket to one shard, driven
entirely by the thread that calls it.  There is no reader thread: a caller
that needs an answer sends its request and reads the socket itself until its
response arrives.  The server answers each connection's frames in arrival
order and echoes their request ids
(:func:`~repro.cacheserver.protocol.send_message`), which is all the pairing
the client needs.

:meth:`~PipelinedConnection.submit` sends a request and returns its id;
:meth:`~PipelinedConnection.collect` reads until that id's response is in.
Splitting the two lets a caller put requests in flight on several shards
before it waits for any: the fabric casts a ``PUT`` to every replica first
and then collects the acknowledgements, so R replicas answer in one
overlapped round trip.  :meth:`~PipelinedConnection.request` is the two in
one.

A peer that stays silent for a full ``timeout`` is dead; a slow peer that
keeps answering is not, because the timeout applies to each read.  The
connection is failure-final: a socket or framing error closes it, ``alive``
turns false and every later call raises :class:`ConnectionError`.
Degrade-to-miss and backoff live in the client layer above
(:class:`~repro.cacheserver.client.ShardClient`).

A connection belongs to one thread at a time: its caller, or the engine
session that holds it.
"""

from __future__ import annotations

import socket

from repro.cacheserver import protocol

__all__ = ["PipelinedConnection"]


class _DeadConnection(ConnectionError):
    """The connection failed; every later request fails with this."""


class PipelinedConnection:
    """One persistent connection to a cache server, driven by its caller.

    Connecting raises like ``socket.create_connection`` does.  After that,
    :meth:`submit`, :meth:`collect` and :meth:`request` raise
    :class:`ConnectionError` (a garbled response stream included) once the
    connection is dead.
    """

    def __init__(self, address: tuple[str, int], timeout: float) -> None:
        self._sock = socket.create_connection(address, timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._inbox = bytearray()  # received bytes not yet framed
        # request id -> response, None until it arrives
        self._awaited: dict[int, tuple[int, bytes] | None] = {}
        self._next_id = 0
        self._dead = False

    @property
    def alive(self) -> bool:
        """Whether the connection can still carry requests."""
        return not self._dead

    def submit(self, body: bytes) -> int:
        """Send one request without waiting for its answer; returns its id."""
        self._check_alive()
        request_id = self._next_id
        self._next_id = (request_id + 1) & 0xFFFFFFFF
        self._awaited[request_id] = None
        try:
            self._sock.sendall(protocol.frame_message(request_id, body))
        except OSError as error:
            self._fail()
            raise _DeadConnection(f"send failed: {error}") from None
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

    def _check_alive(self) -> None:
        if self._dead:
            raise _DeadConnection("connection is closed")

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
                if request_id not in self._awaited:
                    raise protocol.ProtocolError(
                        f"response to request {request_id} that is not in flight"
                    )
                self._awaited[request_id] = protocol.decode_response(message)
        except protocol.ProtocolError as error:
            self._fail()
            raise _DeadConnection(f"garbled response stream: {error}") from None

    def _fail(self) -> None:
        """Mark the connection dead and close the socket (idempotent)."""
        if self._dead:
            return
        self._dead = True
        self._awaited.clear()
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close on a dead socket
            pass

    def close(self) -> None:
        """Tear the connection down (idempotent)."""
        self._fail()
