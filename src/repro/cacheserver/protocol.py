"""The cache-server wire protocol: length-prefixed, pipelined binary frames.

Connections are persistent, so a search amortises the TCP handshake over
thousands of lookups.  Every frame is a 4-byte big-endian unsigned length
followed by that many body bytes, bounded by :data:`MAX_FRAME_BYTES` so a
corrupt or hostile peer cannot make the other side allocate gigabytes.

Since the fabric release the conversation is *pipelined*: a frame body is a
4-byte request id followed by the message, and the server echoes the id on
the matching response.  A client may therefore have many requests in flight
on one connection — it need not wait for a response before sending the next
request (:class:`~repro.cacheserver.pipeline.PipelinedConnection` pairs the
responses back up by id), so there is no one-round-trip-at-a-time latency
floor.  :func:`frame_message`/:func:`send_message` write messages;
:func:`recv_message` (blocking) and :func:`drain_frames` +
:func:`parse_message` (incremental) read them back.

Request messages start with a verb byte and a region byte:

========  =======================================================
verb      message after the (verb, region) header
========  =======================================================
``PING``  empty — liveness probe, answered with ``OK`` + ``pong``
``GET``   16-byte key digest
``PUT``   16-byte key digest, 8-byte float64 cost hint, value bytes
``LEN``   empty — entry count of the region (or all regions)
``CLEAR`` empty — drop the region's entries (or all regions')
``STATS`` empty — per-region counters as UTF-8 JSON
``TRACE`` optional 16-byte trace id — drain buffered server spans
``METRICS`` empty — Prometheus text exposition of the server
========  =======================================================

Any request may additionally carry a **trace-context header**: setting the
high bit (:data:`TRACE_FLAG`) on the verb byte inserts
:data:`TRACE_CONTEXT_SIZE` bytes — a 16-byte trace id followed by an 8-byte
parent span id — between the (verb, region) head and the verb's message.
The server then records its handling of the request as a span under that
parent (collectable via ``TRACE``), so client-side traces extend across the
socket.  Peers that never send the header (every pre-observability client)
are byte-for-byte unchanged.

Responses start with a status byte: ``HIT`` carries the stored value bytes,
``MISS`` is empty, ``OK`` carries verb-specific payloads (an 8-byte count for
``LEN``, JSON for ``STATS``),
``ERROR`` carries a UTF-8 message.  Any other status byte is a
:class:`ProtocolError`: a reader never guesses at a frame it cannot parse.

Two deliberate choices keep the server small and safe:

* **keys are digests, values are opaque.**  The client folds its namespace
  into the 16-byte :func:`~repro.cachestore.base.key_digest` and pickles the
  value *before* framing; the server stores and serves raw bytes and never
  unpickles anything, so a cache server is not a code-execution sink for
  whatever its clients send (clients still only connect to servers they
  trust, as with any pickle-carrying channel).
* **everything is stdlib.**  ``struct`` for the fixed header fields, ``json``
  for the admin payloads; no serialisation framework to version.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass

from repro.exceptions import CacheStoreError

__all__ = [
    "ProtocolError",
    "MAX_FRAME_BYTES",
    "DIGEST_SIZE",
    "PING",
    "GET",
    "PUT",
    "LEN",
    "CLEAR",
    "STATS",
    "TRACE",
    "METRICS",
    "VERB_NAMES",
    "TRACE_FLAG",
    "TRACE_CONTEXT_SIZE",
    "REGION_RESULTS",
    "REGION_ALL",
    "REGION_NAMES",
    "OK",
    "HIT",
    "MISS",
    "ERROR",
    "Request",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
    "recv_frame",
    "frame_message",
    "drain_frames",
    "send_message",
    "recv_message",
    "parse_message",
    "pack_count",
    "unpack_count",
]


class ProtocolError(CacheStoreError):
    """A malformed, truncated or oversized cache-server frame."""


#: hard bound on one frame's body; memo values are typically a few KB, so
#: anything near this is a corrupt length prefix, not a legitimate entry
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: byte length of the key digests frames carry (``key_digest`` output)
DIGEST_SIZE = 16

# request verbs
PING = 1
GET = 2
PUT = 3
LEN = 4
CLEAR = 5
STATS = 6
TRACE = 8
METRICS = 9
# id 7 (the retired batched lookup) and ids 10-13 (retired fleet-membership
# verbs) stay unassigned: they decode as unknown
_VERBS = frozenset({PING, GET, PUT, LEN, CLEAR, STATS, TRACE, METRICS})
VERB_NAMES = {
    PING: "PING",
    GET: "GET",
    PUT: "PUT",
    LEN: "LEN",
    CLEAR: "CLEAR",
    STATS: "STATS",
    TRACE: "TRACE",
    METRICS: "METRICS",
}

#: high bit of the verb byte: set when a trace-context header follows the
#: (verb, region) head
TRACE_FLAG = 0x80
#: the header's size: a 16-byte trace id followed by an 8-byte parent span id
TRACE_CONTEXT_SIZE = 24

# regions: a server hosts one, ``results``, where engines publish whole
# search results; "all" is the admin selector.  Ids 0 and 1 (the retired
# ``fits`` and ``partitions`` regions) stay unassigned: a server answers
# them like any unknown region
REGION_RESULTS = 2
REGION_ALL = 255
REGION_NAMES = {REGION_RESULTS: "results"}

# response statuses
OK = 0
HIT = 1
MISS = 2
ERROR = 3
_STATUSES = frozenset({OK, HIT, MISS, ERROR})

_LENGTH = struct.Struct(">I")
_COST = struct.Struct(">d")
_COUNT = struct.Struct(">Q")
_REQUEST_ID = struct.Struct(">I")


@dataclass(frozen=True)
class Request:
    """One decoded request frame.

    ``trace`` carries the raw trace-context header bytes (trace id + parent
    span id) when the client sent one, ``b""`` otherwise.
    """

    verb: int
    region: int
    digest: bytes = b""
    cost: float = 0.0
    payload: bytes = b""
    trace: bytes = b""


def encode_request(
    verb: int,
    region: int,
    digest: bytes = b"",
    cost: float = 0.0,
    payload: bytes = b"",
    trace: bytes = b"",
) -> bytes:
    """The body bytes of one request message."""
    if verb in (GET, PUT) and len(digest) != DIGEST_SIZE:
        raise ProtocolError(
            f"key digest must be {DIGEST_SIZE} bytes, got {len(digest)}"
        )
    if trace:
        if len(trace) != TRACE_CONTEXT_SIZE:
            raise ProtocolError(
                f"trace context must be {TRACE_CONTEXT_SIZE} bytes, got {len(trace)}"
            )
        head = bytes((verb | TRACE_FLAG, region)) + trace
    else:
        head = bytes((verb, region))
    if verb == GET:
        return head + digest
    if verb == PUT:
        return head + digest + _COST.pack(cost) + payload
    if verb == TRACE:
        if payload and len(payload) != DIGEST_SIZE:
            raise ProtocolError(
                f"TRACE filter must be empty or {DIGEST_SIZE} bytes, got {len(payload)}"
            )
        return head + payload
    return head


def decode_request(body: bytes) -> Request:
    """Parse one request body (raises :class:`ProtocolError` on malformed frames)."""
    if len(body) < 2:
        raise ProtocolError(f"request frame too short ({len(body)} bytes)")
    flagged, region = body[0], body[1]
    verb = flagged & ~TRACE_FLAG
    if verb not in _VERBS:
        raise ProtocolError(f"unknown verb {flagged}")
    trace = b""
    if flagged & TRACE_FLAG:
        if len(body) < 2 + TRACE_CONTEXT_SIZE:
            raise ProtocolError(
                f"trace-context header truncated on verb {VERB_NAMES[verb]}"
            )
        trace = body[2 : 2 + TRACE_CONTEXT_SIZE]
        # strip the header so the verb-specific offsets below stay fixed
        body = bytes((verb, region)) + body[2 + TRACE_CONTEXT_SIZE :]
    if verb == TRACE:
        payload = body[2:]
        if payload and len(payload) != DIGEST_SIZE:
            raise ProtocolError(
                f"TRACE filter must be empty or {DIGEST_SIZE} bytes, got {len(payload)}"
            )
        return Request(verb, region, payload=payload, trace=trace)
    if verb == GET:
        digest = body[2:]
        if len(digest) != DIGEST_SIZE:
            raise ProtocolError(f"GET digest must be {DIGEST_SIZE} bytes, got {len(digest)}")
        return Request(verb, region, digest=digest, trace=trace)
    if verb == PUT:
        fixed = 2 + DIGEST_SIZE + _COST.size
        if len(body) < fixed:
            raise ProtocolError(f"PUT frame too short ({len(body)} bytes)")
        digest = body[2 : 2 + DIGEST_SIZE]
        (cost,) = _COST.unpack_from(body, 2 + DIGEST_SIZE)
        return Request(verb, region, digest=digest, cost=cost, payload=body[fixed:], trace=trace)
    return Request(verb, region, trace=trace)


def encode_response(status: int, payload: bytes = b"") -> bytes:
    """The body bytes of one response frame."""
    return bytes((status,)) + payload


def decode_response(body: bytes) -> tuple[int, bytes]:
    """Parse one response body into ``(status, payload)``."""
    if not body:
        raise ProtocolError("empty response frame")
    status = body[0]
    if status not in _STATUSES:
        raise ProtocolError(f"unknown response status {status}")
    return status, body[1:]


def pack_count(count: int) -> bytes:
    """The 8-byte payload of a ``LEN`` response."""
    return _COUNT.pack(count)


def unpack_count(payload: bytes) -> int:
    """The entry count carried by a ``LEN`` response payload."""
    if len(payload) != _COUNT.size:
        raise ProtocolError(f"LEN payload must be {_COUNT.size} bytes, got {len(payload)}")
    return _COUNT.unpack(payload)[0]


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Exactly ``count`` bytes, or ``None`` on a clean EOF at a frame boundary."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if chunks:
                raise ProtocolError("connection closed mid-frame")
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> bytes | None:
    """Read one frame body, or ``None`` when the peer closed the connection.

    A close between frames is the normal end of a conversation; a close in
    the middle of one, or a length prefix past :data:`MAX_FRAME_BYTES`, is a
    :class:`ProtocolError`.
    """
    prefix = _recv_exact(sock, _LENGTH.size)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    if length == 0:
        return b""
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    return body


def frame_message(request_id: int, body: bytes) -> bytes:
    """The full wire bytes of one pipelined message, length prefix included.

    Peers that batch — the server coalescing a burst of responses into one
    ``sendall``, a client queueing sends — build messages with this and
    concatenate, instead of paying one syscall per message.
    """
    framed = _REQUEST_ID.pack(request_id & 0xFFFFFFFF) + body
    if len(framed) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(framed)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LENGTH.pack(len(framed)) + framed


def drain_frames(buffer: bytearray) -> list[bytes]:
    """Consume every complete frame currently in ``buffer``, in arrival order.

    Incremental parsing for peers that read in bulk: call after appending
    each ``recv`` chunk; complete frames are removed from ``buffer`` and
    returned, a trailing partial frame stays buffered for the next chunk.
    Raises :class:`ProtocolError` on a length prefix past
    :data:`MAX_FRAME_BYTES` (the stream is unrecoverable — framing is lost).
    """
    frames: list[bytes] = []
    while len(buffer) >= _LENGTH.size:
        (length,) = _LENGTH.unpack_from(buffer)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
        end = _LENGTH.size + length
        if len(buffer) < end:
            break
        frames.append(bytes(buffer[_LENGTH.size : end]))
        del buffer[:end]
    return frames


def send_message(sock: socket.socket, request_id: int, body: bytes) -> None:
    """Write one pipelined message: a frame whose body is ``id + body``.

    Request ids are an unsigned 32-bit counter per connection (wrapping is
    fine — a connection never has 2^32 requests in flight); the server echoes
    the id on the matching response so a pipelined client can pair responses
    with requests regardless of how many are outstanding.
    """
    sock.sendall(frame_message(request_id, body))


def recv_message(sock: socket.socket) -> tuple[int, bytes] | None:
    """Read one pipelined message as ``(request_id, body)``; ``None`` on EOF."""
    frame = recv_frame(sock)
    if frame is None:
        return None
    return parse_message(frame)


def parse_message(frame: bytes) -> tuple[int, bytes]:
    """Split an already-received frame body into ``(request_id, message)``."""
    if len(frame) < _REQUEST_ID.size:
        raise ProtocolError(f"message frame too short ({len(frame)} bytes)")
    (request_id,) = _REQUEST_ID.unpack_from(frame)
    return request_id, frame[_REQUEST_ID.size :]
