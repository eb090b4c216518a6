"""The client side of one cache server: shard connections and admin calls.

A :class:`ShardClient` is one endpoint's :class:`~repro.cacheserver.pipeline.
PipelinedConnection` plus its degrade/backoff state.  It is the unit the
sharded fabric (:mod:`repro.cacheserver.fabric`) composes N times over a
hash ring — and the fabric is the one remote client: ``cache_backend=
"remote"`` builds a :class:`~repro.cacheserver.fabric.ShardedRemoteBackend`
even for a single endpoint.  Lookups block for their answer, publishes are
fire-and-forget, and any number of requests may be in flight on the one
socket, so cache traffic does not serialise a search on round-trip latency.
The module also carries the wire-value codec (:func:`encode_value` /
:func:`decode_value`) and the admin helpers behind ``charles cache``
(``server_stats``, ``server_clear``, ...), which raise instead of degrading.

The cardinal rule is *degrade, never abort* — stronger here than for the disk
backend, because the failure domain includes another machine: a server that
is down, restarting, or unreachable turns every lookup into a miss and every
publish into a no-op.  The search recomputes and carries on; a cache server
outage can cost time, never correctness.  After a connection failure the
client backs off on *both* axes before the next reconnection attempt:
:data:`RETRY_AFTER_OPS` operations answered locally (so a refused connect is
paid once per batch of lookups, not once per lookup) and an exponentially
growing wall-clock window (:data:`RETRY_BACKOFF_SECONDS` doubling up to
:data:`MAX_RETRY_BACKOFF_SECONDS` — so a *blackholed* server, whose connect
attempts block for the full timeout instead of failing fast, stalls a tight
search loop at most once per window rather than every 64 lookups).  Even
construction never contacts the server — a fleet member must be able to
boot while the cache service is still coming up.

Values are pickled on the client and opaque to the server; whoever can write
to the server can therefore execute code in every client that reads it back
— ``cache_url`` must point at a server on a trusted network, exactly like a
shared ``cache_dir`` must be a trusted directory.
"""

from __future__ import annotations

import json
import os
import pickle
import socket
import time
from typing import Any

from repro.cachestore.base import MISSING
from repro.cachestore.disk import _UNPICKLE_ERRORS
from repro.cacheserver import protocol
from repro.cacheserver.pipeline import PipelinedConnection
from repro.exceptions import CacheStoreError
from repro.obs.metrics import get_registry

__all__ = [
    "ShardClient",
    "parse_url",
    "server_stats",
    "server_clear",
    "server_ping",
    "server_metrics",
    "server_trace",
]

#: engine-side per-endpoint round-trip latency, labelled by shard URL — the
#: "which shard is slow" half of the fabric's observability (the server-side
#: half is each shard's own ``METRICS`` exposition)
_RPC_SECONDS = get_registry().histogram(
    "charles_remote_rpc_seconds",
    "Blocking cache-server round-trip latency, by endpoint",
    labels=("endpoint",),
)

#: operations answered locally (miss / dropped put) after a connection
#: failure before the next reconnection attempt
RETRY_AFTER_OPS = 64

#: wall-clock floor between reconnection attempts, doubling per consecutive
#: failure up to the cap — bounds how often a blackholed server (connects
#: that hang for the full timeout rather than failing fast) can stall a search
RETRY_BACKOFF_SECONDS = 1.0
MAX_RETRY_BACKOFF_SECONDS = 30.0

#: default seconds to wait for a connect or a response frame
DEFAULT_TIMEOUT = 5.0


def parse_url(url: str) -> tuple[str, int]:
    """``host:port`` (an optional ``tcp://`` prefix is tolerated) → address."""
    trimmed = url.removeprefix("tcp://")
    host, separator, port_text = trimmed.rpartition(":")
    if not separator or not host:
        raise CacheStoreError(f"cache_url must look like host:port, got {url!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise CacheStoreError(f"cache_url port must be an integer, got {url!r}") from None
    if not 0 < port < 65536:
        raise CacheStoreError(f"cache_url port must be in 1..65535, got {port}")
    return host, port


def encode_value(value: Any) -> bytes | None:
    """Pickle a value for the wire, or ``None`` when it cannot be published."""
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) + 2 + protocol.DIGEST_SIZE + 8 > protocol.MAX_FRAME_BYTES:
        return None  # pathological value: publishing is an optimisation, skip it
    return payload


def decode_value(payload: bytes) -> Any:
    """Unpickle a served value; a foreign or stale blob degrades to MISSING."""
    try:
        return pickle.loads(payload)
    except _UNPICKLE_ERRORS:
        return MISSING


class ShardClient:
    """One cache-server endpoint: a pipelined connection plus degrade state.

    This is the unit the fabric replicates — each endpoint gets its own
    op-budget and backoff window, so one dead shard degrades alone while its
    peers keep answering.  All three entry points answer ``None``/``False``
    instead of raising while the endpoint is degraded or freshly failing:

    * :meth:`call` — send one request and block for its response;
    * :meth:`cast` — fire-and-forget (pipelined ``PUT``): the send is
      accounted as a round trip and nobody waits for the response frame;
    * :meth:`mget` — one batched lookup resolving a whole round of keys in a
      single round trip.
    """

    def __init__(self, url: str, timeout: float = DEFAULT_TIMEOUT) -> None:
        self.url = url
        self._address = parse_url(url)  # fail fast on a malformed URL only
        self._timeout = timeout
        self._conn: PipelinedConnection | None = None
        self._pid: int | None = None
        self._ops_until_retry = 0
        self._retry_not_before = 0.0
        self._current_backoff = RETRY_BACKOFF_SECONDS
        self.round_trips = 0
        self.connection_failures = 0

    # -- connection & degrade state --------------------------------------------

    @property
    def degraded(self) -> bool:
        """Whether the next operation would be answered locally, wire untouched."""
        if self._ops_until_retry > 0:
            return True
        conn = self._conn
        if conn is not None and self._pid == os.getpid() and conn.alive:
            return False
        return time.monotonic() < self._retry_not_before

    def _record_failure(self) -> None:
        self.connection_failures += 1
        self._drop_connection()
        self._ops_until_retry = RETRY_AFTER_OPS
        self._retry_not_before = time.monotonic() + self._current_backoff
        self._current_backoff = min(self._current_backoff * 2, MAX_RETRY_BACKOFF_SECONDS)

    def _drop_connection(self) -> None:
        conn, owned = self._conn, self._pid == os.getpid()
        self._conn = None
        self._pid = None
        if conn is not None and owned:
            conn.close()

    def _acquire(self) -> PipelinedConnection | None:
        """The live connection for one operation, or ``None`` while degraded."""
        if self._ops_until_retry > 0:
            self._ops_until_retry -= 1
            return None
        conn = self._conn
        if conn is not None and self._pid != os.getpid():
            # a connection must never cross a fork: the parent still owns it
            # (and its reader thread did not survive into this process)
            self._conn = conn = None
        if conn is not None and not conn.alive:
            # the reader noticed the peer die since our last operation
            self._record_failure()
            return None
        if conn is None:
            if time.monotonic() < self._retry_not_before:
                return None  # still inside the wall-clock backoff window
            try:
                conn = PipelinedConnection(self._address, self._timeout)
            except OSError:
                self._record_failure()
                return None
            self._conn = conn
            self._pid = os.getpid()
        return conn

    # -- operations --------------------------------------------------------------

    def call(self, body: bytes) -> tuple[int, bytes] | None:
        """One blocking request, or ``None`` while degraded / on a fresh failure."""
        conn = self._acquire()
        if conn is None:
            return None
        started = time.perf_counter()
        try:
            response = conn.request(body)
        except (OSError, protocol.ProtocolError):
            self._record_failure()
            return None
        _RPC_SECONDS.observe(time.perf_counter() - started, endpoint=self.url)
        self.round_trips += 1
        self._current_backoff = RETRY_BACKOFF_SECONDS  # healthy again
        return response

    def cast(self, body: bytes) -> bool:
        """One fire-and-forget request; returns whether the send was accepted."""
        conn = self._acquire()
        if conn is None:
            return False
        if not conn.fire(body):
            self._record_failure()
            return False
        self.round_trips += 1
        return True

    def mget_begin(self, region: int, digests: tuple[bytes, ...], trace: bytes = b""):
        """Start a batched lookup without waiting; ``None`` while degraded.

        The fabric fans one ``MGET`` out per shard and *then* collects, so a
        round's lookups across N shards overlap instead of paying N
        sequential round trips.  Pass the returned future to
        :meth:`mget_finish`.  ``trace`` (a packed wire context) makes the
        server record its handling as a span under the caller's.
        """
        conn = self._acquire()
        if conn is None:
            return None
        return conn.submit(
            protocol.encode_request(protocol.MGET, region, digests=digests, trace=trace)
        )

    def mget_finish(self, future, count: int) -> list[bytes | None] | None:
        """Collect a started batch: per-key value bytes, or ``None`` degraded."""
        started = time.perf_counter()
        try:
            answer = future.result(timeout=self._timeout)
        except Exception:
            self._record_failure()
            return None
        _RPC_SECONDS.observe(time.perf_counter() - started, endpoint=self.url)
        self.round_trips += 1
        self._current_backoff = RETRY_BACKOFF_SECONDS  # healthy again
        if answer[0] != protocol.OK:
            return None
        try:
            return protocol.unpack_multi(answer[1], count)
        except protocol.ProtocolError:
            self._record_failure()  # a corrupt batch means the stream is toast
            return None

    def mget(self, region: int, digests: tuple[bytes, ...]) -> list[bytes | None] | None:
        """Batched lookup: per-key value bytes (``None`` = miss), or ``None`` degraded."""
        if not digests:
            return []
        future = self.mget_begin(region, digests)
        if future is None:
            return None
        return self.mget_finish(future, len(digests))

    def close(self) -> None:
        self._drop_connection()


# -- admin helpers (the ``charles cache`` command) ---------------------------------


def _admin_request(url: str, body: bytes, timeout: float = DEFAULT_TIMEOUT) -> tuple[int, bytes]:
    """One request over a throwaway connection; raises on any failure.

    Admin calls are the opposite of cache traffic: an operator asking for
    stats wants the error, not a silent degrade.
    """
    address = parse_url(url)
    try:
        with socket.create_connection(address, timeout=timeout) as sock:
            protocol.send_message(sock, 0, body)
            response = protocol.recv_message(sock)
    except OSError as error:
        raise CacheStoreError(f"cannot reach cache server at {url}: {error}") from error
    if response is None:
        raise CacheStoreError(f"cache server at {url} closed the connection")
    status, payload = protocol.decode_response(response[1])
    if status == protocol.ERROR:
        raise CacheStoreError(
            f"cache server at {url} refused the request: {payload.decode('utf-8', 'replace')}"
        )
    return status, payload


def server_ping(url: str, timeout: float = DEFAULT_TIMEOUT) -> bool:
    """Whether a cache server answers at ``url`` (raises if unreachable)."""
    status, payload = _admin_request(
        url, protocol.encode_request(protocol.PING, protocol.REGION_ALL), timeout
    )
    return status == protocol.OK and payload == b"pong"


def server_stats(url: str, timeout: float = DEFAULT_TIMEOUT) -> dict:
    """The server's ``STATS`` payload (per-region counters, totals) as a dict."""
    _, payload = _admin_request(
        url, protocol.encode_request(protocol.STATS, protocol.REGION_ALL), timeout
    )
    return json.loads(payload.decode("utf-8"))


def server_clear(url: str, timeout: float = DEFAULT_TIMEOUT) -> None:
    """Drop every entry in every region of the server at ``url``."""
    _admin_request(
        url, protocol.encode_request(protocol.CLEAR, protocol.REGION_ALL), timeout
    )


def server_metrics(url: str, timeout: float = DEFAULT_TIMEOUT) -> str:
    """The server's Prometheus text exposition (the ``METRICS`` payload)."""
    _, payload = _admin_request(
        url, protocol.encode_request(protocol.METRICS, protocol.REGION_ALL), timeout
    )
    return payload.decode("utf-8")


def server_trace(
    url: str, trace_id: str | None = None, timeout: float = DEFAULT_TIMEOUT
) -> list[dict]:
    """Drain the server's buffered spans (optionally one trace's) as dicts.

    A traced engine calls this per shard after a run and absorbs the result
    into its own sink, stitching server-side verb handling into the client
    trace.  Passing ``trace_id`` leaves other engines' spans buffered for
    *their* collection.
    """
    filter_bytes = bytes.fromhex(trace_id) if trace_id else b""
    _, payload = _admin_request(
        url,
        protocol.encode_request(protocol.TRACE, protocol.REGION_ALL, payload=filter_bytes),
        timeout,
    )
    return json.loads(payload.decode("utf-8"))
