"""The cache service core: one process holding the results cache for a whole fleet.

:class:`CacheServerCore` holds everything request-shaped, and
:class:`~repro.cacheserver.aserver.AsyncCacheServer` puts it on the wire
(one ``asyncio`` event loop multiplexing every connection; what
``charles cache-server`` runs).  The core hosts one region, ``results``,
where engines publish whole search results: an
:class:`~repro.cachestore.memory.InProcessBackend` behind the same
:class:`~repro.cachestore.base.CacheBackend` interface the rest of the
cachestore uses — the server is just another place entries live, reached
through :mod:`repro.cacheserver.protocol` frames instead of a function call.
Entries are opaque ``digest → bytes`` pairs: clients digest and pickle on
their side, so the server never deserialises anything it is sent.

A bounded region evicts by the rule every results store follows: the
oldest write goes first, and an overwrite counts as a new write.  The
``PUT`` frame's reserved 8 bytes, once a cost hint, are read and ignored.

Operational surface:

* ``PING``/``STATS`` admin verbs (liveness; per-region entry counts and
  hit/miss/eviction counters, request and error totals, as JSON) — also
  reachable from the shell via
  ``charles cache {stats,clear} --cache-url`` and ``charles cache-server``;
* ``METRICS``: a Prometheus text exposition (per-verb request and error
  counters and latency histograms, in-flight connections, region sizes and
  evictions, uptime) rendered by a per-server
  :class:`~repro.obs.metrics.MetricsRegistry` — ``charles cache stats
  --metrics`` scrapes it per shard;
* ``TRACE``: requests whose verb byte carries the protocol's trace-context
  header are recorded as spans (name ``server.<verb>``, parented under the
  client-side span that issued them) into a bounded in-memory buffer, which
  ``TRACE`` drains — optionally filtered to one trace id, so concurrent
  engines sharing a shard each collect only their own spans;
* a lock around the region, so :meth:`~CacheServerCore.stats` called from
  another thread than the transport's never reads it mid-update.

A server knows nothing of its fleet: which shard owns a key is decided on
the client side by the :class:`~repro.cacheserver.ring.HashRing` over the
static ``cache_url`` endpoint list.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque

from repro.cachestore.base import MISSING, BackendCounters
from repro.cachestore.memory import InProcessBackend
from repro.cacheserver import protocol
from repro.exceptions import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SPAN_ID_BYTES, TRACE_ID_BYTES, Span, new_span_id

__all__ = [
    "CacheServerCore",
    "DEFAULT_PORT",
    "MAX_BUFFERED_SPANS",
]

#: the port ``charles cache-server`` binds when none is given
DEFAULT_PORT = 8737

#: bound on the server-side span buffer: uncollected spans (a client that
#: enabled tracing but never drained) age out instead of growing the server
MAX_BUFFERED_SPANS = 10000

_ZERO_PARENT = b"\x00" * SPAN_ID_BYTES


def _error_response(error: protocol.ProtocolError) -> bytes:
    return protocol.encode_response(protocol.ERROR, str(error).encode("utf-8"))


class CacheServerCore:
    """Transport-independent cache-server state and request handling.

    Hosts the results region, its lock, metrics and span buffer;
    :meth:`dispatch` turns one decoded request body into one response body.
    :class:`~repro.cacheserver.aserver.AsyncCacheServer` provides the wire:
    accepting connections, draining frames, calling :meth:`dispatch` per
    message and writing coalesced response bursts.  ``capacity`` bounds the
    region's entry count (oldest write evicted first beyond it).
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            # ConfigurationError, not ValueError: the CLI turns it into a
            # clean `error: ...` + exit 2 like every other bad flag
            raise ConfigurationError(
                f"cache-server capacity must be >= 1 or unbounded, got {capacity}"
            )
        self._results = InProcessBackend(capacity)
        self._results_lock = threading.Lock()
        self._capacity = capacity
        self._requests = 0
        self._errors = 0
        self._connection_errors = 0
        self._requests_lock = threading.Lock()
        self._started = time.time()
        self._spans: deque = deque(maxlen=MAX_BUFFERED_SPANS)
        self._spans_lock = threading.Lock()
        self._metrics = MetricsRegistry()
        self._requests_total = self._metrics.counter(
            "cacheserver_requests_total", "Requests handled, by verb", labels=("verb",)
        )
        self._request_errors_total = self._metrics.counter(
            "cacheserver_request_errors_total",
            "Requests answered with ERROR, by verb ('unknown' when the frame did not decode)",
            labels=("verb",),
        )
        self._connection_errors_total = self._metrics.counter(
            "cacheserver_connection_errors_total",
            "Client connections dropped by a socket error (a reset or broken pipe)",
        )
        self._request_seconds = self._metrics.histogram(
            "cacheserver_request_seconds", "Request handling latency, by verb", labels=("verb",)
        )
        self._inflight = self._metrics.gauge(
            "cacheserver_connections_inflight", "Currently open client connections"
        )
        self._inflight.set(0)  # the transport keeps it current
        self._region_entries = self._metrics.gauge(
            "cacheserver_region_entries", "Entries held per region", labels=("region",)
        )
        self._region_evictions = self._metrics.gauge(
            "cacheserver_region_evictions", "Entries evicted per region", labels=("region",)
        )
        self._region_hits = self._metrics.gauge(
            "cacheserver_region_hits", "Lookup hits per region", labels=("region",)
        )
        self._region_misses = self._metrics.gauge(
            "cacheserver_region_misses", "Lookup misses per region", labels=("region",)
        )
        self._uptime = self._metrics.gauge(
            "cacheserver_uptime_seconds", "Seconds since the server started"
        )

    # -- identity (provided by the transport) -----------------------------------

    @property
    def address(self) -> tuple[str, int]:  # pragma: no cover - transport provides
        raise NotImplementedError

    @property
    def url(self) -> str:
        """The ``host:port`` string clients pass as ``cache_url``."""
        host, port = self.address
        return f"{host}:{port}"

    # -- request handling --------------------------------------------------------

    def dispatch(self, body: bytes) -> bytes:
        """The response body for one request body (called by the transport).

        A malformed request (unknown verb or region, bad digest, truncated
        header) is answered with an ``ERROR`` response carrying the reason;
        the conversation goes on, and the error is counted by verb
        (``"unknown"`` when the frame did not decode).  All observability
        happens here, around :meth:`_handle`: the per-verb request counter
        and latency histogram always run (they are two dict updates), a span
        is recorded only when the client shipped a trace-context header on
        the verb byte.
        """
        try:
            request = protocol.decode_request(body)
        except protocol.ProtocolError as error:
            self._count_error("unknown")
            return _error_response(error)
        with self._requests_lock:
            self._requests += 1
        verb_name = protocol.VERB_NAMES[request.verb]
        started_wall = time.time()
        started = time.perf_counter()
        outcome = "ok"
        try:
            return self._handle(request)
        except protocol.ProtocolError as error:
            outcome = "error"
            self._count_error(verb_name)
            return _error_response(error)
        finally:
            elapsed = time.perf_counter() - started
            self._requests_total.inc(verb=verb_name)
            self._request_seconds.observe(elapsed, verb=verb_name)
            if request.trace:
                self._record_span(request, verb_name, started_wall, elapsed, outcome)

    def _count_error(self, verb_name: str) -> None:
        with self._requests_lock:
            self._errors += 1
        self._request_errors_total.inc(verb=verb_name)

    def _count_connection_error(self) -> None:
        """Count a connection the transport lost to a socket error."""
        with self._requests_lock:
            self._connection_errors += 1
        self._connection_errors_total.inc()

    def _handle(self, request: protocol.Request) -> bytes:
        if request.verb == protocol.PING:
            return protocol.encode_response(protocol.OK, b"pong")
        if request.verb == protocol.METRICS:
            return protocol.encode_response(
                protocol.OK, self.metrics_text().encode("utf-8")
            )
        if request.verb == protocol.TRACE:
            drained = self._drain_spans(
                request.payload.hex() if request.payload else None
            )
            return protocol.encode_response(
                protocol.OK, json.dumps(drained).encode("utf-8")
            )
        if request.verb == protocol.STATS:
            payload = json.dumps(self.stats()).encode("utf-8")
            return protocol.encode_response(protocol.OK, payload)
        # LEN and CLEAR also accept REGION_ALL, which is the results region
        if request.region != protocol.REGION_RESULTS and not (
            request.region == protocol.REGION_ALL
            and request.verb in (protocol.LEN, protocol.CLEAR)
        ):
            raise protocol.ProtocolError(f"unknown region {request.region}")
        with self._results_lock:
            if request.verb == protocol.LEN:
                return protocol.encode_response(
                    protocol.OK, protocol.pack_count(len(self._results))
                )
            if request.verb == protocol.CLEAR:
                self._results.clear()
                return protocol.encode_response(protocol.OK)
            if request.verb == protocol.GET:
                value = self._results.get(request.digest)
                if value is MISSING:
                    return protocol.encode_response(protocol.MISS)
                return protocol.encode_response(protocol.HIT, value)
            # PUT: the payload is opaque bytes
            self._results.put(request.digest, request.payload)
        return protocol.encode_response(protocol.OK)

    # -- span buffering ----------------------------------------------------------

    def _record_span(
        self,
        request: protocol.Request,
        verb_name: str,
        started_wall: float,
        elapsed: float,
        outcome: str,
    ) -> None:
        """Buffer one server-side span under the client's wire context."""
        trace_id = request.trace[:TRACE_ID_BYTES].hex()
        parent = request.trace[TRACE_ID_BYTES:]
        record = Span(
            name=f"server.{verb_name.lower()}",
            trace_id=trace_id,
            span_id=new_span_id(),
            parent_id=None if parent == _ZERO_PARENT else parent.hex(),
            start=started_wall,
            duration=elapsed,
            attributes={
                "url": self.url,
                "region": protocol.REGION_NAMES.get(request.region, "all"),
            },
            outcome=outcome,
            process="server",
        ).as_dict()
        with self._spans_lock:
            self._spans.append(record)

    def _drain_spans(self, trace_id: str | None) -> list[dict]:
        """Remove and return buffered spans, optionally for one trace only."""
        with self._spans_lock:
            if trace_id is None:
                drained = list(self._spans)
                self._spans.clear()
                return drained
            drained = [span for span in self._spans if span["trace"] == trace_id]
            kept = [span for span in self._spans if span["trace"] != trace_id]
            self._spans.clear()
            self._spans.extend(kept)
            return drained

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict:
        """Per-region counters plus server-level totals (the ``STATS`` payload)."""
        counters, entries = self._results_state()
        with self._requests_lock:
            requests, errors = self._requests, self._errors
            connection_errors = self._connection_errors
        return {
            "server": {
                "url": self.url,
                "capacity": self._capacity,
                "requests": requests,
                "errors": errors,
                "connection_errors": connection_errors,
                "uptime_seconds": time.time() - self._started,
            },
            "regions": {
                "results": {
                    "entries": entries,
                    "hits": counters.hits,
                    "misses": counters.misses,
                    "evictions": counters.evictions,
                    "hit_rate": counters.hit_rate,
                },
            },
        }

    def metrics_text(self) -> str:
        """The Prometheus text exposition (the ``METRICS`` payload).

        Request counters and latency histograms accumulate as traffic flows;
        the scrape-time state (region sizes and counters, uptime) is set into
        its gauges here so every exposition is current.
        """
        counters, entries = self._results_state()
        self._region_entries.set(entries, region="results")
        self._region_evictions.set(counters.evictions, region="results")
        self._region_hits.set(counters.hits, region="results")
        self._region_misses.set(counters.misses, region="results")
        self._uptime.set(time.time() - self._started)
        return self._metrics.render()

    def _results_state(self) -> tuple[BackendCounters, int]:
        """The results region's counters and entry count, read under its lock."""
        with self._results_lock:
            return self._results.counters(), len(self._results)
