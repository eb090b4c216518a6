"""The cache service core: one process holding the memo regions for a whole fleet.

:class:`CacheServerCore` holds everything request-shaped, and
:class:`~repro.cacheserver.aserver.AsyncCacheServer` puts it on the wire
(one ``asyncio`` event loop multiplexing every connection; what
``charles cache-server`` runs).  The core hosts the two memo regions every
search carries (``fits`` and ``partitions``), each an
:class:`~repro.cachestore.memory.InProcessBackend` behind the same
:class:`~repro.cachestore.base.CacheBackend` interface the rest of the
cachestore uses — the server is just another place entries live, reached
through :mod:`repro.cacheserver.protocol` frames instead of a function call.
Entries are opaque ``digest → bytes`` pairs: clients digest and pickle on
their side, so the server never deserialises anything it is sent.

Because all regions live in one process, the server is also where eviction
earns its keep: each region is bounded with a
:class:`~repro.cachestore.policy.CostAwarePolicy`, ranking entries by the
recomputation seconds the clients observed (shipped per ``PUT`` as the
protocol's cost hint) per byte held — a small server retains the work that
is most expensive for the fleet to redo.

Operational surface:

* ``PING``/``STATS`` admin verbs (liveness; per-region entry counts and
  hit/miss/eviction counters as JSON) — also reachable from the shell via
  ``charles cache {stats,clear} --cache-url`` and ``charles cache-server``;
* ``METRICS``: a Prometheus text exposition (per-verb request counters and
  latency histograms, in-flight connections, region sizes and evictions,
  HANDOFF warm-up failures, uptime) rendered by a per-server
  :class:`~repro.obs.metrics.MetricsRegistry` — ``charles cache stats
  --metrics`` scrapes it per shard;
* ``TRACE``: requests whose verb byte carries the protocol's trace-context
  header are recorded as spans (name ``server.<verb>``, parented under the
  client-side span that issued them) into a bounded in-memory buffer, which
  ``TRACE`` drains — optionally filtered to one trace id, so concurrent
  engines sharing a shard each collect only their own spans;
* **elastic membership**: ``JOIN``/``LEAVE`` adopt a new fleet topology (an
  epoch-stamped endpoint list, broadcast by ``charles cache topology``), and
  once a topology is configured every response carries the epoch on its
  status byte, so running clients notice membership changes mid-search and
  ask ``TOPOLOGY`` for the new endpoint list.  A server that learns *it* is
  the joining member warms itself from its ring predecessors: it asks each
  prior member (via ``HANDOFF``) for the entries whose arcs it now owns, so
  a grown fleet starts warm instead of cold.  A leaving member needs no
  transfer — its keys fail over around the ring exactly as a shard death
  does, and with replication ≥ 2 the old successors already hold them;
* one lock per region: request handling serialises on the touched region
  only, so ``fits`` traffic never waits on ``partitions`` traffic (or on a
  membership warm-up running off the event loop).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from collections import deque

from repro.cachestore.base import MISSING
from repro.cachestore.memory import InProcessBackend
from repro.cachestore.policy import CostAwarePolicy
from repro.cacheserver import protocol
from repro.cacheserver.ring import HashRing
from repro.exceptions import CacheStoreError, ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SPAN_ID_BYTES, TRACE_ID_BYTES, Span, new_span_id

__all__ = [
    "CacheServerCore",
    "DEFAULT_PORT",
    "MAX_BUFFERED_SPANS",
    "MAX_HANDOFF_BYTES",
]

#: the port ``charles cache-server`` binds when none is given
DEFAULT_PORT = 8737

#: bound on the server-side span buffer: uncollected spans (a client that
#: enabled tracing but never drained) age out instead of growing the server
MAX_BUFFERED_SPANS = 10000

#: bound on one HANDOFF response's entry payload; a joining shard beyond it
#: starts partially warm — correctness never depends on the transfer
MAX_HANDOFF_BYTES = 32 * 1024 * 1024

_ZERO_PARENT = b"\x00" * SPAN_ID_BYTES


class CacheServerCore:
    """Transport-independent cache-server state and request handling.

    Hosts the regions, locks, metrics, span buffer and fleet-topology state;
    :meth:`dispatch` turns one decoded request body into one response body.
    :class:`~repro.cacheserver.aserver.AsyncCacheServer` provides the wire:
    accepting connections, draining frames, calling :meth:`dispatch` per
    message and writing coalesced response bursts.  ``capacity`` bounds each
    region's entry count (cost-aware eviction beyond it).
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            # ConfigurationError, not ValueError: the CLI turns it into a
            # clean `error: ...` + exit 2 like every other bad flag
            raise ConfigurationError(
                f"cache-server capacity must be >= 1 or unbounded, got {capacity}"
            )
        self._regions = {
            protocol.REGION_FITS: InProcessBackend(capacity, policy=CostAwarePolicy()),
            protocol.REGION_PARTITIONS: InProcessBackend(capacity, policy=CostAwarePolicy()),
        }
        self._locks = {region: threading.Lock() for region in self._regions}
        # observed recomputation cost per digest, for handing entries off to
        # a joining shard with their eviction ranking intact (pruned lazily:
        # eviction drops entries from the backend without telling us)
        self._costs: dict[int, dict[bytes, float]] = {region: {} for region in self._regions}
        self._capacity = capacity
        self._requests = 0
        self._requests_lock = threading.Lock()
        self._started = time.time()
        self._spans: deque = deque(maxlen=MAX_BUFFERED_SPANS)
        self._spans_lock = threading.Lock()
        # fleet topology: an epoch-stamped endpoint list adopted via
        # JOIN/LEAVE; () + epoch 0 = none configured (pre-elastic behaviour)
        self._topology: tuple[str, ...] = ()
        self._topology_epoch = 0
        self._topology_lock = threading.Lock()
        self._ring_cache: tuple[int, HashRing] | None = None
        #: entries adopted from ring predecessors when this server joined
        self.warmed_entries = 0
        self._metrics = MetricsRegistry()
        self._requests_total = self._metrics.counter(
            "cacheserver_requests_total", "Requests handled, by verb", labels=("verb",)
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
        self._topology_epoch_gauge = self._metrics.gauge(
            "cacheserver_topology_epoch", "Fleet topology epoch (0 = none configured)"
        )
        self._handoff_failures = self._metrics.counter(
            "cacheserver_handoff_failures_total",
            "Donor regions skipped during a JOIN warm-up (unparseable, unreachable, "
            "refusing or corrupt donor)",
        )
        self._handoff_failures.inc(0)  # expose the series before the first failure

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

        All observability happens here, around :meth:`_handle`: the per-verb
        request counter and latency histogram always run (they are two dict
        updates), a span is recorded only when the client shipped a
        trace-context header on the verb byte.  Once a fleet topology is
        configured, the response carries the topology epoch on its status
        byte — how running clients learn membership changed.
        """
        request = protocol.decode_request(body)
        with self._requests_lock:
            self._requests += 1
        verb_name = protocol.VERB_NAMES[request.verb]
        started_wall = time.time()
        started = time.perf_counter()
        outcome = "ok"
        try:
            return protocol.attach_epoch(self._handle(request), self._topology_epoch)
        except protocol.ProtocolError:
            outcome = "error"
            raise
        finally:
            elapsed = time.perf_counter() - started
            self._requests_total.inc(verb=verb_name)
            self._request_seconds.observe(elapsed, verb=verb_name)
            if request.trace:
                self._record_span(request, verb_name, started_wall, elapsed, outcome)

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
        if request.verb == protocol.TOPOLOGY:
            return protocol.encode_response(
                protocol.OK, json.dumps(self.topology()).encode("utf-8")
            )
        if request.verb in (protocol.JOIN, protocol.LEAVE):
            return self._handle_membership(request)
        if request.verb == protocol.HANDOFF:
            return self._handle_handoff(request)
        if request.verb == protocol.LEN:
            return protocol.encode_response(
                protocol.OK, protocol.pack_count(self._length(request.region))
            )
        if request.verb == protocol.CLEAR:
            self._clear(request.region)
            return protocol.encode_response(protocol.OK)
        region = self._regions.get(request.region)
        if region is None:
            raise protocol.ProtocolError(f"unknown region {request.region}")
        lock = self._locks[request.region]
        if request.verb == protocol.GET:
            with lock:
                value = region.get(request.digest)
            if value is MISSING:
                return protocol.encode_response(protocol.MISS)
            return protocol.encode_response(protocol.HIT, value)
        if request.verb == protocol.MGET:
            # one lock hold for the whole batch: a round's lookups cost one
            # acquisition instead of one per key
            with lock:
                values = [region.get(digest) for digest in request.digests]
            return protocol.encode_response(
                protocol.OK,
                protocol.pack_multi(
                    [None if value is MISSING else value for value in values]
                ),
            )
        # PUT: the payload is opaque bytes; the cost hint feeds the policy
        with lock:
            region.put(request.digest, request.payload, cost_hint=request.cost)
            self._remember_cost(request.region, request.digest, request.cost)
        return protocol.encode_response(protocol.OK)

    # -- elastic membership ------------------------------------------------------

    def topology(self) -> dict:
        """The fleet view this server holds (``TOPOLOGY`` payload)."""
        with self._topology_lock:
            return {
                "epoch": self._topology_epoch,
                "endpoints": list(self._topology),
                "url": self.url,
                "warmed_entries": self.warmed_entries,
            }

    def _handle_membership(self, request: protocol.Request) -> bytes:
        """Adopt a proposed topology (JOIN/LEAVE) if it is newer than ours.

        The proposal is a full epoch-stamped endpoint list — members never
        infer state from the verb alone, so replayed or reordered broadcasts
        are harmless: an older epoch is simply ignored.  When a ``JOIN``
        names *this* server as the subject, it warms itself from the prior
        members before answering, so the admin's broadcast completes only
        once the newcomer holds its predecessors' entries.
        """
        try:
            proposal = json.loads(request.payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise protocol.ProtocolError("membership payload must be UTF-8 JSON") from None
        if not isinstance(proposal, dict):
            raise protocol.ProtocolError("membership payload must be a JSON object")
        epoch = proposal.get("epoch")
        endpoints = proposal.get("endpoints")
        subject = proposal.get("subject")
        if not isinstance(epoch, int) or epoch < 1:
            raise protocol.ProtocolError(f"membership epoch must be an int >= 1, got {epoch!r}")
        if (
            not isinstance(endpoints, list)
            or not endpoints
            or not all(isinstance(endpoint, str) and endpoint for endpoint in endpoints)
            or len(set(endpoints)) != len(endpoints)
        ):
            raise protocol.ProtocolError("membership endpoints must be distinct non-empty strings")
        if not isinstance(subject, str) or not subject:
            raise protocol.ProtocolError("membership subject must be a non-empty string")
        if request.verb == protocol.JOIN and subject not in endpoints:
            raise protocol.ProtocolError("JOIN subject must be in the proposed endpoints")
        if request.verb == protocol.LEAVE and subject in endpoints:
            raise protocol.ProtocolError("LEAVE subject must not be in the proposed endpoints")
        with self._topology_lock:
            if epoch <= self._topology_epoch:
                # stale or duplicate broadcast: keep the newer view we hold
                return protocol.encode_response(
                    protocol.OK,
                    json.dumps(
                        {
                            "adopted": False,
                            "epoch": self._topology_epoch,
                            "endpoints": list(self._topology),
                            "warmed": 0,
                        }
                    ).encode("utf-8"),
                )
            previous = self._topology
            self._topology = tuple(endpoints)
            self._topology_epoch = epoch
            self._ring_cache = None
        warmed = 0
        if request.verb == protocol.JOIN and subject == self.url:
            donors = [
                endpoint
                for endpoint in (previous or tuple(endpoints))
                if endpoint != self.url
            ]
            warmed = self._warm_from(donors)
            self.warmed_entries += warmed
        return protocol.encode_response(
            protocol.OK,
            json.dumps(
                {
                    "adopted": True,
                    "epoch": epoch,
                    "endpoints": list(endpoints),
                    "warmed": warmed,
                }
            ).encode("utf-8"),
        )

    def _topology_ring(self) -> HashRing | None:
        with self._topology_lock:
            if not self._topology:
                return None
            cached = self._ring_cache
            if cached is not None and cached[0] == self._topology_epoch:
                return cached[1]
            ring = HashRing(self._topology)
            self._ring_cache = (self._topology_epoch, ring)
            return ring

    def _handle_handoff(self, request: protocol.Request) -> bytes:
        """The region's entries now owned by the requesting endpoint.

        Called by a joining shard against each prior member.  Entries stay on
        the donor too (they cost only memory and double as replicas until
        eviction ages them out), bounded by :data:`MAX_HANDOFF_BYTES` — a
        partial warm-up costs recomputation, never correctness.
        """
        try:
            endpoint = request.payload.decode("utf-8")
        except UnicodeDecodeError:
            raise protocol.ProtocolError("HANDOFF payload must be a UTF-8 endpoint") from None
        ring = self._topology_ring()
        if ring is None:
            raise protocol.ProtocolError("no fleet topology configured")
        if endpoint not in ring.endpoints:
            raise protocol.ProtocolError(f"endpoint {endpoint!r} is not in the fleet topology")
        backend = self._regions.get(request.region)
        if backend is None:
            raise protocol.ProtocolError(f"unknown region {request.region}")
        owner_index = list(ring.endpoints).index(endpoint)
        entries: list[tuple[bytes, float, bytes]] = []
        budget = MAX_HANDOFF_BYTES
        with self._locks[request.region]:
            costs = self._costs[request.region]
            for digest, value in backend._entries.items():
                if ring.owner(digest) != owner_index:
                    continue
                if budget - len(value) < 0:
                    break  # partial handoff: the rest stays cold on the joiner
                budget -= len(value) + protocol.DIGEST_SIZE + 12
                entries.append((digest, costs.get(digest, 0.0), value))
        return protocol.encode_response(protocol.OK, protocol.pack_entries(entries))

    def _warm_from(self, donors: list[str]) -> int:
        """Pull the entries this server now owns from each prior fleet member.

        With virtual nodes the joining server's arcs come from several prior
        owners, so "the ring predecessor" is a *set*: every donor filters its
        store through the new ring (``HANDOFF``) and returns exactly the
        entries whose arcs moved here.  An unparseable, unreachable, refusing
        or corrupt donor is skipped and counted in
        ``cacheserver_handoff_failures_total`` (once per region it could not
        hand over) — warm-up is an optimisation, and a missing transfer costs
        misses, not correctness.
        """
        from repro.cacheserver.client import parse_url  # no cycle: client never imports server

        warmed = 0
        for donor in donors:
            try:
                address = parse_url(donor)
            except CacheStoreError:
                self._handoff_failures.inc(len(self._regions))
                continue
            for region in self._regions:
                entries = self._handoff_entries(address, region)
                if entries is None:
                    self._handoff_failures.inc()
                    continue
                backend = self._regions[region]
                with self._locks[region]:
                    for digest, cost, value in entries:
                        backend.put(digest, value, cost_hint=cost)
                        self._remember_cost(region, digest, cost)
                        warmed += 1
        return warmed

    def _handoff_entries(
        self, address: tuple[str, int], region: int
    ) -> list[tuple[bytes, float, bytes]] | None:
        """One donor region's ``HANDOFF`` answer, or ``None`` if it failed."""
        request = protocol.encode_request(
            protocol.HANDOFF, region, payload=self.url.encode("utf-8")
        )
        try:
            with socket.create_connection(address, timeout=5.0) as sock:
                protocol.send_message(sock, 0, request)
                message = protocol.recv_message(sock)
            if message is None:
                return None
            status, payload = protocol.decode_response(message[1])
            if status != protocol.OK:
                return None
            return protocol.unpack_entries(payload)
        except (OSError, protocol.ProtocolError):
            return None

    def _remember_cost(self, region: int, digest: bytes, cost: float) -> None:
        """Track per-digest cost for handoff (lazily pruned after evictions)."""
        costs = self._costs[region]
        costs[digest] = cost
        backend = self._regions[region]
        if len(costs) > 2 * max(len(backend), 1) + 16:
            live = backend._entries
            self._costs[region] = {d: c for d, c in costs.items() if d in live}

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
                "keys": len(request.digests) if request.digests else 1,
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

    def _selected(self, region: int) -> list[int]:
        if region == protocol.REGION_ALL:
            return list(self._regions)
        if region not in self._regions:
            raise protocol.ProtocolError(f"unknown region {region}")
        return [region]

    def _length(self, region: int) -> int:
        total = 0
        for selected in self._selected(region):
            with self._locks[selected]:
                total += len(self._regions[selected])
        return total

    def _clear(self, region: int) -> None:
        for selected in self._selected(region):
            with self._locks[selected]:
                self._regions[selected].clear()
                self._costs[selected].clear()

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict:
        """Per-region counters plus server-level totals (the ``STATS`` payload)."""
        regions = {}
        for region, backend in self._regions.items():
            with self._locks[region]:
                counters = backend.counters()
                entries = len(backend)
            regions[protocol.REGION_NAMES[region]] = {
                "entries": entries,
                "hits": counters.hits,
                "misses": counters.misses,
                "evictions": counters.evictions,
                "hit_rate": counters.hit_rate,
            }
        with self._requests_lock:
            requests = self._requests
        with self._topology_lock:
            topology_epoch = self._topology_epoch
            fleet_size = len(self._topology)
        return {
            "server": {
                "url": self.url,
                "capacity": self._capacity,
                "requests": requests,
                "uptime_seconds": time.time() - self._started,
                "topology_epoch": topology_epoch,
                "fleet_size": fleet_size,
                "warmed_entries": self.warmed_entries,
            },
            "regions": regions,
        }

    def metrics_text(self) -> str:
        """The Prometheus text exposition (the ``METRICS`` payload).

        Request counters and latency histograms accumulate as traffic flows;
        the scrape-time state (region sizes and counters, uptime) is set into
        its gauges here so every exposition is current.
        """
        for region, backend in self._regions.items():
            with self._locks[region]:
                counters = backend.counters()
                entries = len(backend)
            name = protocol.REGION_NAMES[region]
            self._region_entries.set(entries, region=name)
            self._region_evictions.set(counters.evictions, region=name)
            self._region_hits.set(counters.hits, region=name)
            self._region_misses.set(counters.misses, region=name)
        self._uptime.set(time.time() - self._started)
        self._topology_epoch_gauge.set(self._topology_epoch)
        return self._metrics.render()
