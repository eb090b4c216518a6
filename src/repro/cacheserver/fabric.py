"""The sharded cache fabric: N cache servers behind one ``CacheBackend``.

A :class:`ShardedRemoteBackend` is the one remote client: a ``cache_url``
(one ``host:port`` or a comma-separated list) becomes a
:class:`~repro.cacheserver.ring.HashRing` over N endpoints, each endpoint a
:class:`~repro.cacheserver.client.ShardClient` with its own connection and
its own degrade/backoff state.  To the search layer nothing
changes — it is still one :class:`~repro.cachestore.base.CacheBackend` with
``kind == "remote"`` — but underneath:

* **sharding** — every key digest is owned by one shard (ring routing), so
  fleet cache capacity and request throughput scale with N instead of
  saturating one socket and one heap;
* **replication** — with ``replication = R > 1``, a ``PUT`` is cast to the
  owner and its R-1 ring successors, and a lookup that cannot reach the
  owner *fails over* around the ring instead of degrading to a miss: a shard
  death costs zero reuse, only a failover round trip (counted in
  ``BackendCounters.failovers``);
* **degradation stays per shard** — one dead endpoint burns its own op
  budget and backoff window while its peers keep answering; only keys owned
  (and replicated) entirely on dead shards degrade to misses;
* **acknowledged publishes** — a ``PUT`` is sent to every replica before
  any acknowledgement is collected, and :meth:`ShardedRemoteBackend.put`
  returns once each live replica stored the entry, so any engine that looks
  the key up next finds it.

The engine keeps one entry per summarize request here — the whole ranked
result (:meth:`~repro.core.charles.Charles.summarize_pair`) — so a repeated
request costs one lookup, and a first one a lookup plus a publish.  Per-spec
memo entries stay in the engine's process.

The fleet is static: the ring is built once from ``cache_url`` and never
changes while the backend lives.  Changing the fleet means restarting
engines with a new ``cache_url``.

Correctness is unchanged by construction: a cache can only return what some
engine previously computed and published under a content-derived key, so the
worst any shard failure (a dead shard, failover, a ``PUT`` lost with its
connection) can produce is a miss and a recomputation — never a wrong value.
The fabric test suite pins this down as byte-identical rankings across
1-shard, N-shard, and degraded-shard topologies.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable

from repro.cachestore.base import (
    MISSING,
    STORE_ERRORS,
    BackendCounters,
    CacheBackend,
    key_digest,
)
from repro.cacheserver import protocol
from repro.cacheserver.client import (
    DEFAULT_TIMEOUT,
    ShardClient,
    decode_value,
    encode_value,
)
from repro.cacheserver.ring import HashRing, parse_endpoints
from repro.obs.trace import wire_context

__all__ = ["ShardedRemoteBackend"]


class ShardedRemoteBackend(CacheBackend):
    """The ``results`` region of a sharded, replicated cache-server fleet."""

    kind = "remote"

    def __init__(
        self,
        cache_url: str,
        capacity: int | None = None,
        namespace: bytes = b"",
        timeout: float = DEFAULT_TIMEOUT,
        replication: int = 1,
    ) -> None:
        super().__init__()
        if capacity is not None and capacity < 1:
            raise ValueError(f"cache capacity must be >= 1 or None, got {capacity}")
        if replication < 1:
            raise ValueError(f"cache replication must be >= 1, got {replication}")
        endpoints = parse_endpoints(cache_url)
        self._cache_url = ",".join(endpoints)
        self._ring = HashRing(endpoints)
        self._clients = [ShardClient(endpoint, timeout) for endpoint in endpoints]
        self._replication = min(replication, len(endpoints))
        self._capacity = capacity
        self._namespace = namespace
        self.failovers = 0

    # -- routing ----------------------------------------------------------------

    def _digest(self, key: Hashable) -> bytes:
        if not self._namespace:
            return key_digest(key)
        return key_digest((self._namespace, key))

    def _preferred(self, digest: bytes) -> list[ShardClient]:
        """Owner first, then the replica successors writes go to / reads try."""
        return [
            self._clients[index]
            for index in self._ring.preference(digest, self._replication)
        ]

    def _fetch(self, digest: bytes) -> bytes | None:
        """Raw stored bytes for one digest, or ``None`` for miss-or-degraded.

        The owner's answer — hit *or* miss — is authoritative; replicas are
        only consulted when a preferred shard cannot answer at all, so a
        healthy fleet never pays extra round trips for replication.
        """
        body = protocol.encode_request(
            protocol.GET, protocol.REGION_RESULTS, digest=digest, trace=wire_context()
        )
        for position, client in enumerate(self._preferred(digest)):
            if position:
                self.failovers += 1
            answer = client.call(body)
            if answer is not None:
                status, payload = answer
                return payload if status == protocol.HIT else None
        return None

    # -- the CacheBackend contract -----------------------------------------------

    def get(self, key: Hashable) -> Any:
        payload = self._fetch(self._digest(key))
        value = MISSING if payload is None else decode_value(payload)
        if value is MISSING:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: Hashable, value: Any, cost_hint: float | None = None) -> None:
        """Store ``value`` on every replica and wait for their acknowledgements.

        The request goes to all R replicas before any answer is collected, so
        replication costs one overlapped round trip.  A replica that cannot
        take the entry is counted as a store error; the value is then simply
        recomputed by whoever misses on it.
        """
        digest = self._digest(key)
        payload = encode_value(value)
        if payload is None:
            return
        body = protocol.encode_request(
            protocol.PUT,
            protocol.REGION_RESULTS,
            digest=digest,
            cost=cost_hint or 0.0,
            payload=payload,
            trace=wire_context(),
        )
        sent = [(client, client.submit(body)) for client in self._preferred(digest)]
        for client, request_id in sent:
            answer = client.collect(request_id)
            if answer is None or answer[0] != protocol.OK:
                STORE_ERRORS.inc(backend=self.kind, op="put")

    def __len__(self) -> int:
        # sum over shards; with replication > 1 an entry is counted once per
        # replica — this is physical occupancy, not distinct-key count
        body = protocol.encode_request(protocol.LEN, protocol.REGION_RESULTS)
        total = 0
        for client in self._clients:
            answer = client.call(body)
            if answer is None or answer[0] != protocol.OK:
                continue  # a degraded shard contributes nothing
            try:
                total += protocol.unpack_count(answer[1])
            except protocol.ProtocolError:
                STORE_ERRORS.inc(backend=self.kind, op="len")
        return total

    def clear(self) -> None:
        body = protocol.encode_request(protocol.CLEAR, protocol.REGION_RESULTS)
        for client in self._clients:
            client.call(body)

    # -- names kept for callers that bind them ------------------------------------

    def get_many(self, keys: Iterable[Hashable]) -> list[Any]:
        """The stored values for ``keys`` in order (:data:`MISSING` for misses)."""
        return [self.get(key) for key in keys]

    def prefetch(self, keys: Iterable[Hashable]) -> None:
        """Does nothing: lookups are not batched.

        Kept so that tooling which wraps this method by name keeps finding
        it; the engine never calls it.
        """

    # -- accounting and lifecycle --------------------------------------------

    def counters(self) -> BackendCounters:
        return BackendCounters(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,  # always 0: eviction is each server's act
            round_trips=sum(client.round_trips for client in self._clients),
            failovers=self.failovers,
        )

    def breakdown(self) -> dict[str, BackendCounters]:
        """The fabric aggregate plus, when sharded, one layer per endpoint.

        The per-shard layers are *components* of the ``remote`` aggregate
        (their round trips sum to its), not additional tiers to add up.
        """
        layers = {self.kind: self.counters()}
        if len(self._clients) > 1:
            for client in self._clients:
                layers[f"remote[{client.url}]"] = BackendCounters(
                    round_trips=client.round_trips
                )
        return layers

    @property
    def capacity(self) -> int | None:
        return self._capacity

    @property
    def namespace(self) -> bytes:
        """Configuration fingerprint folded into every key (b"" = unnamespaced)."""
        return self._namespace

    @property
    def url(self) -> str:
        """The comma-separated endpoint list this fabric spans."""
        return self._cache_url

    @property
    def endpoints(self) -> tuple[str, ...]:
        return self._ring.endpoints

    @property
    def replication(self) -> int:
        """Effective replication factor (clamped to the fleet size)."""
        return self._replication

    @property
    def round_trips(self) -> int:
        """Requests sent over the wire, summed across every shard client."""
        return sum(client.round_trips for client in self._clients)

    @property
    def connection_failures(self) -> int:
        return sum(client.connection_failures for client in self._clients)

    def close(self) -> None:
        for client in self._clients:
            client.close()
