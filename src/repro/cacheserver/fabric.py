"""The sharded cache fabric: N cache servers behind one ``CacheBackend``.

A :class:`ShardedRemoteBackend` is the one remote client: a ``cache_url``
(one ``host:port`` or a comma-separated list) becomes a
:class:`~repro.cacheserver.ring.HashRing` over N endpoints, each endpoint a
:class:`~repro.cacheserver.client.ShardClient` with its own pipelined
connection and its own degrade/backoff state.  To the search layer nothing
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
* **round-synchronised prefetch** — :meth:`ShardedRemoteBackend.prefetch`
  resolves a whole round of keys with one batched ``MGET`` per shard, and
  :meth:`get` then answers from the one-shot buffer without touching the
  wire, collapsing a round's lookup latency from ``O(keys)`` round trips to
  ``O(shards)``.

The fleet is static: the ring is built once from ``cache_url`` and never
changes while the backend lives.  Changing the fleet means restarting
engines with a new ``cache_url``.

Correctness is unchanged by construction: a cache can only return what some
engine previously computed and published under a content-derived key, so the
worst any shard failure (a dead shard, failover, degraded prefetch) can
produce is a miss and a recomputation — never a wrong value.  The fabric
test suite pins this down as byte-identical rankings across 1-shard,
N-shard, and degraded-shard topologies.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Hashable, Iterable

from repro.cachestore.base import (
    MISSING,
    STORE_ERRORS,
    BackendCounters,
    BackendHandle,
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
from repro.obs.trace import get_tracer, wire_context

__all__ = ["ShardedRemoteBackend", "ShardedRemoteHandle"]


@dataclass(frozen=True)
class ShardedRemoteHandle(BackendHandle):
    """Reconnects a worker to the fabric (each instance opens its own sockets)."""

    cache_url: str
    region: int
    capacity: int | None
    namespace: bytes = b""
    timeout: float = DEFAULT_TIMEOUT
    replication: int = 1

    def attach(self) -> "ShardedRemoteBackend":
        return ShardedRemoteBackend(
            self.cache_url,
            self.region,
            capacity=self.capacity,
            namespace=self.namespace,
            timeout=self.timeout,
            replication=self.replication,
        )


class ShardedRemoteBackend(CacheBackend):
    """One region of a sharded, replicated cache-server fleet."""

    kind = "remote"
    supports_prefetch = True

    def __init__(
        self,
        cache_url: str,
        region: int = protocol.REGION_FITS,
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
        self._region = region
        self._capacity = capacity
        self._namespace = namespace
        self._timeout = timeout
        self.failovers = 0
        # digest → raw value bytes (hit) or None (authoritative miss / degraded);
        # filled by prefetch, consumed one-shot by get
        self._prefetched: dict[bytes, bytes | None] = {}

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
            protocol.GET, self._region, digest=digest, trace=wire_context()
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
        digest = self._digest(key)
        if digest in self._prefetched:
            payload = self._prefetched.pop(digest)
        else:
            payload = self._fetch(digest)
        if payload is not None:
            value = decode_value(payload)
            if value is not MISSING:
                self.hits += 1
                return value
        self.misses += 1
        return MISSING

    def put(self, key: Hashable, value: Any, cost_hint: float | None = None) -> None:
        payload = encode_value(value)
        if payload is None:
            return
        digest = self._digest(key)
        # a fresh publish supersedes any buffered prefetch answer for the key
        self._prefetched.pop(digest, None)
        body = protocol.encode_request(
            protocol.PUT,
            self._region,
            digest=digest,
            cost=cost_hint or 0.0,
            payload=payload,
            trace=wire_context(),
        )
        for client in self._preferred(digest):
            client.cast(body)

    def __len__(self) -> int:
        # sum over shards; with replication > 1 an entry is counted once per
        # replica — this is physical occupancy, not distinct-key count
        body = protocol.encode_request(protocol.LEN, self._region)
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
        self._prefetched.clear()
        body = protocol.encode_request(protocol.CLEAR, self._region)
        for client in self._clients:
            client.call(body)

    # -- batched lookups ---------------------------------------------------------

    def get_many(self, keys: Iterable[Hashable]) -> list[Any]:
        """The stored values for ``keys`` in order (:data:`MISSING` for misses)."""
        ordered = list(keys)
        self.prefetch(ordered)
        return [self.get(key) for key in ordered]

    def prefetch(self, keys: Iterable[Hashable]) -> None:
        """Resolve a round of keys with one batched ``MGET`` per shard.

        Results land in a one-shot buffer the next :meth:`get` per key
        consumes — hit/miss accounting happens there, so prefetching never
        distorts the counters relative to the unbatched path.  A shard that
        cannot answer fails its keys over to the next replica, exactly like
        single-key reads; keys whose whole replica set is down buffer as
        misses (degrade, never abort).
        """
        tracer = get_tracer()
        pending: list[bytes] = []
        seen: set[bytes] = set()
        for key in keys:
            digest = self._digest(key)
            if digest not in self._prefetched and digest not in seen:
                seen.add(digest)
                pending.append(digest)
        with tracer.span("fabric.prefetch", keys=len(pending), shards=len(self._clients)):
            trace = tracer.wire_bytes()
            # walk the preference ladder: rung 0 groups keys by owner, rung 1
            # regroups only the failed shards' keys onto their first successor, ...
            for rung in range(self._replication):
                if not pending:
                    return
                groups: dict[int, list[bytes]] = {}
                orphans: list[bytes] = []
                for digest in pending:
                    preference = self._ring.preference(digest, self._replication)
                    if rung < len(preference):
                        groups.setdefault(preference[rung], []).append(digest)
                    else:  # pragma: no cover - replication already clamped to fleet
                        orphans.append(digest)
                pending = orphans
                # fan the rung's MGETs out to every shard before collecting any,
                # so N shards answer in one overlapped round trip, not N serial ones
                started: list[tuple[int, list[bytes], Any, float, float]] = []
                for index, digests in groups.items():
                    if rung:
                        self.failovers += 1
                    future = self._clients[index].mget_begin(
                        self._region, tuple(digests), trace=trace
                    )
                    started.append(
                        (index, digests, future, time.time(), time.perf_counter())
                    )
                for index, digests, future, begun_wall, begun in started:
                    values = (
                        None
                        if future is None
                        else self._clients[index].mget_finish(future, len(digests))
                    )
                    tracer.record(
                        "fabric.mget",
                        begun_wall,
                        time.perf_counter() - begun,
                        shard=self._clients[index].url,
                        keys=len(digests),
                        rung=rung,
                        degraded=values is None,
                    )
                    if values is None:
                        pending.extend(digests)  # shard down: next rung tries successors
                        continue
                    for digest, value in zip(digests, values):
                        self._prefetched[digest] = value
            for digest in pending:  # every replica down: buffered as misses
                self._prefetched[digest] = None

    # -- accounting, sharing, lifecycle --------------------------------------------

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

    @property
    def shareable(self) -> bool:
        return True

    def handle(self) -> ShardedRemoteHandle:
        return ShardedRemoteHandle(
            cache_url=self._cache_url,
            region=self._region,
            capacity=self._capacity,
            namespace=self._namespace,
            timeout=self._timeout,
            replication=self._replication,
        )

    def close(self) -> None:
        self._prefetched.clear()
        for client in self._clients:
            client.close()
