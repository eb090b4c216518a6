"""The fleet-scale cache fabric: a sharded, replicated memo store on the network.

Cacheserver architecture
========================

The shared and disk stores pool memo work across *processes on one
machine*; this package pools it across a fleet of engines on different
machines through a *fabric* of cache servers — sharded, replicated and
pipelined, so fleet cache capacity and throughput scale past one socket and
one server.  Each job has one mechanism: one server transport, one remote
client, one server eviction order.

* :mod:`~repro.cacheserver.protocol` — the wire format: length-prefixed
  binary frames carrying a request id, digested keys, opaque pickled values
  and a per-PUT recomputation-cost hint; batched ``MGET`` lookups; stdlib
  ``struct``/``json`` only.
* :mod:`~repro.cacheserver.server` — :class:`~repro.cacheserver.server.
  CacheServerCore` (regions, verbs, metrics, span buffer),
  hosting the ``fits``/``partitions`` regions on
  :class:`~repro.cachestore.memory.InProcessBackend` stores with cost-aware
  eviction, plus ``PING``/``STATS``/``METRICS``/``TRACE`` admin verbs.
* :mod:`~repro.cacheserver.aserver` — :class:`~repro.cacheserver.aserver.
  AsyncCacheServer`, the core on the wire: every connection multiplexed on
  one ``asyncio`` event loop, with graceful shutdown.  Run one per shard
  with ``charles cache-server``.
* :mod:`~repro.cacheserver.pipeline` — :class:`~repro.cacheserver.pipeline.
  PipelinedConnection`, one persistent socket with any number of requests in
  flight (a reader thread pairs responses up by request id), so lookups do
  not wait one round trip at a time.
* :mod:`~repro.cacheserver.ring` — :class:`~repro.cacheserver.ring.HashRing`,
  consistent-hash placement of key digests over N endpoints with virtual
  nodes; owner plus replica/failover successors per key.
* :mod:`~repro.cacheserver.client` — :class:`~repro.cacheserver.client.
  ShardClient` (one endpoint's pipelined connection + per-shard
  degrade-to-miss backoff) and the ``charles cache`` admin helpers.
* :mod:`~repro.cacheserver.fabric` — :class:`~repro.cacheserver.fabric.
  ShardedRemoteBackend`, the one remote :class:`~repro.cachestore.base.
  CacheBackend` and what ``cache_backend="remote"`` builds, even for one
  endpoint: a ``cache_url`` becomes a hash ring of shard clients, with
  optional replica-set writes (``cache_replication``), read failover around
  the ring, and round-synchronised ``MGET`` prefetching.

Membership is *static*: the ring is built from the ``cache_url`` endpoint
list when a backend is created, and servers know nothing of their fleet.

Keys are namespaced by ``CharlesConfig.cache_fingerprint()`` exactly like the
disk store, so differently configured engines sharing one fabric never serve
each other's entries, while execution-only knobs (``n_jobs``, pruning,
warm-start, shard count, replication) keep the fleet cache warm.  As with
every backend, where entries live never changes what a search returns:
rankings with one shard, N shards, or a shard killed mid-run are
byte-identical to in-process runs, which ``tests/cacheserver/`` and
``benchmarks/bench_cache_fabric.py`` enforce.
"""

from repro.cacheserver.aserver import AsyncCacheServer
from repro.cacheserver.client import (
    ShardClient,
    parse_url,
    server_clear,
    server_metrics,
    server_ping,
    server_stats,
    server_trace,
)
from repro.cacheserver.fabric import ShardedRemoteBackend, ShardedRemoteHandle
from repro.cacheserver.pipeline import PipelinedConnection
from repro.cacheserver.ring import HashRing, parse_endpoints
from repro.cacheserver.server import DEFAULT_PORT, CacheServerCore

__all__ = [
    "ShardClient",
    "ShardedRemoteBackend",
    "ShardedRemoteHandle",
    "PipelinedConnection",
    "HashRing",
    "parse_endpoints",
    "parse_url",
    "server_ping",
    "server_stats",
    "server_clear",
    "server_metrics",
    "server_trace",
    "CacheServerCore",
    "AsyncCacheServer",
    "DEFAULT_PORT",
]
