"""The fleet-scale cache fabric: a sharded, replicated result store on the network.

Cacheserver architecture
========================

This package lets a fleet of engines on different machines serve each
other's repeated requests: each engine publishes one *result entry* per
summarize request (the ranked top-k, keyed by the request's content key)
into the ``results`` region of a *fabric* of cache servers — sharded and
replicated, so fleet cache capacity and throughput scale past one socket and
one server.  A request any engine already answered then costs one lookup.
Per-spec memo entries stay in each engine's process: their keys rotate with
every changed row, so across processes they were write-only traffic.  Each
job has one mechanism: one server transport, one remote client, one server
eviction order.

* :mod:`~repro.cacheserver.protocol` — the wire format: length-prefixed
  binary frames carrying a request id, digested keys, opaque pickled values
  and a per-PUT recomputation-cost hint; stdlib ``struct``/``json`` only.
* :mod:`~repro.cacheserver.server` — :class:`~repro.cacheserver.server.
  CacheServerCore` (the region, verbs, metrics, span buffer), hosting the
  ``results`` region on an :class:`~repro.cachestore.memory.InProcessBackend`
  with cost-aware eviction, plus ``PING``/``STATS``/``METRICS``/``TRACE``
  admin verbs.
* :mod:`~repro.cacheserver.aserver` — :class:`~repro.cacheserver.aserver.
  AsyncCacheServer`, the core on the wire: every connection multiplexed on
  one ``asyncio`` event loop, with graceful shutdown.  Run one per shard
  with ``charles cache-server``.
* :mod:`~repro.cacheserver.pipeline` — :class:`~repro.cacheserver.pipeline.
  PipelinedConnection`, one persistent socket driven by its caller, with
  requests submitted before their answers are collected.
* :mod:`~repro.cacheserver.ring` — :class:`~repro.cacheserver.ring.HashRing`,
  consistent-hash placement of key digests over N endpoints with virtual
  nodes; owner plus replica/failover successors per key.
* :mod:`~repro.cacheserver.client` — :class:`~repro.cacheserver.client.
  ShardClient` (one endpoint's pipelined connection + per-shard
  degrade-to-miss backoff) and the ``charles cache`` admin helpers.
* :mod:`~repro.cacheserver.fabric` — :class:`~repro.cacheserver.fabric.
  ShardedRemoteBackend`, the one remote :class:`~repro.cachestore.base.
  CacheBackend` and what ``cache_backend="remote"`` builds for the results
  store, even for one endpoint: a ``cache_url`` becomes a hash ring of shard
  clients, with optional replica-set writes (``cache_replication``) and read
  failover around the ring.

Membership is *static*: the ring is built from the ``cache_url`` endpoint
list when a backend is created, and servers know nothing of their fleet.

Keys are namespaced by ``CharlesConfig.cache_fingerprint()`` exactly like the
disk store, so differently configured engines sharing one fabric never serve
each other's entries, while execution-only knobs (``n_jobs``, pruning,
shard count, replication) keep the fleet cache warm.  As with
every backend, where entries live never changes what a search returns:
rankings with one shard, N shards, or a shard killed mid-run are
byte-identical to in-process runs, which ``tests/cacheserver/`` and
``benchmarks/bench_cache_fabric.py`` enforce.
"""

from repro import _lazy_exports

_EXPORTS, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.cacheserver.client": (
        "ShardClient",
        "parse_url",
        "server_ping",
        "server_stats",
        "server_clear",
        "server_metrics",
        "server_trace",
    ),
    "repro.cacheserver.fabric": ("ShardedRemoteBackend",),
    "repro.cacheserver.pipeline": ("PipelinedConnection",),
    "repro.cacheserver.ring": ("HashRing", "parse_endpoints"),
    "repro.cacheserver.server": ("CacheServerCore", "DEFAULT_PORT"),
    "repro.cacheserver.aserver": ("AsyncCacheServer",),
})
__all__ = list(_EXPORTS)
