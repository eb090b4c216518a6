"""Backend selection: from configuration values to the search's three stores.

The search layer carries two per-spec memo caches (per-mask fits and
partition discoveries) and one cache of whole results, so the factory always
builds three backends.  The per-spec pair stays in the process — shared
between the workers of one search for ``shared`` — and only the results
store follows ``disk`` (a SQLite file under the cache directory) or
``remote`` (the fabric's ``results`` region) out of it.
"""

from __future__ import annotations

from pathlib import Path

from repro.cachestore.base import CacheBackend
from repro.cachestore.memory import InProcessBackend
from repro.exceptions import ConfigurationError

__all__ = ["BACKEND_CHOICES", "build_search_backends"]

#: the cache-backend kinds ``CharlesConfig.cache_backend`` accepts
BACKEND_CHOICES = ("memory", "shared", "disk", "remote")


def build_search_backends(
    kind: str,
    capacity: int | None = None,
    cache_dir: str | Path | None = None,
    namespace: bytes = b"",
    cache_url: str | None = None,
    cache_replication: int = 1,
) -> tuple[CacheBackend, CacheBackend, CacheBackend]:
    """The ``(fits, partitions, results)`` backends for one configuration.

    * ``memory`` — three process-local LRU stores (the default).
    * ``shared`` — fits and partitions in two regions of one cross-process
      manager store, so the workers of a parallel search read and publish
      each other's entries; results in process.
    * ``disk`` — per-spec stores in process, results in
      ``cache_dir/results.sqlite``, so a repeated request survives
      interpreter restarts.
    * ``remote`` — per-spec stores in process, results in the ``results``
      region of the cache fabric at ``cache_url``.  A comma-separated
      ``cache_url`` shards the region over every listed
      :class:`~repro.cacheserver.aserver.AsyncCacheServer` with
      consistent-hash routing, and ``cache_replication`` > 1 stores each
      entry on that many ring-adjacent shards so one shard death costs
      failovers, not reuse.

    ``capacity`` is applied to every constructed store; the disk kind
    requires ``cache_dir``, the remote kind requires ``cache_url``, and both
    fold ``namespace`` — a fingerprint of the result-affecting configuration
    fields — into every key, so differently configured runs sharing a
    directory or a server never serve each other's entries (in-process and
    shared stores die with their single owning config, so they need no
    namespace).
    """
    if kind not in BACKEND_CHOICES:
        raise ConfigurationError(
            f"cache_backend must be one of {BACKEND_CHOICES}, got {kind!r}"
        )
    # each optional backend is imported in its branch, so a process loads
    # sqlite3, multiprocessing or the fabric client only when it uses them
    if kind == "shared":
        from repro.cachestore.shared import create_shared_backends

        return (*create_shared_backends(2, capacity), InProcessBackend(capacity))
    fits, partitions = InProcessBackend(capacity), InProcessBackend(capacity)
    if kind == "memory":
        return fits, partitions, InProcessBackend(capacity)
    if kind == "remote":
        if cache_url is None:
            raise ConfigurationError(
                "cache_backend 'remote' needs a cache_url pointing at a cache server"
            )
        # the cacheserver package also builds *on* the cachestore contract,
        # so this package must not import it at module load
        from repro.cacheserver.fabric import ShardedRemoteBackend
        from repro.cacheserver.protocol import REGION_RESULTS

        # always the fabric, even for one endpoint: a 1-shard ring routes
        # every key to that shard, so there is exactly one remote code path
        results = ShardedRemoteBackend(
            cache_url,
            REGION_RESULTS,
            capacity,
            namespace=namespace,
            replication=cache_replication,
        )
        return fits, partitions, results
    if cache_dir is None:
        raise ConfigurationError(
            f"cache_backend {kind!r} needs a cache_dir to store its entries in"
        )
    from repro.cachestore.disk import DiskBackend

    results = DiskBackend(Path(cache_dir) / "results.sqlite", capacity, namespace=namespace)
    return fits, partitions, results
