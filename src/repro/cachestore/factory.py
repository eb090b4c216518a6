"""Backend selection: from configuration values to the search's results store.

The search layer carries two per-spec memo caches (per-mask fits and
partition discoveries) and one cache of whole results.  The per-spec pair
always stays in the process (:class:`~repro.search.cache.SearchCaches`
makes it), so the factory builds only the results store: in process for
``memory``, a SQLite file under the cache directory for ``disk``, the
fabric's ``results`` region for ``remote``.
"""

from __future__ import annotations

from pathlib import Path

from repro.cachestore.base import CacheBackend
from repro.cachestore.memory import InProcessBackend
from repro.exceptions import ConfigurationError

__all__ = ["BACKEND_CHOICES", "build_results_backend"]

#: the cache-backend kinds ``CharlesConfig.cache_backend`` accepts; ``shared``
#: names the retired cross-process memo store, and ``CharlesConfig`` runs it
#: as ``memory`` so existing configs and command lines keep working
BACKEND_CHOICES = ("memory", "shared", "disk", "remote")


def build_results_backend(
    kind: str,
    capacity: int | None = None,
    cache_dir: str | Path | None = None,
    namespace: bytes = b"",
    cache_url: str | None = None,
    cache_replication: int = 1,
) -> CacheBackend:
    """The results store for one configuration.

    * ``memory`` — a process-local LRU store (the default).
    * ``disk`` — ``cache_dir/results.sqlite``, so a repeated request
      survives interpreter restarts.
    * ``remote`` — the ``results`` region of the cache fabric at
      ``cache_url``.  A comma-separated ``cache_url`` shards the region over
      every listed :class:`~repro.cacheserver.aserver.AsyncCacheServer` with
      consistent-hash routing, and ``cache_replication`` > 1 stores each
      entry on that many ring-adjacent shards so one shard death costs
      failovers, not reuse.

    ``capacity`` bounds the store; the disk kind requires ``cache_dir``, the
    remote kind requires ``cache_url``, and both fold ``namespace`` — a
    fingerprint of the result-affecting configuration fields — into every
    key, so differently configured runs sharing a directory or a server
    never serve each other's entries (an in-process store dies with its
    single owning config, so it needs no namespace).
    """
    # each optional backend is imported in its branch, so a process loads
    # sqlite3 or the fabric client only when it uses them
    if kind == "memory":
        return InProcessBackend(capacity)
    if kind == "remote":
        if cache_url is None:
            raise ConfigurationError(
                "cache_backend 'remote' needs a cache_url pointing at a cache server"
            )
        # the cacheserver package also builds *on* the cachestore contract,
        # so this package must not import it at module load
        from repro.cacheserver.fabric import ShardedRemoteBackend

        # always the fabric, even for one endpoint: a 1-shard ring routes
        # every key to that shard, so there is exactly one remote code path
        return ShardedRemoteBackend(
            cache_url, capacity, namespace=namespace, replication=cache_replication
        )
    if kind == "disk":
        if cache_dir is None:
            raise ConfigurationError(
                "cache_backend 'disk' needs a cache_dir to store its entries in"
            )
        from repro.cachestore.disk import DiskBackend

        return DiskBackend(Path(cache_dir) / "results.sqlite", capacity, namespace=namespace)
    raise ConfigurationError(
        f"cache_backend must be one of ('memory', 'disk', 'remote'), got {kind!r}"
    )
