"""Backend selection: from configuration values to a pair of stores.

The search layer carries two memo caches (per-mask fits and partition
discoveries), so the factory always builds backends in pairs — one physical
region per cache, sharing a manager process (``shared``), a cache directory
(``disk``) or a cache service (``remote``) between them.
"""

from __future__ import annotations

from pathlib import Path

from repro.cachestore.base import CacheBackend
from repro.cachestore.disk import DiskBackend
from repro.cachestore.memory import InProcessBackend
from repro.cachestore.shared import create_shared_backends
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
) -> tuple[CacheBackend, CacheBackend]:
    """The ``(fits, partitions)`` backend pair for one configuration.

    * ``memory`` — two process-local LRU stores (the default; today's
      behaviour exactly).
    * ``shared`` — two regions of one cross-process manager store, so
      parallel workers read and publish each other's entries.
    * ``disk`` — two SQLite files under ``cache_dir``, so entries survive
      interpreter restarts.
    * ``remote`` — the two regions of a fleet-shared cache service at
      ``cache_url``, so engines on different machines pool their work.  A
      comma-separated ``cache_url`` shards the regions over every listed
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
    if kind == "memory":
        return InProcessBackend(capacity), InProcessBackend(capacity)
    if kind == "remote":
        if cache_url is None:
            raise ConfigurationError(
                "cache_backend 'remote' needs a cache_url pointing at a cache server"
            )
        # imported lazily: the cacheserver package builds *on* the cachestore
        # contract, so the base package must not import it at module load
        from repro.cacheserver.fabric import ShardedRemoteBackend
        from repro.cacheserver.protocol import REGION_FITS, REGION_PARTITIONS

        # always the fabric, even for one endpoint: a 1-shard ring routes
        # every key to that shard, so there is exactly one remote code path
        return (
            ShardedRemoteBackend(
                cache_url,
                REGION_FITS,
                capacity,
                namespace=namespace,
                replication=cache_replication,
            ),
            ShardedRemoteBackend(
                cache_url,
                REGION_PARTITIONS,
                capacity,
                namespace=namespace,
                replication=cache_replication,
            ),
        )
    if kind == "shared":
        return create_shared_backends(2, capacity)
    if cache_dir is None:
        raise ConfigurationError(
            f"cache_backend {kind!r} needs a cache_dir to store its entries in"
        )
    directory = Path(cache_dir)
    return (
        DiskBackend(directory / "fits.sqlite", capacity, namespace=namespace),
        DiskBackend(directory / "partitions.sqlite", capacity, namespace=namespace),
    )
