"""Pluggable cache stores: where memo-cache entries physically live.

Cachestore architecture
=======================

PR 2 made every search memo key a true *content* key — a
:class:`~repro.search.cache.PairFingerprints` token hashing the exact column
values a computation reads — which means a cached fit or partition discovery
is valid wherever and whenever that content recurs: in another worker
process, or in a process started tomorrow.  This package supplies the
transport and storage layer that turns that property into actual reuse, as a
small hierarchy behind one ABC:

* :class:`~repro.cachestore.base.CacheBackend` — the contract
  (``get``/``put``/``__len__``/``clear`` plus per-layer counter snapshots,
  and ``handle()``/``attach()`` for backends other processes may join).
* :class:`~repro.cachestore.memory.InProcessBackend` — the default: a
  process-local LRU dict, byte-for-byte the original ``MemoCache`` storage.
* :class:`~repro.cachestore.shared.SharedBackend` — a
  ``multiprocessing.Manager`` dict every parallel worker attaches to, so
  ``n_jobs > 1`` recovers the serial hit rate instead of recomputing per
  process.
* :class:`~repro.cachestore.disk.DiskBackend` — a content-keyed SQLite store
  with transactional writes, so warm starts survive interpreter restarts.
* :class:`~repro.cacheserver.fabric.ShardedRemoteBackend` (in the sibling
  :mod:`repro.cacheserver` package) — one region of a fleet-shared cache
  *service* of one or more shards, so engines on different machines pool
  their work.

Eviction order (:mod:`repro.cachestore.policy`): the engine's private
in-process stores evict least-recently-used first; everything shared —
cache-server regions and the disk store — evicts cost-aware, ranking
entries by the observed recomputation seconds each ``put`` ships as its
``cost_hint`` per byte held.

Selection is configuration-driven (``CharlesConfig.cache_backend`` /
``cache_dir`` / ``cache_url``, CLI ``--cache-backend`` / ``--cache-dir`` /
``--cache-url``) through
:func:`~repro.cachestore.factory.build_search_backends`, which always builds
the ``(fits, partitions)`` pair the search layer carries.

Adding a new cache backend
--------------------------

Subclass :class:`~repro.cachestore.base.CacheBackend` and implement
``get``/``put``/``__len__``/``clear``.  Return :data:`MISSING` (never
``None`` — that is a legitimate cached value) for absent keys, count
``hits``/``misses``/``evictions`` locally, and key out-of-process storage by
:func:`~repro.cachestore.base.key_digest` so keys are stable across
interpreters.  If other processes can join the storage, set ``shareable`` and
return a picklable :class:`~repro.cachestore.base.BackendHandle` from
``handle()``.  Wire the kind into
:func:`~repro.cachestore.factory.build_search_backends` and
``BACKEND_CHOICES``; everything above the backend — executors, sessions,
stats, CLI — picks it up from configuration.  The contract to preserve: a
``put`` value must come back identically from ``get`` (backends never see
non-deterministic data, so races may duplicate work but can never corrupt
results).
"""

from repro.cachestore.base import (
    MISSING,
    BackendCounters,
    BackendHandle,
    CacheBackend,
    key_digest,
)
from repro.cachestore.disk import DiskBackend, DiskHandle
from repro.cachestore.factory import BACKEND_CHOICES, build_search_backends
from repro.cachestore.memory import InProcessBackend
from repro.cachestore.policy import (
    CostAwarePolicy,
    EvictionPolicy,
    LRUPolicy,
)
from repro.cachestore.shared import SharedBackend, SharedHandle, create_shared_backends

__all__ = [
    "MISSING",
    "BackendCounters",
    "BackendHandle",
    "CacheBackend",
    "key_digest",
    "EvictionPolicy",
    "LRUPolicy",
    "CostAwarePolicy",
    "InProcessBackend",
    "SharedBackend",
    "SharedHandle",
    "create_shared_backends",
    "DiskBackend",
    "DiskHandle",
    "BACKEND_CHOICES",
    "build_search_backends",
]
