"""Pluggable cache stores: where stored search results physically live.

Cachestore architecture
=======================

A search caches work at two scopes, and each scope has one mechanism:

* **the pair memo** — per-mask fits, partition discoveries and the stages
  between them, in the plain dict tables of
  :class:`~repro.search.cache.SearchCaches`, keyed within one snapshot pair
  by row-mask digest and cleared when the pair changes.  It never touches
  this package: a changed-shortlist query on the same pair reuses it, and
  each worker of a parallel search keeps its own.  No entry recurs across
  the hops of a version chain, so shipping entries out of the process was
  measured to be write-only traffic, and a store the workers of one search
  join was measured to cost more than it saved.
* **result entries** — one per summarize request, holding the ranked top-k
  (:meth:`~repro.core.charles.Charles.summarize_pair`).  They live in a
  :class:`~repro.cachestore.base.CacheBackend` that follows the configured
  kind out of the process, so an exact repeat of a request — in a new
  interpreter, or on another engine of the fleet — costs one lookup.

The hierarchy behind one ABC:

* :class:`~repro.cachestore.base.CacheBackend` — the contract
  (``get``/``put``/``__len__``/``clear`` plus per-layer counter snapshots).
* :class:`~repro.cachestore.memory.InProcessBackend` — a process-local
  dict: the ``memory`` kind's results, and each cache-server region.
* :class:`~repro.cachestore.disk.DiskBackend` — a content-keyed SQLite store
  with transactional writes: the ``disk`` kind's results, which survive
  interpreter restarts.
* :class:`~repro.cacheserver.fabric.ShardedRemoteBackend` (in the sibling
  :mod:`repro.cacheserver` package) — the ``results`` region of a sharded
  cache *service*, so engines on different machines serve each other's
  repeated requests.

Eviction follows one rule in every bounded store — the in-process dict,
each cache-server region and the disk store: the oldest write goes first,
and overwriting a key counts as a new write.  A lookup never reorders
anything.  Eviction only turns a later hit into a recomputation, so it can
never change a ranking.

Selection is configuration-driven (``CharlesConfig.cache_backend`` /
``cache_dir`` / ``cache_url``, CLI ``--cache-backend`` / ``--cache-dir`` /
``--cache-url``) through
:func:`~repro.cachestore.factory.build_results_backend`, which builds the
results store; ``CharlesConfig.search_cache_capacity`` (CLI
``--cache-capacity``) bounds it.  ``shared``, the retired cross-process memo
store, is still accepted and runs as ``memory``.

Adding a new cache backend
--------------------------

Subclass :class:`~repro.cachestore.base.CacheBackend` and implement
``get``/``put``/``__len__``/``clear``.  Return :data:`MISSING` (never
``None`` — that is a legitimate cached value) for absent keys, evict the
oldest write first if the store is bounded, count
``hits``/``misses``/``evictions`` locally, and key out-of-process storage by
:func:`~repro.cachestore.base.key_digest` so keys are stable across
interpreters.  Wire the kind into
:func:`~repro.cachestore.factory.build_results_backend` and
``BACKEND_CHOICES``, importing its module inside its branch so a process
that never selects the kind never loads it; everything above the backend —
executors, sessions, stats, CLI — picks it up from configuration.  The contract to preserve: a
``put`` value must come back identically from ``get`` (backends never see
non-deterministic data, so races may duplicate work but can never corrupt
results).
"""

from repro import _lazy_exports

_EXPORTS, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.cachestore.base": (
        "MISSING",
        "BackendCounters",
        "CacheBackend",
        "key_digest",
    ),
    "repro.cachestore.memory": ("InProcessBackend",),
    "repro.cachestore.disk": ("DiskBackend",),
    "repro.cachestore.factory": ("BACKEND_CHOICES", "build_results_backend"),
})
__all__ = list(_EXPORTS)
