"""Pluggable cache stores: where cached search work physically lives.

Cachestore architecture
=======================

A search caches work at two scopes, and each scope has one mechanism:

* **per-spec memo entries** — per-mask fits and partition discoveries, keyed
  by a :class:`~repro.search.cache.PairFingerprints` token that hashes the
  exact column values a computation reads.  They live in the process, in
  in-memory stores, so a changed-shortlist query on the same pair reuses
  them; each worker of a parallel search keeps its own.  Their keys rotate
  with every changed row, so across the hops of a version chain no entry
  recurs; shipping them out of the process was measured to be write-only
  traffic, and a store the workers of one search join was measured to cost
  more than it saved.
* **result entries** — one per summarize request, holding the ranked top-k
  (:meth:`~repro.core.charles.Charles.summarize_pair`).  They follow the
  configured backend out of the process, so an exact repeat of a request —
  in a new interpreter, or on another engine of the fleet — costs one lookup.

The hierarchy behind one ABC:

* :class:`~repro.cachestore.base.CacheBackend` — the contract
  (``get``/``put``/``__len__``/``clear`` plus per-layer counter snapshots).
* :class:`~repro.cachestore.memory.InProcessBackend` — a process-local LRU
  dict; every per-spec store and the ``memory`` kind's results.
* :class:`~repro.cachestore.disk.DiskBackend` — a content-keyed SQLite store
  with transactional writes: the ``disk`` kind's results, which survive
  interpreter restarts.
* :class:`~repro.cacheserver.fabric.ShardedRemoteBackend` (in the sibling
  :mod:`repro.cacheserver` package) — the ``results`` region of a sharded
  cache *service*, so engines on different machines serve each other's
  repeated requests.

Eviction order (:mod:`repro.cachestore.policy`): the engine's in-process
stores evict least-recently-used first; cache-server regions and the disk
store evict cost-aware, ranking entries by the observed recomputation
seconds each ``put`` ships as its ``cost_hint`` per byte held (a result
entry's cost is its search's wall time).

Selection is configuration-driven (``CharlesConfig.cache_backend`` /
``cache_dir`` / ``cache_url``, CLI ``--cache-backend`` / ``--cache-dir`` /
``--cache-url``) through
:func:`~repro.cachestore.factory.build_results_backend`, which builds the
results store; :class:`~repro.search.cache.SearchCaches` makes its two
per-spec stores itself.  ``shared``, the retired cross-process memo store,
is still accepted and runs as ``memory``.

Adding a new cache backend
--------------------------

Subclass :class:`~repro.cachestore.base.CacheBackend` and implement
``get``/``put``/``__len__``/``clear``.  Return :data:`MISSING` (never
``None`` — that is a legitimate cached value) for absent keys, count
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
    "repro.cachestore.policy": ("EvictionPolicy", "LRUPolicy", "CostAwarePolicy"),
    "repro.cachestore.memory": ("InProcessBackend",),
    "repro.cachestore.disk": ("DiskBackend",),
    "repro.cachestore.factory": ("BACKEND_CHOICES", "build_results_backend"),
})
__all__ = list(_EXPORTS)
