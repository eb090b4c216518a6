"""Pluggable cache stores: where cached search work physically lives.

Cachestore architecture
=======================

A search caches work at two scopes, and each scope has one mechanism:

* **per-spec memo entries** — per-mask fits and partition discoveries, keyed
  by a :class:`~repro.search.cache.PairFingerprints` token that hashes the
  exact column values a computation reads.  They live in the process: in a
  session's in-memory store, so a changed-shortlist query on the same pair
  reuses them, or in the ``shared`` store the workers of one parallel search
  join.  Their keys rotate with every changed row, so across the hops of a
  version chain no entry recurs; shipping them out of the process was
  measured to be write-only traffic.
* **result entries** — one per summarize request, holding the ranked top-k
  (:meth:`~repro.core.charles.Charles.summarize_pair`).  They follow the
  configured backend out of the process, so an exact repeat of a request —
  in a new interpreter, or on another engine of the fleet — costs one lookup.

The hierarchy behind one ABC:

* :class:`~repro.cachestore.base.CacheBackend` — the contract
  (``get``/``put``/``__len__``/``clear`` plus per-layer counter snapshots,
  and ``handle()``/``attach()`` for the store pool workers join).
* :class:`~repro.cachestore.memory.InProcessBackend` — a process-local LRU
  dict; every per-spec store outside ``shared`` and every in-process
  results store.
* :class:`~repro.cachestore.shared.SharedBackend` — a
  ``multiprocessing.Manager`` dict every parallel worker attaches to, so
  ``n_jobs > 1`` recovers most of the serial hit rate.
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
:func:`~repro.cachestore.factory.build_search_backends`, which always builds
the ``(fits, partitions, results)`` stores the search layer carries.

Adding a new cache backend
--------------------------

Subclass :class:`~repro.cachestore.base.CacheBackend` and implement
``get``/``put``/``__len__``/``clear``.  Return :data:`MISSING` (never
``None`` — that is a legitimate cached value) for absent keys, count
``hits``/``misses``/``evictions`` locally, and key out-of-process storage by
:func:`~repro.cachestore.base.key_digest` so keys are stable across
interpreters.  Wire the kind into
:func:`~repro.cachestore.factory.build_search_backends` and
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
        "BackendHandle",
        "CacheBackend",
        "key_digest",
    ),
    "repro.cachestore.policy": ("EvictionPolicy", "LRUPolicy", "CostAwarePolicy"),
    "repro.cachestore.memory": ("InProcessBackend",),
    "repro.cachestore.shared": ("SharedBackend", "SharedHandle", "create_shared_backends"),
    "repro.cachestore.disk": ("DiskBackend",),
    "repro.cachestore.factory": ("BACKEND_CHOICES", "build_search_backends"),
})
__all__ = list(_EXPORTS)
