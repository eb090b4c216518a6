"""Memo caches for the candidate search, and the content keys that feed them.

The search evaluates many :class:`~repro.search.planner.CandidateSpec`\\ s that
overlap heavily: different partition counts and residual weights frequently
collapse to the same partition masks, merging re-fits union masks that later
specs rediscover, and hierarchical refinement re-runs partition discovery on
the same sub-table for every spec that produced the same parent partition.
Keying that work on *content* — the values the computation actually reads —
means no regression fit or partition discovery is ever computed twice within
one executor (or one worker process, in parallel runs).

Content keys are produced by :class:`PairFingerprints`: every relevant column
of the snapshot pair is folded into one 64-bit fingerprint per row, and a cache
key hashes exactly the fingerprints of the rows and attributes a computation
reads.  This has a property that matters beyond a single run: when a
long-lived :class:`~repro.timeline.session.EngineSession` carries one
:class:`SearchCaches` across a chain of dataset versions, entries whose input
rows are untouched between versions keep identical keys (and are reused),
while any touched row changes the key — so a stale entry can never be *hit*,
it simply stops being referenced and ages out of the LRU.  Delta-driven
invalidation falls out of the keying; no explicit invalidation pass exists or
is needed.

``MemoCache`` optionally bounds its size (``CharlesConfig.search_cache_capacity``)
with least-recently-used eviction, so long-lived sessions cannot grow without
limit; evictions are counted alongside hits and misses.

The caches are *logical* only: where entries physically live is a pluggable
:class:`~repro.cachestore.base.CacheBackend`.  ``MemoCache`` counts logical
hits and misses; the backend counts per-layer physical traffic, and both
travel in :class:`CacheCounters`.

Beside the per-spec memos, :class:`SearchCaches` carries a cache of whole
results, keyed by :func:`work_key` over :func:`snapshot_digest`\\ s of the
two snapshots.  It is the one store that follows ``CharlesConfig.
cache_backend`` out of the process (a SQLite file for ``disk``, the fabric
for ``remote``), so an exact repeat of a request costs one lookup anywhere.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Sequence

import numpy as np

from repro.cachestore import (
    MISSING,
    BackendCounters,
    CacheBackend,
    InProcessBackend,
    build_results_backend,
)
from repro.relational.snapshot import SnapshotPair
from repro.relational.table import Table

__all__ = [
    "MemoCache",
    "CacheCounters",
    "BackendCounters",
    "SearchCaches",
    "PairFingerprints",
    "mask_digest",
    "snapshot_digest",
    "work_key",
]


def mask_digest(mask: np.ndarray) -> bytes:
    """A compact content key for a boolean row mask."""
    return hashlib.blake2b(np.ascontiguousarray(mask).tobytes(), digest_size=16).digest()


def snapshot_digest(table: Table, key: str | None) -> bytes:
    """A BLAKE2b digest of a snapshot's content, in row order.

    Built from the column arrays: each column's name and type, then its
    float64 values or its dictionary codes and levels, plus the alignment
    ``key``.  Row order is part of the content because k-means++ draws
    depend on it.  Two snapshots whose levels were first seen in a
    different order digest differently, which costs a miss, never a wrong
    hit.
    """
    digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=16)
    for column in table.schema:
        digest.update(repr((column.name, column.dtype.value)).encode("utf-8"))
        if column.is_numeric:
            digest.update(np.asarray(table.numeric_column(column.name), dtype="<f8").tobytes())
        else:
            codes, levels = table.categorical_codes(column.name)
            digest.update(repr(levels).encode("utf-8"))
            digest.update(np.asarray(codes, dtype="<i8").tobytes())
    return digest.digest()


def work_key(
    config,
    source_digest: bytes,
    target_digest: bytes,
    target: str,
    condition_attributes: Sequence[str] | None,
    transformation_attributes: Sequence[str] | None,
) -> bytes:
    """The identity of one summarize request, total over its result.

    ``config`` contributes ``cache_fingerprint()`` (every knob that changes
    a computed value) plus ``top_k`` and ``prune_search``: neutral for memo
    entries, they decide how many summaries a result holds and how many
    candidates it counts.  The digests are content digests of the two
    snapshots; ``None`` shortlists resolve deterministically from the pair
    via the setup assistant, so they key as themselves.  Result entries and
    the serving layer's single-flight deduplication both key by it.
    """
    shortlists = tuple(
        None if names is None else tuple(names)
        for names in (condition_attributes, transformation_attributes)
    )
    digest = hashlib.blake2b(config.cache_fingerprint(), digest_size=16)
    digest.update(source_digest)
    digest.update(target_digest)
    digest.update(
        repr((config.top_k, config.prune_search, target, *shortlists)).encode("utf-8")
    )
    return digest.digest()


class MemoCache:
    """A backend-backed memo cache with hit/miss/eviction accounting.

    ``None`` is a legitimate cached value (e.g. "this partition admits no
    transformation"), so membership is tested with lookup, not sentinel
    comparison.  Storage lives in a :class:`~repro.cachestore.base.CacheBackend`
    — an in-process LRU dict by default (``capacity`` bounds it; lookups
    refresh recency; without one it grows unboundedly, which is fine for
    one-shot searches but not for long-lived engine sessions), or any
    persistent backend from :mod:`repro.cachestore`.

    ``hits``/``misses`` here are *logical* (did the lookup avoid a
    recomputation, wherever the entry came from); the backend's own counters
    break the traffic down per physical layer.
    """

    def __init__(
        self, capacity: int | None = None, backend: CacheBackend | None = None
    ) -> None:
        if backend is not None and capacity is not None:
            raise ValueError("pass capacity or a ready backend, not both")
        self._backend = backend if backend is not None else InProcessBackend(capacity)
        self.hits = 0
        self.misses = 0

    @property
    def backend(self) -> CacheBackend:
        """The physical store behind this cache."""
        return self._backend

    @property
    def capacity(self) -> int | None:
        """Maximum number of entries (``None`` = unbounded)."""
        return self._backend.capacity

    @property
    def evictions(self) -> int:
        """Entries the backend dropped under its capacity bound (all layers)."""
        return self._backend.counters().evictions

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The cached value for ``key``, computing and storing it on first use.

        The compute call is timed and the observed seconds travel with the
        entry as its :meth:`~repro.cachestore.base.CacheBackend.put` cost
        hint, so cost-aware stores (the cache server's regions) know what a
        miss on this entry would cost the fleet to recompute.
        """
        value = self.lookup(key)
        if value is MISSING:
            started = time.perf_counter()
            value = compute()
            self.store(key, value, cost_seconds=time.perf_counter() - started)
        return value

    def lookup(self, key: Hashable) -> Any:
        """The cached value for ``key`` or :data:`~repro.cachestore.MISSING`.

        Counts a logical hit or miss; callers that resolve the miss themselves
        (the evaluator's traced partition discovery) pair this with :meth:`store`.
        """
        value = self._backend.get(key)
        if value is MISSING:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def store(self, key: Hashable, value: Any, cost_seconds: float | None = None) -> None:
        """Store a value computed outside the cache."""
        self._backend.put(key, value, cost_hint=cost_seconds)

    def __len__(self) -> int:
        return len(self._backend)

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._backend.clear()

    def close(self) -> None:
        """Release the backend's process-level resources."""
        self._backend.close()


def _merge_backend_counters(
    left: tuple[tuple[str, BackendCounters], ...],
    right: tuple[tuple[str, BackendCounters], ...],
    sign: int,
) -> tuple[tuple[str, BackendCounters], ...]:
    """Keywise sum/difference of two per-backend breakdowns, sorted by layer."""
    merged = dict(left)
    for name, counters in right:
        base = merged.get(name, BackendCounters())
        merged[name] = base + counters if sign > 0 else base - counters
    return tuple(sorted(merged.items()))


@dataclass(frozen=True)
class CacheCounters:
    """A snapshot of both caches' counters (supports delta arithmetic).

    The ``fit_*``/``partition_*`` fields count *logical* cache traffic (did a
    lookup avoid recomputation); ``backends`` breaks the same activity down
    per physical layer — e.g. a sharded ``remote`` store reports its
    aggregate plus one component layer per endpoint — as a sorted ``(layer
    name, counters)`` mapping that survives the same ``+``/``-`` arithmetic.
    """

    fit_hits: int = 0
    fit_misses: int = 0
    partition_hits: int = 0
    partition_misses: int = 0
    fit_evictions: int = 0
    partition_evictions: int = 0
    backends: tuple[tuple[str, BackendCounters], ...] = ()

    @property
    def evictions(self) -> int:
        """Total evictions across both caches."""
        return self.fit_evictions + self.partition_evictions

    @property
    def hits(self) -> int:
        """Total hits across both caches."""
        return self.fit_hits + self.partition_hits

    @property
    def misses(self) -> int:
        """Total misses across both caches."""
        return self.fit_misses + self.partition_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered without recomputation, in [0, 1]."""
        lookups = self.hits + self.misses
        if lookups == 0:
            return 0.0
        return self.hits / lookups

    @property
    def by_backend(self) -> dict[str, BackendCounters]:
        """The per-layer breakdown as a plain dictionary."""
        return dict(self.backends)

    def __sub__(self, other: "CacheCounters") -> "CacheCounters":
        return CacheCounters(
            fit_hits=self.fit_hits - other.fit_hits,
            fit_misses=self.fit_misses - other.fit_misses,
            partition_hits=self.partition_hits - other.partition_hits,
            partition_misses=self.partition_misses - other.partition_misses,
            fit_evictions=self.fit_evictions - other.fit_evictions,
            partition_evictions=self.partition_evictions - other.partition_evictions,
            backends=_merge_backend_counters(self.backends, other.backends, -1),
        )

    def __add__(self, other: "CacheCounters") -> "CacheCounters":
        return CacheCounters(
            fit_hits=self.fit_hits + other.fit_hits,
            fit_misses=self.fit_misses + other.fit_misses,
            partition_hits=self.partition_hits + other.partition_hits,
            partition_misses=self.partition_misses + other.partition_misses,
            fit_evictions=self.fit_evictions + other.fit_evictions,
            partition_evictions=self.partition_evictions + other.partition_evictions,
            backends=_merge_backend_counters(self.backends, other.backends, +1),
        )


class SearchCaches:
    """The memo caches one evaluator carries through a search, plus results.

    * ``fits`` — per-mask transformation fits, keyed on the transformation
      subset plus a :class:`PairFingerprints` content token of the rows read.
    * ``partitions`` — partition-discovery results, keyed on the spec
      parameters plus the content token of the scope rows the discovery ran on.
    * ``results`` — whole ranked results, one per summarize request, keyed
      by :func:`work_key`; read and written by
      :meth:`~repro.core.charles.Charles.summarize_pair`, never by a search.

    Because the keys are content-based, one ``SearchCaches`` may safely serve
    many searches — different targets, different snapshot pairs of the same
    entity chain — *provided the configuration is fixed*: knobs like the
    k-means seed or coverage thresholds change computed values without changing
    content keys, so caches must never be shared across configurations.
    :class:`~repro.timeline.session.EngineSession` owns exactly one config and
    one ``SearchCaches`` for this reason; a results store that outlives its
    owner (disk, remote) additionally namespaces every key with the config's
    ``cache_fingerprint()`` (see :meth:`from_config`).

    The per-spec pair always lives in the process, in in-memory stores
    (a caller may inject its own ``backends``, e.g. to record traffic);
    :meth:`from_config` builds the results store
    ``CharlesConfig.cache_backend`` selects.
    """

    def __init__(
        self,
        capacity: int | None = None,
        backends: tuple[CacheBackend, CacheBackend] | None = None,
        results: CacheBackend | None = None,
    ) -> None:
        if backends is None:
            backends = (InProcessBackend(capacity), InProcessBackend(capacity))
        elif capacity is not None:
            raise ValueError("pass capacity or ready backends, not both")
        fit_backend, partition_backend = backends
        self.fits = MemoCache(backend=fit_backend)
        self.partitions = MemoCache(backend=partition_backend)
        self.results = MemoCache(
            backend=results if results is not None else InProcessBackend(capacity)
        )
        self._pair_id: bytes | None = None

    @classmethod
    def from_config(cls, config) -> "SearchCaches":
        """The caches ``config`` asks for (backend kind, capacity, directory).

        ``config`` is duck-typed (any object with ``cache_backend``,
        ``search_cache_capacity``, ``cache_dir`` and ``cache_url``), so the
        cache layer does not depend on :mod:`repro.core`.  A
        ``cache_fingerprint()`` method, if present, namespaces persistent and
        remote backends so that runs configured differently never reuse each
        other's entries.
        """
        fingerprint = getattr(config, "cache_fingerprint", None)
        results = build_results_backend(
            getattr(config, "cache_backend", "memory"),
            config.search_cache_capacity,
            getattr(config, "cache_dir", None),
            namespace=fingerprint() if callable(fingerprint) else b"",
            cache_url=getattr(config, "cache_url", None),
            cache_replication=getattr(config, "cache_replication", 1),
        )
        return cls(config.search_cache_capacity, results=results)

    @property
    def backend_kind(self) -> str:
        """The configured store kind (e.g. ``"disk"``): the results store's."""
        return self.results.backend.kind

    def counters(self) -> CacheCounters:
        """The current cumulative counters of both per-spec caches."""
        return CacheCounters(
            fit_hits=self.fits.hits,
            fit_misses=self.fits.misses,
            partition_hits=self.partitions.hits,
            partition_misses=self.partitions.misses,
            fit_evictions=self.fits.evictions,
            partition_evictions=self.partitions.evictions,
            backends=_merge_backend_counters(
                tuple(sorted(self.fits.backend.breakdown().items())),
                tuple(sorted(self.partitions.backend.breakdown().items())),
                +1,
            ),
        )

    def scope_to_pair(self, pair_id: bytes) -> None:
        """Keep per-spec entries for one pair: drop them when the pair changes.

        Memo keys hash the rows a computation reads, and each hop of a
        version chain rewrites a different row set, so an earlier pair's
        entries are not read again (measured: no key recurs across the hops
        of a streaming chain); a long session would only carry them.  The
        entries of the pair asked last stay, so another shortlist or target
        on it keeps its reuse.
        """
        if pair_id != self._pair_id:
            self._pair_id = pair_id
            self.fits.clear()
            self.partitions.clear()

    def result_traffic(self) -> CacheCounters:
        """The results store's cumulative per-layer counters (no logical fields)."""
        return CacheCounters(backends=tuple(sorted(self.results.backend.breakdown().items())))

    def close(self) -> None:
        """Release backend resources (disk connections, sockets)."""
        self.fits.close()
        self.partitions.close()
        self.results.close()


class PairFingerprints:
    """Per-row content fingerprints of an aligned snapshot pair.

    Each column is folded into one ``uint64`` per row (the raw IEEE-754 bits
    for numeric columns, an 8-byte BLAKE2b digest per distinct value for
    categorical ones); a :meth:`token` then hashes exactly the fingerprints a
    computation reads — the requested attributes plus the target attribute on
    both sides, restricted to the rows of a boolean mask.  Two lookups receive
    the same token if and only if (up to hash collisions) the computation
    would read identical values, which is what makes the memo caches safe to
    share across runs and across versions of evolving data.

    Fingerprints are built lazily per column and cached for the lifetime of
    the evaluator, so a token costs one masked gather per involved column.
    """

    def __init__(self, pair: SnapshotPair, target: str) -> None:
        self._pair = pair
        self._target = target
        self._source_prints: dict[str, np.ndarray] = {}
        self._target_print: np.ndarray | None = None

    @staticmethod
    def _column_fingerprint(table: Table, name: str) -> np.ndarray:
        column = table.schema.column(name)
        if column.is_numeric:
            return np.ascontiguousarray(table.numeric_column(name)).view(np.uint64)
        codes, levels = table.categorical_codes(name)
        # one digest per distinct value, plus the missing marker for code -1
        tokens = [repr(value).encode("utf-8") for value in levels] + [b"\x00"]
        digests = np.array(
            [
                int.from_bytes(hashlib.blake2b(token, digest_size=8).digest(), "little")
                for token in tokens
            ],
            dtype=np.uint64,
        )
        return digests[codes]

    def _source(self, name: str) -> np.ndarray:
        print_ = self._source_prints.get(name)
        if print_ is None:
            print_ = self._column_fingerprint(self._pair.source, name)
            self._source_prints[name] = print_
        return print_

    def _target_side(self) -> np.ndarray:
        if self._target_print is None:
            self._target_print = self._column_fingerprint(self._pair.target, self._target)
        return self._target_print

    def token(self, attributes: Sequence[str], mask: np.ndarray) -> bytes:
        """Content token of ``attributes`` + the target attribute under ``mask``.

        Covers, for the selected rows: the source-side values of every
        requested attribute, the source-side value of the target attribute and
        the target-side value of the target attribute — the complete input of
        both per-mask fits and partition discovery.
        """
        digest = hashlib.blake2b(digest_size=16)
        for name in dict.fromkeys(attributes):
            if name != self._target:
                digest.update(self._source(name)[mask].tobytes())
        digest.update(self._source(self._target)[mask].tobytes())
        digest.update(self._target_side()[mask].tobytes())
        return digest.digest()
