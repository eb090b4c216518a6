"""The memo of one snapshot pair's search work, and the keys that feed it.

The search evaluates many :class:`~repro.search.planner.CandidateSpec`\\ s that
overlap heavily: different partition counts and residual weights frequently
collapse to the same partition masks, merging re-fits union masks that later
specs rediscover, and hierarchical refinement re-runs partition discovery on
the same sub-table for every spec that produced the same parent partition.
:class:`SearchCaches` memoises that work so no regression fit or partition
discovery is computed twice for one pair (per worker process, in parallel
runs).

Every memo table is a plain dict scoped to one pair: a row mask identifies
the rows a computation reads (:func:`mask_digest`), and the target attribute
plus the attribute subsets name the columns.  Those keys mean nothing
outside the pair, so :meth:`SearchCaches.scope_to_pair` drops every table
when the pair changes, and the
:class:`~repro.search.evaluator.CandidateEvaluator` scopes the caches it is
handed to its pair's :func:`snapshot_digest`\\ s.  A version chain rewrites
a different row set at every hop, so no entry would recur across hops
anyway (measured); what the scope keeps is the reuse within one pair, where
the analyst re-asks with another shortlist or target.

Beside the memo, :class:`SearchCaches` carries a store of whole results,
keyed by :func:`work_key` over :func:`snapshot_digest`\\ s of the two
snapshots.  It is the one store that follows ``CharlesConfig.
cache_backend`` out of the process (a SQLite file for ``disk``, the fabric
for ``remote``), so an exact repeat of a request costs one lookup anywhere.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Hashable, Sequence

import numpy as np

from repro.cachestore import MISSING, CacheBackend, InProcessBackend, build_results_backend
from repro.relational.table import Table

__all__ = [
    "MemoTable",
    "CacheCounters",
    "SearchCaches",
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


class MemoTable(dict):
    """A dict that counts its lookups: ``hits`` found an entry, ``misses`` did not.

    ``None`` is a legitimate memoised value (e.g. "this partition admits no
    transformation"), so :meth:`lookup` answers :data:`~repro.cachestore.
    MISSING` for an absent key.  Clearing keeps the counts.
    """

    def __init__(self) -> None:
        super().__init__()
        self.hits = 0
        self.misses = 0

    def lookup(self, key: Hashable) -> Any:
        """The value stored under ``key`` or ``MISSING``, counted as a hit or miss."""
        value = self.get(key, MISSING)
        if value is MISSING:
            self.misses += 1
        else:
            self.hits += 1
        return value


@dataclass(frozen=True)
class CacheCounters:
    """A snapshot of the fit and partition tables' counts (supports delta arithmetic)."""

    fit_hits: int = 0
    fit_misses: int = 0
    partition_hits: int = 0
    partition_misses: int = 0

    @property
    def hits(self) -> int:
        """Total hits across both tables."""
        return self.fit_hits + self.partition_hits

    @property
    def misses(self) -> int:
        """Total misses across both tables."""
        return self.fit_misses + self.partition_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered without recomputation, in [0, 1]."""
        lookups = self.hits + self.misses
        if lookups == 0:
            return 0.0
        return self.hits / lookups

    def __sub__(self, other: "CacheCounters") -> "CacheCounters":
        return CacheCounters(
            fit_hits=self.fit_hits - other.fit_hits,
            fit_misses=self.fit_misses - other.fit_misses,
            partition_hits=self.partition_hits - other.partition_hits,
            partition_misses=self.partition_misses - other.partition_misses,
        )

    def __add__(self, other: "CacheCounters") -> "CacheCounters":
        return CacheCounters(
            fit_hits=self.fit_hits + other.fit_hits,
            fit_misses=self.fit_misses + other.fit_misses,
            partition_hits=self.partition_hits + other.partition_hits,
            partition_misses=self.partition_misses + other.partition_misses,
        )


class SearchCaches:
    """The memo of one pair's search work, plus the store of whole results.

    Five memo tables, all keyed within one snapshot pair and led by the
    target attribute:

    * ``fits`` — per-mask transformation fits, by (target, T, mask digest);
    * ``partitions`` — partition-discovery results, by (target, C, T, k, w,
      scope mask digest);
    * ``clustering_inputs`` — a scope's unweighted clustering matrix, by
      (target, C, T, scope mask digest): every k and w clusters it;
    * ``inductions`` — induced partitions, by (target, C, scope mask digest,
      ``k > 1``, labels);
    * ``summaries`` — built and scored summaries, by (target, partition
      signature).

    ``fits`` and ``partitions`` count hits and misses (:class:`MemoTable`);
    the other three are plain dicts.  :meth:`scope_to_pair` clears all five
    together.  ``results`` holds whole ranked results, one per summarize
    request, keyed by :func:`work_key`; it is the bare
    :class:`~repro.cachestore.base.CacheBackend` ``CharlesConfig.
    cache_backend`` selects (:meth:`from_config`), read and written by
    :meth:`~repro.core.charles.Charles.summarize_pair`, never by a search.

    Memo keys carry no configuration: knobs like the k-means seed change
    computed values without changing a key, so one ``SearchCaches`` must
    never serve two configurations.
    :class:`~repro.timeline.session.EngineSession` owns exactly one config
    and one ``SearchCaches`` for this reason; a results store that outlives
    its owner (disk, remote) additionally namespaces every key with the
    config's ``cache_fingerprint()``.
    """

    def __init__(self, results: CacheBackend | None = None) -> None:
        self.fits = MemoTable()
        self.partitions = MemoTable()
        self.clustering_inputs: dict[tuple, np.ndarray] = {}
        self.inductions: dict[tuple, tuple] = {}
        self.summaries: dict[tuple, Any] = {}
        self.results = results if results is not None else InProcessBackend()
        self._pair_id: bytes | None = None

    @classmethod
    def from_config(cls, config) -> "SearchCaches":
        """The caches ``config`` asks for (results backend kind, capacity, directory).

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
        return cls(results=results)

    @property
    def backend_kind(self) -> str:
        """The configured store kind (e.g. ``"disk"``): the results store's."""
        return self.results.kind

    def counters(self) -> CacheCounters:
        """The current cumulative counts of the fit and partition tables."""
        return CacheCounters(
            fit_hits=self.fits.hits,
            fit_misses=self.fits.misses,
            partition_hits=self.partitions.hits,
            partition_misses=self.partitions.misses,
        )

    def scope_to_pair(self, pair_id: bytes) -> None:
        """Keep the memo for one pair: drop every table when the pair changes.

        The entries of the pair asked last stay, so another shortlist or
        target on it keeps its reuse.
        """
        if pair_id != self._pair_id:
            self._pair_id = pair_id
            for table in (
                self.fits,
                self.partitions,
                self.clustering_inputs,
                self.inductions,
                self.summaries,
            ):
                table.clear()

    def close(self) -> None:
        """Release the results store's resources (disk connections, sockets)."""
        self.results.close()
