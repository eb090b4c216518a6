"""Search statistics: what the engine did and what the caches/pruning saved.

A :class:`SearchStats` record travels with every discovery run: the executors
fill it in, :class:`~repro.core.charles.CharlesResult` carries it to callers,
the CLI prints it, and the evaluation harness / scaling benchmark tabulate it
so the performance trajectory of the search subsystem is measurable across
PRs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cachestore import BackendCounters
from repro.search.cache import CacheCounters

__all__ = ["SearchStats"]


@dataclass
class SearchStats:
    """Counters describing one diff-discovery search run.

    ``candidates_enumerated`` is the size of the planned candidate space;
    every spec ends up either ``evaluated`` (partitions discovered, models
    fitted, summary scored — or found infeasible) or pruned — as a provable
    *duplicate* of an earlier spec's partition structure, or because the
    pre-discovery :class:`~repro.search.bounds.SpecBound` proved the spec
    could not reach the run's top-k floor (``candidates_pruned_spec_bounds``;
    these specs never invoked partition discovery, fits or cache lookups at
    all).  ``bound_pruning`` records whether
    those pre-discovery bounds ran: they do unless ``prune_search`` is off or
    the plan is empty.  Pruning never changes rankings, only wall time.
    Cache counters come from the memo caches of :mod:`repro.search.cache`;
    in parallel runs they are aggregated across worker processes.  Each
    worker has private caches, so parallel hit rates are typically lower
    than serial ones.  ``backend_counters`` breaks the traffic down per
    physical layer, the result-entry lookup and store
    of :meth:`~repro.core.charles.Charles.summarize_pair` included: a
    ``remote`` layer additionally reports the network round trips it made —
    one per lookup and one per replica written, fewer while the client is
    degraded — and, on a sharded fabric, per-endpoint ``remote[host:port]``
    component layers plus the reads failed over around the ring when a
    replicated shard was unreachable.

    ``cache_backend`` records which store kind the run used.

    ``result_hits`` is 1 when the whole ranking came from a stored result
    entry.  Such a run plans and evaluates nothing, so every search counter
    is 0: the stats describe this call, not the run that stored the entry.

    Every partition-cache miss runs a full discovery, so
    ``partitions_recomputed`` equals ``partition_cache_misses``.  It and the
    retired ``partitions_patched`` / ``partition_patch_fallbacks`` counters
    (always 0) stay readable for callers that still tabulate them.
    """

    candidates_enumerated: int = 0
    result_hits: int = 0
    candidates_evaluated: int = 0
    candidates_pruned_duplicates: int = 0
    candidates_pruned_spec_bounds: int = 0
    bound_pruning: bool = False
    fit_cache_hits: int = 0
    fit_cache_misses: int = 0
    partition_cache_hits: int = 0
    partition_cache_misses: int = 0
    cache_evictions: int = 0
    cache_backend: str = "memory"
    backend_counters: dict[str, BackendCounters] = field(default_factory=dict)
    wall_time_seconds: float = 0.0
    n_jobs: int = 1
    rounds: int = field(default=0)

    # -- derived ---------------------------------------------------------------

    @property
    def candidates_pruned(self) -> int:
        """Total specs skipped (duplicate and spec-bound)."""
        return self.candidates_pruned_duplicates + self.candidates_pruned_spec_bounds

    @property
    def cache_hits(self) -> int:
        """Total memo-cache hits (fit + partition caches)."""
        return self.fit_cache_hits + self.partition_cache_hits

    @property
    def cache_lookups(self) -> int:
        """Total memo-cache lookups (hits + misses, both caches)."""
        return (
            self.fit_cache_hits
            + self.fit_cache_misses
            + self.partition_cache_hits
            + self.partition_cache_misses
        )

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cache lookups answered without recomputation, in [0, 1]."""
        lookups = self.cache_lookups
        if lookups == 0:
            return 0.0
        return self.cache_hits / lookups

    @property
    def partitions_recomputed(self) -> int:
        """Full partition discoveries run: one per partition-cache miss."""
        return self.partition_cache_misses

    @property
    def partitions_patched(self) -> int:
        """Retired with partition maintenance; always 0."""
        return 0

    @property
    def partition_patch_fallbacks(self) -> int:
        """Retired with partition maintenance; always 0."""
        return 0

    # -- aggregation -----------------------------------------------------------

    def merge_cache_counters(self, counters: CacheCounters) -> None:
        """Absorb a cache-counter delta reported by one executor round/worker."""
        self.fit_cache_hits += counters.fit_hits
        self.fit_cache_misses += counters.fit_misses
        self.partition_cache_hits += counters.partition_hits
        self.partition_cache_misses += counters.partition_misses
        self.cache_evictions += counters.evictions
        for layer, delta in counters.backends:
            self.backend_counters[layer] = (
                self.backend_counters.get(layer, BackendCounters()) + delta
            )

    # -- rendering -------------------------------------------------------------

    def as_dict(self) -> dict[str, float]:
        """Every counter plus the derived rates, as a plain JSON-friendly dict."""
        return {
            "candidates_enumerated": self.candidates_enumerated,
            "result_hits": self.result_hits,
            "candidates_evaluated": self.candidates_evaluated,
            "candidates_pruned": self.candidates_pruned,
            "candidates_pruned_duplicates": self.candidates_pruned_duplicates,
            "candidates_pruned_spec_bounds": self.candidates_pruned_spec_bounds,
            "bound_pruning": self.bound_pruning,
            "fit_cache_hits": self.fit_cache_hits,
            "fit_cache_misses": self.fit_cache_misses,
            "partition_cache_hits": self.partition_cache_hits,
            "partition_cache_misses": self.partition_cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_hit_rate": self.cache_hit_rate,
            "cache_backend": self.cache_backend,
            "backend_counters": {
                layer: counters.as_dict()
                for layer, counters in sorted(self.backend_counters.items())
            },
            "wall_time_seconds": self.wall_time_seconds,
            "n_jobs": self.n_jobs,
            "rounds": self.rounds,
        }

    def describe(self) -> str:
        """A one-line human-readable rendering (used by the CLI)."""
        if self.result_hits:
            text = f"served from a stored result, {self.wall_time_seconds:.2f}s"
            if self.cache_backend != "memory":
                text += f", cache={self.cache_backend}"
            return text
        text = (
            f"{self.candidates_enumerated} candidates planned "
            f"({self.candidates_evaluated} evaluated, {self.candidates_pruned} pruned), "
            f"cache hit rate {100.0 * self.cache_hit_rate:.1f}%, "
            f"{self.wall_time_seconds:.2f}s, jobs={self.n_jobs}"
        )
        if self.candidates_pruned_spec_bounds:
            text += (
                f", {self.candidates_pruned_spec_bounds} bound-pruned before discovery"
            )
        if self.cache_backend != "memory":
            text += f", cache={self.cache_backend}"
        return text

    def __str__(self) -> str:
        return self.describe()
