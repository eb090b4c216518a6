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
    *duplicate* of an earlier spec's partition structure, because a built
    summary's score upper *bound* could not beat the current top-k floor, or
    because the pre-discovery :class:`~repro.search.bounds.SpecBound` already
    proved the spec could not reach the floor
    (``candidates_pruned_spec_bounds``; these specs never invoked partition
    discovery, fits or prefetches at all).  ``bound_pruning`` records whether
    those pre-discovery bounds ran: they do unless ``prune_search`` is off or
    the plan is empty.  Pruning never changes rankings, only wall time.
    Cache counters come from the memo caches of :mod:`repro.search.cache`;
    in parallel runs they are aggregated across worker processes.  With the
    default in-process backend each worker has private caches, so parallel
    hit rates are typically lower than serial ones; a shared or disk
    ``cache_backend`` lets workers serve each other's entries and recovers
    the serial rate.  ``backend_counters`` breaks the same traffic down per
    physical layer: a ``remote`` layer additionally reports the network
    round-trips it actually made — below its lookup count while the client
    is degraded or while batched prefetches answer many lookups per request
    — and, on a sharded fabric, per-endpoint ``remote[host:port]`` component
    layers plus the reads failed over around the ring when a replicated
    shard was unreachable.  ``cache_backend`` records which store kind the
    run used.  When that differs from what the configuration asked for — a
    one-shot serial run quietly substitutes in-process caches for a
    ``shared`` backend that would have nothing to share — the configured
    kind is kept in ``cache_backend_requested`` so the substitution is
    visible, not silent.

    Warm-started runs (see :class:`~repro.timeline.session.EngineSession`)
    record the seeded pruning floor in ``warm_start_floor``;
    ``warm_start_fallback`` marks runs where the seed proved too aggressive
    and the search was transparently re-run with an open floor (the recorded
    wall time then covers both attempts).

    Every partition-cache miss runs a full discovery, so
    ``partitions_recomputed`` equals ``partition_cache_misses``.  It and the
    retired ``partitions_patched`` / ``partition_patch_fallbacks`` counters
    (always 0) stay readable for callers that still tabulate them.
    """

    candidates_enumerated: int = 0
    candidates_evaluated: int = 0
    candidates_pruned_duplicates: int = 0
    candidates_pruned_bounds: int = 0
    candidates_pruned_spec_bounds: int = 0
    bound_pruning: bool = False
    fit_cache_hits: int = 0
    fit_cache_misses: int = 0
    partition_cache_hits: int = 0
    partition_cache_misses: int = 0
    cache_evictions: int = 0
    cache_backend: str = "memory"
    cache_backend_requested: str | None = None
    backend_counters: dict[str, BackendCounters] = field(default_factory=dict)
    wall_time_seconds: float = 0.0
    n_jobs: int = 1
    rounds: int = field(default=0)
    warm_start_floor: float | None = None
    warm_start_fallback: bool = False

    # -- derived ---------------------------------------------------------------

    @property
    def candidates_pruned(self) -> int:
        """Total specs skipped or dropped (duplicate, score-bound and spec-bound)."""
        return (
            self.candidates_pruned_duplicates
            + self.candidates_pruned_bounds
            + self.candidates_pruned_spec_bounds
        )

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

    @property
    def warm_started(self) -> bool:
        """Whether this run was seeded with a pruning floor from a previous run."""
        return self.warm_start_floor is not None

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
            "candidates_evaluated": self.candidates_evaluated,
            "candidates_pruned": self.candidates_pruned,
            "candidates_pruned_duplicates": self.candidates_pruned_duplicates,
            "candidates_pruned_bounds": self.candidates_pruned_bounds,
            "candidates_pruned_spec_bounds": self.candidates_pruned_spec_bounds,
            "bound_pruning": self.bound_pruning,
            "fit_cache_hits": self.fit_cache_hits,
            "fit_cache_misses": self.fit_cache_misses,
            "partition_cache_hits": self.partition_cache_hits,
            "partition_cache_misses": self.partition_cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_hit_rate": self.cache_hit_rate,
            "cache_backend": self.cache_backend,
            "cache_backend_requested": self.cache_backend_requested,
            "backend_counters": {
                layer: counters.as_dict()
                for layer, counters in sorted(self.backend_counters.items())
            },
            "wall_time_seconds": self.wall_time_seconds,
            "n_jobs": self.n_jobs,
            "rounds": self.rounds,
            "warm_started": self.warm_started,
            "warm_start_floor": self.warm_start_floor,
            "warm_start_fallback": self.warm_start_fallback,
        }

    def describe(self) -> str:
        """A one-line human-readable rendering (used by the CLI)."""
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
        if self.cache_backend_requested is not None:
            text += (
                f", cache_backend {self.cache_backend_requested!r} not used"
                " (nothing to share in a one-shot serial run)"
            )
        if self.warm_started:
            suffix = " (fell back to a cold floor)" if self.warm_start_fallback else ""
            text += f", warm floor {self.warm_start_floor:.3f}{suffix}"
        return text

    def __str__(self) -> str:
        return self.describe()
