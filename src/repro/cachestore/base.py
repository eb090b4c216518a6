"""The cache-backend contract: what every physical store must provide.

The search subsystem's memo caches (:mod:`repro.search.cache`) are *logical*
caches: they know what a key means and when to compute a value.  A
:class:`CacheBackend` is the *physical* store behind one of them — where the
entries actually live (a process-local dict, an on-disk SQLite file, the
cache fabric) and what happens when the store fills up.  Separating the two
lets a stored result survive interpreter restarts and reach other engines
without the search layer knowing or caring.

The contract is deliberately small:

* :meth:`~CacheBackend.get` returns the stored value or the :data:`MISSING`
  sentinel (``None`` is a legitimate cached value, so absence needs its own
  token);
* :meth:`~CacheBackend.put` stores a value, possibly evicting under a
  capacity bound (the eviction order is a pluggable
  :class:`~repro.cachestore.policy.EvictionPolicy` where the backend supports
  one — LRU in process by default, cost-aware on disk).  The
  optional ``cost_hint`` is the observed seconds the value took to compute;
  cost-aware policies use it to retain expensive work under pressure, every
  other backend is free to ignore it;
* ``__len__`` / :meth:`~CacheBackend.clear` expose and drop the stored
  entries (clearing preserves counters);
* :meth:`~CacheBackend.counters` / :meth:`~CacheBackend.breakdown` snapshot
  the backend's own hit/miss/eviction accounting, per physical layer.

Counters are always process-local; the stats layer aggregates them across
the workers of a parallel search.
"""

from __future__ import annotations

import hashlib
import pickle
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Hashable

from repro.obs.metrics import get_registry

__all__ = [
    "MISSING",
    "STORE_ERRORS",
    "UNPICKLE_ERRORS",
    "BackendCounters",
    "CacheBackend",
    "key_digest",
]

# store failures a backend degraded (to a miss, a dropped write or 0) instead
# of raising, across every backend in the process; one dict update each
STORE_ERRORS = get_registry().counter(
    "charles_cache_store_errors_total",
    "Cache-store failures degraded instead of raised, by backend and operation",
    labels=("backend", "op"),
)


# everything pickle.loads can raise on a stale or damaged blob (missing
# classes after an upgrade, truncated payloads, bogus opcodes); the disk
# store and the fabric client both degrade these to a counted miss
UNPICKLE_ERRORS = (
    pickle.UnpicklingError,
    AttributeError,
    ImportError,
    IndexError,
    EOFError,
    TypeError,
    ValueError,
)


class _Missing:
    """Sentinel for "no entry stored" (``None`` is a cacheable value)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<MISSING>"


MISSING = _Missing()


def key_digest(key: Hashable) -> bytes:
    """A stable 16-byte digest of a memo-cache key, for out-of-process stores.

    Memo keys are tuples of primitives (strings, ints, floats, bytes tokens,
    nested tuples), whose ``repr`` is deterministic across processes and
    interpreter restarts — unlike ``hash()``, which is salted per process.
    The digest is what on-disk and remote backends index by, so two processes
    (or two sessions, days apart) looking up the same logical key reach the
    same physical entry.
    """
    return hashlib.blake2b(repr(key).encode("utf-8"), digest_size=16).digest()


@dataclass(frozen=True)
class BackendCounters:
    """Hit/miss/eviction counts of one physical cache layer (delta-friendly).

    ``round_trips`` counts network requests answered — zero for every local
    layer; for a remote layer one per lookup and one per replica written,
    fewer while a degraded client answers locally without touching the wire.
    ``failovers`` counts reads and batches redirected from an unreachable
    shard to a ring successor — zero everywhere but a replicated fabric.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    round_trips: int = 0
    failovers: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups answered (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the store, in [0, 1]."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def __add__(self, other: "BackendCounters") -> "BackendCounters":
        return BackendCounters(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            round_trips=self.round_trips + other.round_trips,
            failovers=self.failovers + other.failovers,
        )

    def __sub__(self, other: "BackendCounters") -> "BackendCounters":
        return BackendCounters(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            evictions=self.evictions - other.evictions,
            round_trips=self.round_trips - other.round_trips,
            failovers=self.failovers - other.failovers,
        )

    def as_dict(self) -> dict[str, float]:
        """Every raw counter plus the derived hit rate, JSON-friendly."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "round_trips": self.round_trips,
            "failovers": self.failovers,
            "hit_rate": self.hit_rate,
        }


class CacheBackend(ABC):
    """One physical store behind a logical memo cache."""

    #: short identifier of the storage kind ("memory", "disk", "remote")
    kind: str = "backend"

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- storage ---------------------------------------------------------------

    @abstractmethod
    def get(self, key: Hashable) -> Any:
        """The stored value for ``key``, or :data:`MISSING` (counts hit/miss)."""

    @abstractmethod
    def put(self, key: Hashable, value: Any, cost_hint: float | None = None) -> None:
        """Store ``value`` under ``key``, evicting if a capacity bound demands it.

        ``cost_hint`` is the observed seconds the value took to compute (the
        memo layer times every fit and partition discovery).  Backends with a
        cost-aware eviction policy use it to rank entries; all others may
        ignore it — it is advisory and never changes what ``get`` returns.
        """

    @abstractmethod
    def __len__(self) -> int:
        """Number of entries currently stored."""

    @abstractmethod
    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""

    # -- accounting ------------------------------------------------------------

    @property
    def capacity(self) -> int | None:
        """Maximum number of entries (``None`` = unbounded)."""
        return None

    def counters(self) -> BackendCounters:
        """This process's cumulative hit/miss/eviction counts for the backend."""
        return BackendCounters(hits=self.hits, misses=self.misses, evictions=self.evictions)

    def breakdown(self) -> dict[str, BackendCounters]:
        """Counters per physical layer (a sharded fabric adds one per endpoint)."""
        return {self.kind: self.counters()}

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Release process-level resources (connections, file handles)."""
