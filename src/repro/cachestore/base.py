"""The cache-backend contract: what every physical store must provide.

:meth:`~repro.core.charles.Charles.summarize_pair` knows what a result key
means and when to run a search.  A :class:`CacheBackend` is the *physical*
store behind its results — where the entries actually live (a
process-local dict, an on-disk SQLite file, the cache fabric) and what
happens when the store fills up.  Separating the two lets a stored result
survive interpreter restarts and reach other engines without the search
layer knowing or caring.

The contract is deliberately small:

* :meth:`~CacheBackend.get` returns the stored value or the :data:`MISSING`
  sentinel (``None`` is a legitimate cached value, so absence needs its own
  token);
* :meth:`~CacheBackend.put` stores a value; a store bounded by a capacity
  then evicts its oldest write first (an overwrite counts as a new write,
  a lookup reorders nothing);
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
    """A stable 16-byte digest of a cache key, for out-of-process stores.

    Keys are bytes or tuples of primitives (strings, ints, floats, bytes,
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
    """One physical store: where cached values live and how they are evicted."""

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
    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` under ``key``; past a capacity bound, evict the oldest write."""

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
