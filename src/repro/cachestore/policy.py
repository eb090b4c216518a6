"""Eviction policies: who leaves when a bounded in-process store fills up.

Recency is a heuristic about *future* value, and for a cache of memoised
search work there is a better signal available: the memo layer times every
fit and partition discovery it computes, so each entry arrives with the cost
of recomputing it.  An :class:`EvictionPolicy` is the small strategy object
:class:`~repro.cachestore.memory.InProcessBackend` consults to pick victims:

* :class:`LRUPolicy` — evict the least-recently-used entry; the engine's
  private in-process stores use it (the backend's default).
* :class:`CostAwarePolicy` — evict the entry that is cheapest to recompute
  *per byte held*.  A partition discovery that took 80 ms and pickles to 2 KB
  outranks a trivial fit that took 40 µs and holds the same space, no matter
  which was touched last — under pressure the store sheds cheap entries first
  and a small capacity retains most of the recomputation time it shields.
  Every cache-server region uses it, and the disk store applies the same
  density in SQL.

A policy only tracks *order* (keys plus per-key metadata); the backend still
owns the entries.  The contract is: ``record_put`` on every store (with the
entry's approximate byte size and, when known, the observed seconds it took
to compute), ``record_get`` on every hit, ``record_remove`` when an entry
leaves for any non-eviction reason, and ``pop_victim`` to choose-and-forget
the next entry to drop.  Policies are not thread-safe on their own; callers
that share a store across threads (the cache server) serialise access.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Hashable

__all__ = [
    "EvictionPolicy",
    "LRUPolicy",
    "CostAwarePolicy",
]


class EvictionPolicy(ABC):
    """Chooses which entry a bounded store drops next."""

    #: short identifier ("lru", "cost-aware")
    name: str = "policy"

    @abstractmethod
    def record_put(self, key: Hashable, size: int, cost: float | None) -> None:
        """Note that ``key`` was stored (``size`` bytes; ``cost`` seconds to
        recompute, ``None`` when the caller did not measure it)."""

    def record_get(self, key: Hashable) -> None:
        """Note a hit on ``key`` (recency-blind policies ignore this)."""

    @abstractmethod
    def record_remove(self, key: Hashable) -> None:
        """Forget ``key`` after a non-eviction removal (absent keys are a no-op)."""

    @abstractmethod
    def pop_victim(self) -> Hashable:
        """Choose the next entry to evict and forget it (store must be non-empty)."""

    @abstractmethod
    def clear(self) -> None:
        """Forget every tracked key."""


class LRUPolicy(EvictionPolicy):
    """Least-recently-used: hits refresh recency, the stalest entry goes first."""

    name = "lru"

    def __init__(self) -> None:
        self._order: OrderedDict[Hashable, None] = OrderedDict()

    def record_put(self, key: Hashable, size: int, cost: float | None) -> None:
        self._order[key] = None
        self._order.move_to_end(key)

    def record_get(self, key: Hashable) -> None:
        if key in self._order:
            self._order.move_to_end(key)

    def record_remove(self, key: Hashable) -> None:
        self._order.pop(key, None)

    def pop_victim(self) -> Hashable:
        return self._order.popitem(last=False)[0]

    def clear(self) -> None:
        self._order.clear()


class CostAwarePolicy(EvictionPolicy):
    """Evict cheapest-to-recompute per byte first; retain expensive work.

    Every entry carries a *density*: observed recomputation seconds divided by
    the bytes it occupies.  Under pressure the store evicts the entry with the
    lowest density — ties (and entries that arrived without a measured cost,
    whose density is zero) fall back to oldest-insert-first, so unmeasured
    entries behave like a FIFO underclass beneath the measured ones.  A fresh
    cheap insert may itself be the chosen victim: refusing to displace work
    that is more expensive to redo is the point of the policy, not an anomaly.

    Overwrites keep the higher of the old and new density — an entry observed
    to be expensive once stays protected even if a later racing recomputation
    happened to be fast.

    Victim selection is a lazy-deletion min-heap over ``(density, sequence)``,
    so eviction costs O(log n) amortised even at server capacities in the
    hundreds of thousands (the scan-the-whole-store alternative would run
    under the server's per-region lock and serialise the fleet's publishes).
    Heap entries orphaned by overwrites and removals are skipped — and
    discarded — when they surface at the top.
    """

    name = "cost-aware"

    def __init__(self) -> None:
        # key -> (seconds-per-byte density, insertion sequence for tie-breaks);
        # the heap holds (density, sequence, key) and may lag behind _meta
        self._meta: dict[Hashable, tuple[float, int]] = {}
        self._heap: list[tuple[float, int, Hashable]] = []
        self._sequence = 0

    def record_put(self, key: Hashable, size: int, cost: float | None) -> None:
        density = (cost or 0.0) / max(size, 1)
        existing = self._meta.get(key)
        if existing is not None:
            if density <= existing[0]:
                return  # the live heap entry already ranks it correctly
            updated = (density, existing[1])
            self._meta[key] = updated
            heapq.heappush(self._heap, updated + (key,))  # the old entry goes stale
            return
        entry = (density, self._sequence)
        self._sequence += 1
        self._meta[key] = entry
        heapq.heappush(self._heap, entry + (key,))

    def record_remove(self, key: Hashable) -> None:
        self._meta.pop(key, None)  # its heap entry goes stale and is skipped later

    def pop_victim(self) -> Hashable:
        while self._heap:
            density, sequence, key = heapq.heappop(self._heap)
            if self._meta.get(key) == (density, sequence):
                del self._meta[key]
                return key
        raise KeyError("no entries to evict")

    def clear(self) -> None:
        self._meta.clear()
        self._heap.clear()
