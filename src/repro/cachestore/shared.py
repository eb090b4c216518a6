"""The shared-memory backend: one store served to every worker process.

A :class:`SharedBackend` keeps its entries in a ``multiprocessing.Manager``
dictionary — a proxy to a small server process that any worker can talk to.
The parent process creates the store (owning the manager); the
:class:`~repro.search.executors.ParallelExecutor` passes picklable
:class:`SharedHandle`\\ s to its workers, whose attached backends read and
publish entries against the *same* dictionary.  A partition discovery done by
worker 1 is a hit for worker 2, which is exactly the cross-process reuse a
serial search gets for free and parallel searches previously lost.

Sharing is safe by construction: memo keys are content keys
(:class:`~repro.search.cache.PairFingerprints`), and the cached functions are
deterministic, so the worst a put/put race can do is store the same value
twice.  Counters are process-local; the stats layer aggregates them across
workers exactly as it does for private caches.

The capacity bound is FIFO, not LRU: tracking recency through a proxy would
cost an extra round-trip per lookup, so a full store drops its oldest inserts
(manager dictionaries preserve insertion order) to admit the newcomer — the
store keeps learning for the whole session, it just forgets its oldest
entries first.  Reading the insertion order marshals the full key list out of
the manager process, so eviction works in batches (a tenth of capacity at a
time): the fetch is paid once per batch, not once per put, and each pass also
reclaims any overshoot racing writers left behind.  Concurrent evictors are
tolerated — a key already removed by another worker is simply skipped (and
not counted).  When recency matters more than sharing, the private
``memory`` backend is the LRU store.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Any, Hashable

from repro.cachestore.base import MISSING, BackendHandle, CacheBackend, key_digest

__all__ = ["SharedBackend", "SharedHandle", "create_shared_backends"]


@dataclass(frozen=True)
class SharedHandle(BackendHandle):
    """Reconnects a worker to a shared store (the proxy pickles by address)."""

    entries: Any
    capacity: int | None

    def attach(self) -> "SharedBackend":
        return SharedBackend(self.entries, capacity=self.capacity)


class SharedBackend(CacheBackend):
    """A cross-process store over a ``multiprocessing.Manager`` dictionary."""

    kind = "shared"

    def __init__(self, entries, capacity: int | None = None, manager=None) -> None:
        super().__init__()
        if capacity is not None and capacity < 1:
            raise ValueError(f"cache capacity must be >= 1 or None, got {capacity}")
        self._entries = entries
        self._capacity = capacity
        # only the creating process owns (and may shut down) the manager;
        # attached workers hold a bare proxy
        self._manager = manager

    @property
    def capacity(self) -> int | None:
        return self._capacity

    def get(self, key: Hashable) -> Any:
        try:
            value = self._entries[key_digest(key)]
        except KeyError:
            self.misses += 1
            return MISSING
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any, cost_hint: float | None = None) -> None:
        # cost_hint is ignored: ranking entries by cost through a manager proxy
        # would mean extra IPC per put, and the FIFO bound is already O(1)
        digest = key_digest(key)
        if (
            self._capacity is not None
            and len(self._entries) >= self._capacity
            and digest not in self._entries
        ):
            # overwrites of an existing key replace in place and never evict
            self._make_room()
        self._entries[digest] = value

    def _make_room(self) -> None:
        """Evict the oldest inserts until the store is strictly under capacity.

        ``keys()`` marshals the full key list out of the manager process, so
        one fetch evicts a whole batch — at least a tenth of capacity — and
        also drains any overshoot left by racing writers, keeping the
        amortised IPC cost of a put O(1) and the bound self-correcting.
        """
        keys = list(self._entries.keys())
        drop = max(len(keys) - self._capacity + 1, self._capacity // 10, 1)
        for key in keys[:drop]:
            try:
                self._entries.pop(key)
            except KeyError:
                continue  # a racing evictor removed it first; not ours to count
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    @property
    def shareable(self) -> bool:
        return True

    def handle(self) -> SharedHandle:
        return SharedHandle(entries=self._entries, capacity=self._capacity)

    def close(self) -> None:
        if self._manager is not None:
            self._manager.shutdown()
            self._manager = None


def create_shared_backends(
    count: int, capacity: int | None = None
) -> tuple[SharedBackend, ...]:
    """``count`` shared backends served by one manager process.

    The first backend owns the manager: closing it shuts the server down for
    all of them, which matches how :class:`~repro.search.cache.SearchCaches`
    closes its backends in order.
    """
    manager = multiprocessing.Manager()
    backends = [SharedBackend(manager.dict(), capacity=capacity, manager=manager)]
    for _ in range(count - 1):
        backends.append(SharedBackend(manager.dict(), capacity=capacity))
    return tuple(backends)
