"""The in-process backend: a plain dictionary behind a pluggable eviction policy."""

from __future__ import annotations

import sys
from typing import Any, Hashable

from repro.cachestore.base import MISSING, CacheBackend
from repro.cachestore.policy import EvictionPolicy, LRUPolicy

__all__ = ["InProcessBackend"]


def _approximate_size(value: Any) -> int:
    """Bytes a stored value occupies, as well as we can know without pickling.

    Exact for the bytes payloads the cache server stores; a shallow
    ``sys.getsizeof`` estimate for arbitrary in-process values — good enough
    to rank entries, since cost-aware eviction only compares densities.
    """
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    try:
        return sys.getsizeof(value)
    except TypeError:  # pragma: no cover - exotic objects without a size
        return 1


class InProcessBackend(CacheBackend):
    """A process-local dictionary store with a pluggable eviction policy.

    This is the default backend and, with its default :class:`LRUPolicy`,
    reproduces the original ``MemoCache`` storage semantics exactly: lookups
    refresh recency, a ``capacity`` bound evicts the least-recently-used entry
    past the bound, and without one the store grows without limit (fine for
    one-shot searches, not for long-lived sessions).  Entries are stored by
    their original tuple keys — no serialisation, no digesting — so hits cost
    one dict lookup.

    A :class:`~repro.cachestore.policy.CostAwarePolicy` may replace the LRU
    order; the cache server hosts its regions on this backend that way, so a
    bounded server retains the entries that are most expensive to recompute
    rather than merely the most recently touched.
    """

    kind = "memory"

    def __init__(
        self, capacity: int | None = None, policy: EvictionPolicy | None = None
    ) -> None:
        super().__init__()
        if capacity is not None and capacity < 1:
            raise ValueError(f"cache capacity must be >= 1 or None, got {capacity}")
        self._entries: dict[Hashable, Any] = {}
        self._capacity = capacity
        self._policy = policy if policy is not None else LRUPolicy()

    @property
    def capacity(self) -> int | None:
        return self._capacity

    @property
    def policy(self) -> EvictionPolicy:
        """The eviction policy ordering this store's entries."""
        return self._policy

    def get(self, key: Hashable) -> Any:
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return MISSING
        self.hits += 1
        self._policy.record_get(key)
        return value

    def put(self, key: Hashable, value: Any, cost_hint: float | None = None) -> None:
        self._entries[key] = value
        self._policy.record_put(key, _approximate_size(value), cost_hint)
        while self._capacity is not None and len(self._entries) > self._capacity:
            victim = self._policy.pop_victim()
            del self._entries[victim]
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._policy.clear()
