"""The in-process backend: a plain dictionary that evicts its oldest write first."""

from __future__ import annotations

from typing import Any, Hashable

from repro.cachestore.base import MISSING, CacheBackend

__all__ = ["InProcessBackend"]


class InProcessBackend(CacheBackend):
    """A process-local dictionary store, bounded by insertion order.

    This is the default results store, and the cache server hosts each of
    its regions on it.  A ``capacity`` bound evicts the oldest write past
    the bound; overwriting a key counts as a new write, and a lookup changes
    nothing.  Without a bound the store grows without limit.  Entries are
    stored by their original keys — no serialisation, no digesting — so
    hits cost one dict lookup.
    """

    kind = "memory"

    def __init__(self, capacity: int | None = None) -> None:
        super().__init__()
        if capacity is not None and capacity < 1:
            raise ValueError(f"cache capacity must be >= 1 or None, got {capacity}")
        self._entries: dict[Hashable, Any] = {}
        self._capacity = capacity

    @property
    def capacity(self) -> int | None:
        return self._capacity

    def get(self, key: Hashable) -> Any:
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return MISSING
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        # pop first, so an overwrite moves the key to the young end
        self._entries.pop(key, None)
        self._entries[key] = value
        while self._capacity is not None and len(self._entries) > self._capacity:
            del self._entries[next(iter(self._entries))]
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
