"""Consistent-hash routing: which shard owns a key digest, and who replicates it.

The fabric spreads the digested key space over N cache servers with a classic
consistent-hash ring: every endpoint contributes :data:`VNODES` virtual
points (BLAKE2b of ``"endpoint#i"``) on a 64-bit circle, and a key belongs to
the first endpoint clockwise of the key's own point.  Two properties matter
for a cache:

* **placement is a pure function of the endpoint string and the digest** —
  every engine in the fleet, and every run of the admin CLI, routes a key to
  the same shard without any coordination or shared state;
* **a changed endpoint list moves little** — engines restarted with one
  endpoint added to or dropped from ``cache_url`` remap only the keys whose
  arcs that endpoint owns (~1/N of the space), so resizing the fleet does
  not cold-start the whole cache.

:meth:`HashRing.preference` walks clockwise past the owner collecting the
next *distinct* endpoints — the replica set for writes, and the failover
order for reads: a key's replicas are exactly the endpoints a reader tries
when the owner is down, so a shard death costs zero reuse at replication
factor >= 2.

Everything here is hashing and binary search over a static list; the ring
never talks to the network.
"""

from __future__ import annotations

import bisect
import hashlib

from repro.exceptions import CacheStoreError

__all__ = ["HashRing", "VNODES", "parse_endpoints"]

#: virtual points each endpoint contributes; 64 keeps the worst/best load
#: ratio within ~20% for small fleets while the ring stays a few KB
VNODES = 64


def parse_endpoints(cache_url: str) -> tuple[str, ...]:
    """Split a ``cache_url`` into its endpoint list.

    Accepts a single ``host:port`` (the PR-4 form) or a comma-separated list
    of them; whitespace around entries is tolerated.  Duplicates are rejected
    — a repeated endpoint would silently halve the effective replication.
    """
    # imported here: client imports ring for routing, so ring must not
    # import client at module load
    from repro.cacheserver.client import parse_url

    endpoints = tuple(part.strip() for part in cache_url.split(",") if part.strip())
    if not endpoints:
        raise CacheStoreError(f"cache_url carries no endpoints: {cache_url!r}")
    seen = set()
    for endpoint in endpoints:
        parse_url(endpoint)  # raises on malformed host:port
        if endpoint in seen:
            raise CacheStoreError(f"cache_url lists endpoint {endpoint!r} twice")
        seen.add(endpoint)
    return endpoints


def _point(token: str) -> int:
    """A virtual node's position on the 64-bit circle."""
    return int.from_bytes(
        hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big"
    )


class HashRing:
    """Deterministic digest → endpoint-index routing over a fixed fleet."""

    def __init__(self, endpoints: tuple[str, ...] | list[str], vnodes: int = VNODES) -> None:
        if not endpoints:
            raise CacheStoreError("a hash ring needs at least one endpoint")
        if vnodes < 1:
            raise CacheStoreError(f"vnodes must be >= 1, got {vnodes}")
        self.endpoints = tuple(endpoints)
        points: list[tuple[int, int]] = []
        for index, endpoint in enumerate(self.endpoints):
            for vnode in range(vnodes):
                points.append((_point(f"{endpoint}#{vnode}"), index))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [index for _, index in points]

    def __len__(self) -> int:
        return len(self.endpoints)

    @staticmethod
    def key_point(digest: bytes) -> int:
        """Where a key digest lands on the circle (its first 8 bytes)."""
        return int.from_bytes(digest[:8], "big")

    def owner(self, digest: bytes) -> int:
        """The endpoint index owning ``digest`` (first vnode clockwise)."""
        position = bisect.bisect_right(self._points, self.key_point(digest))
        if position == len(self._points):
            position = 0  # wrap: past the last point, the first vnode owns it
        return self._owners[position]

    def preference(self, digest: bytes, count: int) -> list[int]:
        """The first ``count`` *distinct* endpoints clockwise of ``digest``.

        Entry 0 is the owner; entries 1.. are the replica successors, in the
        order writes replicate to them and reads fail over to them.  ``count``
        is clamped to the fleet size.
        """
        count = min(max(count, 1), len(self.endpoints))
        position = bisect.bisect_right(self._points, self.key_point(digest))
        selected: list[int] = []
        seen: set[int] = set()
        for step in range(len(self._points)):
            index = self._owners[(position + step) % len(self._points)]
            if index not in seen:
                seen.add(index)
                selected.append(index)
                if len(selected) == count:
                    break
        return selected
