"""The one eviction rule, on every bounded results store: oldest write first.

The same checks run against the in-process store, the disk store and a live
cache-server region.  The region is driven with raw ``PUT`` frames that
carry a nonzero cost in their reserved 8 bytes, as clients from before the
rule did, each one cheaper than the last: the cost must change nothing.
"""

import itertools
import socket
import struct

import pytest

from repro.cachestore import MISSING, InProcessBackend
from repro.cachestore.disk import DiskBackend
from repro.cacheserver import AsyncCacheServer, protocol, server_stats


class _ServerRegion:
    """A live ``AsyncCacheServer`` region, spoken to frame by frame."""

    def __init__(self, capacity: int) -> None:
        self._server = AsyncCacheServer(capacity=capacity).start()
        self._socket = socket.create_connection(self._server.address, timeout=10.0)
        self._ids = itertools.count()
        self._costs = (1.0 / step for step in itertools.count(1))

    def _call(self, body: bytes) -> tuple[int, bytes]:
        request_id = next(self._ids)
        protocol.send_message(self._socket, request_id, body)
        answered_id, answer = protocol.recv_message(self._socket)
        assert answered_id == request_id
        return protocol.decode_response(answer)

    def put(self, key: str, value: bytes) -> None:
        old_client_frame = (
            bytes((protocol.PUT, protocol.REGION_RESULTS))
            + _digest(key)
            + struct.pack(">d", next(self._costs))
            + value
        )
        assert self._call(old_client_frame)[0] == protocol.OK

    def get(self, key: str):
        status, payload = self._call(
            protocol.encode_request(protocol.GET, protocol.REGION_RESULTS, digest=_digest(key))
        )
        return payload if status == protocol.HIT else MISSING

    @property
    def evictions(self) -> int:
        return server_stats(self._server.url)["regions"]["results"]["evictions"]

    def __len__(self) -> int:
        return server_stats(self._server.url)["regions"]["results"]["entries"]

    def close(self) -> None:
        self._socket.close()
        self._server.shutdown()


def _digest(key: str) -> bytes:
    return key.encode("ascii").ljust(protocol.DIGEST_SIZE, b"-")


@pytest.fixture(params=["memory", "disk", "server"])
def bounded(request, tmp_path):
    """A factory of stores of the given capacity, one kind per parameter."""
    opened = []

    def make(capacity: int):
        if request.param == "memory":
            store = InProcessBackend(capacity)
        elif request.param == "disk":
            store = DiskBackend(tmp_path / f"results-{len(opened)}.sqlite", capacity)
        else:
            store = _ServerRegion(capacity)
        opened.append(store)
        return store

    yield make
    for store in opened:
        store.close()


def _value(key: str) -> bytes:
    return b"value of " + key.encode("ascii")


def _alive(store, keys) -> list[str]:
    return [key for key in keys if store.get(key) is not MISSING]


class TestOldestWriteFirst:
    def test_a_full_store_evicts_the_oldest_write(self, bounded):
        store = bounded(3)
        for key in ("a", "b", "c"):
            store.put(key, _value(key))
        store.get("a")  # a lookup does not make "a" any younger
        store.put("d", _value("d"))
        assert _alive(store, "abcd") == ["b", "c", "d"]
        assert store.get("d") == _value("d")

    def test_an_overwrite_counts_as_a_new_write(self, bounded):
        store = bounded(3)
        for key in ("a", "b", "c"):
            store.put(key, _value(key))
        store.put("a", b"rewritten")  # "a" is now the youngest entry
        store.put("d", _value("d"))
        assert _alive(store, "abcd") == ["a", "c", "d"]
        assert store.get("a") == b"rewritten"

    @pytest.mark.parametrize("capacity", [1, 2, 3])
    def test_the_entry_just_stored_is_always_served(self, bounded, capacity):
        store = bounded(capacity)
        for index in range(8):
            key = f"k{index}"
            store.put(key, _value(key))
            assert store.get(key) == _value(key)

    def test_evictions_count_each_eviction(self, bounded):
        store = bounded(2)
        for index in range(7):
            store.put(f"k{index}", b"x")
        store.put("k6", b"y")  # an overwrite at capacity evicts nothing
        assert store.evictions == 5
        assert len(store) == 2
