"""On-disk formats: v1 and v2 stores open in place as v3, unknown stamps drop.

A persistent cache accumulated over days must not be thrown away by a code
upgrade.  Format v3 reads the ``(key, value)`` columns every earlier format
wrote: a v1 store opens as it is, a v2 store keeps its now unused ``cost``
column, and both are restamped to 3 with every entry readable and evicted
oldest write first, whatever costs v2 recorded.  Stores stamped with a
version this code has never heard of are dropped wholesale rather than
misread.
"""

import pickle
import sqlite3

import pytest

from repro.cachestore import MISSING
from repro.cachestore.base import key_digest
from repro.cachestore.disk import DiskBackend


def _make_store(path, version: int, entries: dict) -> None:
    """Write a store as earlier code laid it out, oldest entry first.

    v1 has no cost column.  v2 has one, filled here with nonzero costs that
    fall as the entries get younger, the order cost-aware eviction kept.
    """
    conn = sqlite3.connect(path)
    if version == 1:
        conn.execute("CREATE TABLE entries (key BLOB PRIMARY KEY, value BLOB NOT NULL)")
    else:
        conn.execute(
            "CREATE TABLE entries (key BLOB PRIMARY KEY, value BLOB NOT NULL,"
            " cost REAL NOT NULL DEFAULT 0.0)"
        )
    for age, (key, value) in enumerate(entries.items()):
        row = (key_digest(key), pickle.dumps(value))
        if version == 1:
            conn.execute("INSERT INTO entries (key, value) VALUES (?, ?)", row)
        else:
            conn.execute(
                "INSERT INTO entries (key, value, cost) VALUES (?, ?, ?)",
                row + (9.0 / (age + 1),),
            )
    conn.execute(f"PRAGMA user_version = {version}")
    conn.commit()
    conn.close()


def _columns(path) -> list[str]:
    conn = sqlite3.connect(path)
    try:
        return [row[1] for row in conn.execute("PRAGMA table_info(entries)")]
    finally:
        conn.close()


def _user_version(path) -> int:
    conn = sqlite3.connect(path)
    try:
        return conn.execute("PRAGMA user_version").fetchone()[0]
    finally:
        conn.close()


_ENTRIES = {("fit", "bonus"): {"value": 42}, "first": [1, 2, 3], "second": "other"}
_COLUMNS = {1: ["key", "value"], 2: ["key", "value", "cost"]}


@pytest.mark.parametrize("version", [1, 2])
class TestOlderFormats:
    def test_store_opens_in_place_and_is_restamped(self, tmp_path, version):
        path = tmp_path / "cache.sqlite"
        _make_store(path, version, _ENTRIES)
        backend = DiskBackend(path)
        assert len(backend) == 3  # nothing was dropped
        assert _columns(path) == _COLUMNS[version]  # nothing was rewritten
        assert _user_version(path) == 3
        backend.close()

    def test_entries_stay_readable_through_the_backend(self, tmp_path, version):
        path = tmp_path / "cache.sqlite"
        _make_store(path, version, _ENTRIES)
        backend = DiskBackend(path)
        for key, value in _ENTRIES.items():
            assert backend.get(key) == value
        backend.put("new", 7)  # a v2 file's cost column fills with its default
        assert backend.get("new") == 7
        backend.close()

    def test_eviction_follows_rowid_order_not_the_recorded_costs(self, tmp_path, version):
        path = tmp_path / "cache.sqlite"
        _make_store(path, version, _ENTRIES)
        backend = DiskBackend(path, capacity=3)
        backend.put("incoming", "z")  # evicts the oldest write, the dearest in v2
        assert backend.get(("fit", "bonus")) is MISSING
        assert [backend.get(key) for key in ("first", "second", "incoming")] == [
            [1, 2, 3],
            "other",
            "z",
        ]
        assert backend.evictions == 1
        backend.close()

    def test_second_open_is_a_no_op(self, tmp_path, version):
        path = tmp_path / "cache.sqlite"
        _make_store(path, version, _ENTRIES)
        DiskBackend(path).close()
        again = DiskBackend(path)  # must not drop or rewrite anything
        assert len(again) == 3
        assert _columns(path) == _COLUMNS[version]
        assert _user_version(path) == 3
        again.close()


class TestStamps:
    def test_v1_stamp_without_entries_table_recovers_as_fresh(self, tmp_path):
        # a stamped-but-empty file (e.g. a crashed first open) is just a
        # fresh store
        path = tmp_path / "cache.sqlite"
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA user_version = 1")
        conn.commit()
        conn.close()
        backend = DiskBackend(path)
        backend.put("k", 1)
        assert backend.get("k") == 1
        assert _columns(path) == ["key", "value"]
        backend.close()

    def test_unknown_future_version_is_dropped_wholesale(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        _make_store(path, 1, {"k": "value"})
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA user_version = 99")  # from a future this code can't read
        conn.commit()
        conn.close()
        backend = DiskBackend(path)
        assert len(backend) == 0  # dropped, not misread
        assert _user_version(path) == 3
        backend.put("k", 1)
        assert backend.get("k") == 1
        backend.close()
