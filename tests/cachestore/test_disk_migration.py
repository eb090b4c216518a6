"""On-disk format migration: v1 stores survive the cost column, unknowns drop.

A persistent cache accumulated over days must not be thrown away by a code
upgrade — the v1 → v2 migration keeps every entry and defaults its cost to
0.0 (all ties → the old FIFO order), while stores stamped with versions this
code has never heard of are dropped wholesale rather than misread.
"""

import pickle
import sqlite3

from repro.cachestore import MISSING
from repro.cachestore.disk import DiskBackend


def _make_v1_store(path, entries: dict[bytes, object]) -> None:
    """Write a store exactly as the PR-3 code laid it out: no cost column."""
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE entries (key BLOB PRIMARY KEY, value BLOB NOT NULL)")
    for key, value in entries.items():
        conn.execute(
            "INSERT INTO entries (key, value) VALUES (?, ?)",
            (key, pickle.dumps(value)),
        )
    conn.execute("PRAGMA user_version = 1")
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


class TestV1Migration:
    def test_v1_store_opens_and_entries_survive(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        _make_v1_store(path, {b"k" * 16: {"fit": [1, 2, 3]}, b"j" * 16: "other"})
        backend = DiskBackend(path)
        assert len(backend) == 2  # nothing was dropped
        assert _columns(path) == ["key", "value", "cost"]
        assert _user_version(path) == 2
        backend.close()

    def test_migrated_entries_are_readable_through_the_backend(self, tmp_path):
        # write through a backend-digested key so a post-migration get hits it
        path = tmp_path / "cache.sqlite"
        seed = DiskBackend(path)
        seed.put(("fit", "bonus"), {"value": 42})
        seed.close()
        # rewind the file to v1: drop the cost column wholesale, restamp
        conn = sqlite3.connect(path)
        conn.execute("ALTER TABLE entries DROP COLUMN cost")
        conn.execute("PRAGMA user_version = 1")
        conn.commit()
        conn.close()
        migrated = DiskBackend(path)
        assert migrated.get(("fit", "bonus")) == {"value": 42}
        migrated.close()

    def test_migrated_costs_default_to_zero(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        _make_v1_store(path, {b"k" * 16: "value"})
        DiskBackend(path).close()
        conn = sqlite3.connect(path)
        costs = [row[0] for row in conn.execute("SELECT cost FROM entries")]
        conn.close()
        assert costs == [0.0]

    def test_second_open_is_a_no_op(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        _make_v1_store(path, {b"k" * 16: "value"})
        DiskBackend(path).close()
        again = DiskBackend(path)  # must not re-ALTER or drop anything
        assert len(again) == 1
        assert _columns(path) == ["key", "value", "cost"]
        assert _user_version(path) == 2
        again.close()

    def test_v1_stamp_without_entries_table_recovers_as_fresh(self, tmp_path):
        # a stamped-but-empty file (e.g. a crashed first open) must not make
        # the ALTER TABLE explode — it is just a fresh v2 store
        path = tmp_path / "cache.sqlite"
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA user_version = 1")
        conn.commit()
        conn.close()
        backend = DiskBackend(path)
        backend.put("k", 1)
        assert backend.get("k") == 1
        backend.close()

    def test_unknown_future_version_is_dropped_wholesale(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        _make_v1_store(path, {b"k" * 16: "value"})
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA user_version = 99")  # from a future this code can't read
        conn.commit()
        conn.close()
        backend = DiskBackend(path)
        assert len(backend) == 0  # dropped, not misread
        assert _user_version(path) == 2
        backend.put("k", 1)
        assert backend.get("k") == 1
        backend.close()


class TestCostAwareEvictionOnDisk:
    def test_expensive_entries_outlive_cheap_floods(self, tmp_path):
        backend = DiskBackend(tmp_path / "cache.sqlite", capacity=3)
        backend.put("expensive", list(range(8)), cost_hint=4.0)
        for index in range(10):
            backend.put(f"cheap{index}", list(range(8)), cost_hint=0.0001)
        assert backend.get("expensive") == list(range(8))
        assert backend.evictions == 8
        backend.close()

    def test_all_zero_costs_degenerate_to_fifo(self, tmp_path):
        # the migration guarantee: a freshly migrated store (every cost 0.0)
        # evicts in exactly the old FIFO order until new costs arrive
        backend = DiskBackend(tmp_path / "cache.sqlite", capacity=2)
        backend.put("first", "a")
        backend.put("second", "b")
        backend.put("third", "c")
        assert backend.get("first") is MISSING
        assert backend.get("second") == "b" and backend.get("third") == "c"
        backend.close()

    def test_costs_persist_across_processes_for_eviction(self, tmp_path):
        # the writer that observed the cost and the store under pressure can
        # be different processes days apart — the column is what carries it
        path = tmp_path / "cache.sqlite"
        writer = DiskBackend(path)
        writer.put("expensive", "x", cost_hint=9.0)
        writer.put("cheap", "y", cost_hint=0.001)
        writer.close()
        later = DiskBackend(path, capacity=2)
        later.put("incoming", "z", cost_hint=0.01)  # forces one eviction
        assert later.get("expensive") == "x"
        assert later.get("cheap") is MISSING
        later.close()
