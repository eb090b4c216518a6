"""Conformance tests every cache backend must pass, plus backend-specific ones."""

import pytest

from repro.cachestore import (
    BACKEND_CHOICES,
    MISSING,
    BackendCounters,
    DiskBackend,
    InProcessBackend,
    build_results_backend,
    key_digest,
)
from repro.cachestore.base import STORE_ERRORS
from repro.core.config import CharlesConfig
from repro.exceptions import CacheStoreError, ConfigurationError
from repro.search.cache import SearchCaches


@pytest.fixture(
    params=["memory", "disk", "remote"],
)
def backend(request, tmp_path):
    if request.param == "memory":
        yield InProcessBackend()
    elif request.param == "disk":
        yield DiskBackend(tmp_path / "cache.sqlite")
    else:
        # the results store of the fabric, on a private one-shard fleet
        from repro.cacheserver import AsyncCacheServer, ShardedRemoteBackend

        with AsyncCacheServer() as server:
            remote = ShardedRemoteBackend(server.url)
            yield remote
            remote.close()


class TestBackendConformance:
    def test_get_miss_then_put_then_hit(self, backend):
        key = ("fit", "bonus", ("salary",), b"token")
        assert backend.get(key) is MISSING
        backend.put(key, {"value": 42})
        assert backend.get(key) == {"value": 42}
        counters = backend.counters()
        assert counters.misses >= 1 and counters.hits >= 1

    def test_none_is_a_cacheable_value(self, backend):
        backend.put("none-key", None)
        assert backend.get("none-key") is None

    def test_len_and_clear_preserve_counters(self, backend):
        backend.put("a", 1)
        backend.put("b", 2)
        assert len(backend) >= 2
        before = backend.counters()
        backend.clear()
        assert len(backend) == 0
        assert backend.get("a") is MISSING
        assert backend.counters().misses > before.misses

    def test_overwrite_keeps_single_entry(self, backend):
        backend.put("k", 1)
        backend.put("k", 2)
        assert backend.get("k") == 2

    def test_breakdown_sums_to_counters(self, backend):
        backend.get("absent")
        backend.put("k", 1)
        backend.get("k")
        total = BackendCounters()
        for counters in backend.breakdown().values():
            total = total + counters
        assert total == backend.counters()


class TestInProcessBackend:
    def test_lru_eviction_order(self):
        backend = InProcessBackend(capacity=2)
        backend.put("a", 1)
        backend.put("b", 2)
        backend.get("a")  # refresh: "b" is now least recently used
        backend.put("c", 3)
        assert backend.get("b") is MISSING
        assert backend.get("a") == 1 and backend.get("c") == 3
        assert backend.evictions == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            InProcessBackend(capacity=0)


class TestDiskBackend:
    def test_entries_survive_a_new_backend_instance(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        first = DiskBackend(path)
        first.put(("fit", "bonus", b"tok"), [1.5, None, "x"])
        first.close()
        second = DiskBackend(path)
        assert second.get(("fit", "bonus", b"tok")) == [1.5, None, "x"]
        assert second.counters().hits == 1

    def test_capacity_fifo_eviction(self, tmp_path):
        backend = DiskBackend(tmp_path / "cache.sqlite", capacity=2)
        backend.put("a", 1)
        backend.put("b", 2)
        backend.put("c", 3)
        assert len(backend) == 2
        assert backend.get("a") is MISSING  # oldest entry went first
        assert backend.get("c") == 3
        assert backend.evictions == 1

    def test_corrupt_entry_degrades_to_miss_and_is_discarded(self, tmp_path):
        import sqlite3

        path = tmp_path / "cache.sqlite"
        backend = DiskBackend(path)
        backend.put("k", [1, 2])
        with sqlite3.connect(path) as conn:
            conn.execute("UPDATE entries SET value = ?", (b"not a pickle",))
        before = STORE_ERRORS.value(backend="disk", op="get")
        assert backend.get("k") is MISSING  # degrade, never abort ...
        assert STORE_ERRORS.value(backend="disk", op="get") == before + 1  # ... counted
        assert len(backend) == 0  # the damaged entry was discarded
        backend.put("k", [3])
        assert backend.get("k") == [3]

    def test_format_version_mismatch_drops_the_store(self, tmp_path):
        import sqlite3

        path = tmp_path / "cache.sqlite"
        first = DiskBackend(path)
        first.put("k", 1)
        first.close()
        with sqlite3.connect(path) as conn:
            conn.execute("PRAGMA user_version = 999")  # a future/foreign layout
        second = DiskBackend(path)
        assert second.get("k") is MISSING
        second.put("k", 2)
        assert second.get("k") == 2

    def test_unusable_location_raises(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        with pytest.raises(CacheStoreError):
            DiskBackend(blocker / "cache.sqlite")

    def test_namespaces_partition_one_file(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        first = DiskBackend(path, namespace=b"config-a")
        first.put("k", 1)
        second = DiskBackend(path, namespace=b"config-b")
        assert second.get("k") is MISSING  # never another config's entry
        second.put("k", 2)
        assert first.get("k") == 1 and second.get("k") == 2
        reopened = DiskBackend(path, namespace=b"config-b")
        assert reopened.get("k") == 2

    def test_store_file_is_owner_only(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        backend = DiskBackend(path)
        backend.put("k", 1)
        assert path.stat().st_mode & 0o777 == 0o600

    def test_len_and_clear_degrade_on_a_corrupt_store(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        backend = DiskBackend(path)
        backend.put("k", 1)
        backend.close()
        path.write_bytes(b"this is no longer a sqlite database")
        ops = ("get", "len", "clear")
        before = {op: STORE_ERRORS.value(backend="disk", op=op) for op in ops}
        assert backend.get("k") is MISSING  # degrade, never abort ...
        assert len(backend) == 0  # ... and so must the introspection calls
        backend.clear()  # a no-op, not an exception
        # every degradation is counted, so a broken store is not silent
        for op, count in before.items():
            assert STORE_ERRORS.value(backend="disk", op=op) == count + 1

    def test_strict_variants_raise_on_a_corrupt_store(self, tmp_path):
        # cache traffic degrades; admin tooling must see the failure instead
        path = tmp_path / "cache.sqlite"
        backend = DiskBackend(path)
        backend.put("k", 1)
        assert backend.strict_len() == 1
        backend.strict_clear()
        assert backend.strict_len() == 0
        backend.close()
        path.write_bytes(b"this is no longer a sqlite database")
        with pytest.raises(CacheStoreError):
            backend.strict_len()
        with pytest.raises(CacheStoreError):
            backend.strict_clear()


class TestKeyDigest:
    def test_stable_and_type_distinguishing(self):
        key = ("partition", "bonus", ("edu",), 3, 0.5, b"\x01\x02")
        assert key_digest(key) == key_digest(("partition", "bonus", ("edu",), 3, 0.5, b"\x01\x02"))
        assert key_digest(("1",)) != key_digest((1,))
        assert key_digest(("a", "b")) != key_digest(("ab",))


class TestFactory:
    def test_memory_default(self):
        results = build_results_backend("memory", capacity=5)
        assert isinstance(results, InProcessBackend) and results.capacity == 5

    def test_disk_requires_cache_dir(self):
        with pytest.raises(ConfigurationError):
            build_results_backend("disk")

    def test_disk_keeps_results_on_disk_and_memo_entries_in_process(self, tmp_path):
        caches = SearchCaches.from_config(
            CharlesConfig(cache_backend="disk", cache_dir=tmp_path)
        )
        try:
            assert isinstance(caches.fits.backend, InProcessBackend)
            assert isinstance(caches.partitions.backend, InProcessBackend)
            assert isinstance(caches.results.backend, DiskBackend)
            assert caches.results.backend.path == tmp_path / "results.sqlite"
        finally:
            caches.close()

    def test_namespace_reaches_the_results_store(self, tmp_path):
        results_a = build_results_backend("disk", cache_dir=tmp_path, namespace=b"a")
        results_a.put("k", 1)
        results_b = build_results_backend("disk", cache_dir=tmp_path, namespace=b"b")
        assert results_b.get("k") is MISSING
        results_a_again = build_results_backend("disk", cache_dir=tmp_path, namespace=b"a")
        assert results_a_again.get("k") == 1  # same namespace, same entries

    def test_shared_keeps_results_in_process(self):
        # "shared" runs as "memory": every store of the search stays in process
        caches = SearchCaches.from_config(CharlesConfig(cache_backend="shared"))
        try:
            assert caches.results.backend.kind == "memory"
            for store in (caches.fits, caches.partitions, caches.results):
                assert isinstance(store.backend, InProcessBackend)
        finally:
            caches.close()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            build_results_backend("redis")
        assert "cache_backend" in str(excinfo.value)

    def test_remote_requires_cache_url(self):
        with pytest.raises(ConfigurationError) as excinfo:
            build_results_backend("remote")
        assert "cache_url" in str(excinfo.value)

    def test_remote_keeps_results_on_the_fabric(self):
        # the factory always builds the sharded fabric, even for a single
        # endpoint — one remote code path, a 1-shard ring
        from repro.cacheserver.fabric import ShardedRemoteBackend

        results = build_results_backend(
            "remote", capacity=9, namespace=b"ns", cache_url="127.0.0.1:1"
        )
        assert isinstance(results, ShardedRemoteBackend)
        assert results.capacity == 9 and results.namespace == b"ns"
        assert results.kind == "remote"

    def test_remote_results_with_sharded_url_and_replication(self):
        results = build_results_backend(
            "remote",
            namespace=b"ns",
            cache_url="127.0.0.1:1,127.0.0.1:2,127.0.0.1:3",
            cache_replication=2,
        )
        assert results.endpoints == ("127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3")
        assert results.replication == 2 and results.kind == "remote"

    def test_choices_cover_every_kind(self):
        assert BACKEND_CHOICES == ("memory", "shared", "disk", "remote")
