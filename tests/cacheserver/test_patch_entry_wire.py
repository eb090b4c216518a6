"""Patch entries cross the wire like any memo value: opaque and namespaced.

The cache server never unpickles what it stores, so a
:class:`~repro.search.maintenance.PartitionPatchRecord` — numpy masks,
conditions, certificate and all — must round-trip bit-faithfully through a
:class:`~repro.cacheserver.fabric.ShardedRemoteBackend`, and the client-side
fingerprint namespacing must isolate configurations from each other exactly
as it does for ordinary fit/partition entries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cachestore import MISSING
from repro.cacheserver import AsyncCacheServer, ShardedRemoteBackend
from repro.cacheserver import protocol
from repro.core import CharlesConfig
from repro.core.partitioning import discover_partitions
from repro.relational.snapshot import SnapshotPair
from repro.relational.table import Table
from repro.search.maintenance import (
    PartitionCertificate,
    PartitionIndexEntry,
    PartitionPatchRecord,
)

_PATCH_KEY = ("partition-patch", "bonus", ("edu",), ("bonus",), 2, 1.0, b"base", b"delta")


@pytest.fixture(scope="module")
def server():
    with AsyncCacheServer() as running:
        yield running


@pytest.fixture(scope="module")
def record() -> PartitionPatchRecord:
    rows = [
        {"id": "a", "edu": "MS", "bonus": 100.0},
        {"id": "b", "edu": "MS", "bonus": 200.0},
        {"id": "c", "edu": "BS", "bonus": 300.0},
        {"id": "d", "edu": "BS", "bonus": 400.0},
    ]
    source = Table.from_rows(rows, primary_key="id")
    target = source.with_column("bonus", [110.0, 220.0, 300.0, 400.0])
    pair = SnapshotPair.align(source, target, key="id")
    partitions = discover_partitions(pair, "bonus", ("edu",), ("bonus",), 2, CharlesConfig())
    entry = PartitionIndexEntry(
        partitions=tuple(partitions),
        certificate=PartitionCertificate(
            changed_digest=b"c" * 16,
            input_token=b"t" * 16,
            labels=np.array([0, 0], dtype=np.intp),
        ),
    )
    return PartitionPatchRecord(b"base-digest-0123", b"delta-digest-456", entry, "patched")


class TestPatchEntriesOverTheWire:
    def test_record_roundtrips_between_clients(self, server, record):
        namespace = CharlesConfig().cache_fingerprint()
        writer = ShardedRemoteBackend(server.url, protocol.REGION_PARTITIONS, namespace=namespace)
        writer.put(_PATCH_KEY, record, cost_hint=0.02)
        # a second fleet member with the same configuration sees the patch
        reader = ShardedRemoteBackend(server.url, protocol.REGION_PARTITIONS, namespace=namespace)
        loaded = reader.get(_PATCH_KEY)
        assert isinstance(loaded, PartitionPatchRecord)
        assert loaded.base_digest == record.base_digest
        assert loaded.delta_digest == record.delta_digest
        assert np.array_equal(
            loaded.entry.certificate.labels, record.entry.certificate.labels
        )
        for ours, theirs in zip(loaded.entry.partitions, record.entry.partitions):
            assert ours.condition.descriptors == theirs.condition.descriptors
            assert np.array_equal(ours.mask, theirs.mask)
        writer.close()
        reader.close()

    def test_records_are_fingerprint_namespaced(self, server, record):
        """Two configs sharing one server read disjoint patch namespaces."""
        config_a = CharlesConfig(seed=100)
        config_b = CharlesConfig(seed=101)
        writer = ShardedRemoteBackend(
            server.url, protocol.REGION_PARTITIONS, namespace=config_a.cache_fingerprint()
        )
        writer.put(_PATCH_KEY, record)
        stranger = ShardedRemoteBackend(
            server.url, protocol.REGION_PARTITIONS, namespace=config_b.cache_fingerprint()
        )
        assert stranger.get(_PATCH_KEY) is MISSING
        peer = ShardedRemoteBackend(
            server.url, protocol.REGION_PARTITIONS, namespace=config_a.cache_fingerprint()
        )
        assert isinstance(peer.get(_PATCH_KEY), PartitionPatchRecord)
        for backend in (writer, stranger, peer):
            backend.close()

    def test_regions_keep_patches_apart_from_fits(self, server, record):
        namespace = b"region-isolation"
        partitions_side = ShardedRemoteBackend(
            server.url, protocol.REGION_PARTITIONS, namespace=namespace
        )
        fits_side = ShardedRemoteBackend(server.url, protocol.REGION_FITS, namespace=namespace)
        partitions_side.put(_PATCH_KEY, record)
        assert fits_side.get(_PATCH_KEY) is MISSING
        partitions_side.close()
        fits_side.close()
