"""A versioned chain of dataset snapshots, aligned once at append time.

Real audit workloads are not one V1→V2 hop but a *sequence* of versions —
monthly payroll exports, quarterly wealth lists, nightly warehouse loads.
:class:`TimelineStore` holds such a chain: named versions of one relation,
validated against the ChARLES input contract (identical schema, identical
entity set, update-only evolution) and re-ordered so that row ``i`` refers to
the same entity in *every* version.  That alignment-at-append is what makes
the rest of the timeline subsystem cheap: any two versions form a
:class:`~repro.relational.snapshot.SnapshotPair` without re-matching keys, row
and masks computed for one pair index the same entities in every other pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.exceptions import TimelineError
from repro.relational.schema import Schema
from repro.relational.snapshot import SnapshotPair
from repro.relational.table import Table

__all__ = ["DatasetVersion", "TimelineStore"]


@dataclass(frozen=True)
class DatasetVersion:
    """One named version of the dataset in a timeline (rows in chain order)."""

    index: int
    name: str
    table: Table

    @property
    def num_rows(self) -> int:
        """Number of entities (identical for every version of one chain)."""
        return self.table.num_rows


class TimelineStore:
    """An append-only, ordered chain of named dataset versions.

    Parameters
    ----------
    key:
        Entity-identifying column used to align appended versions.  Defaults
        to the first appended table's primary key; when neither is available,
        rows are matched by position (which then requires equal row counts in
        every version).
    """

    def __init__(self, key: str | None = None) -> None:
        self._key = key
        self._key_values: tuple[Any, ...] = ()
        self._versions: list[DatasetVersion] = []
        self._by_name: dict[str, DatasetVersion] = {}

    # -- basic properties -----------------------------------------------------

    @property
    def key(self) -> str | None:
        """The entity-identifying column of the chain (``None`` = positional)."""
        return self._key

    @property
    def key_values(self) -> list[Any]:
        """Entity identifiers in chain row order."""
        return list(self._key_values)

    @property
    def schema(self) -> Schema:
        """The shared schema of every version."""
        if not self._versions:
            raise TimelineError("the timeline is empty")
        return self._versions[0].table.schema

    @property
    def names(self) -> list[str]:
        """Version names in append order."""
        return [version.name for version in self._versions]

    @property
    def latest(self) -> DatasetVersion:
        """The most recently appended version."""
        if not self._versions:
            raise TimelineError("the timeline is empty")
        return self._versions[-1]

    def __len__(self) -> int:
        return len(self._versions)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[DatasetVersion]:
        return iter(self._versions)

    # -- building the chain ---------------------------------------------------

    def append(self, name: str, table: Table) -> DatasetVersion:
        """Validate ``table`` against the chain and store it as version ``name``.

        The first append fixes the chain's schema, key and entity order; every
        later append must describe exactly the same entities with the same
        schema and is re-ordered to the chain's row order, so that row ``i``
        of any version refers to the same entity.

        Raises
        ------
        TimelineError
            If ``name`` is already taken.
        SnapshotAlignmentError
            If the table violates the update-only snapshot contract (schema
            mismatch, inserted/deleted/duplicated entities, or — on keyless
            chains — a different row count).
        """
        if name in self._by_name:
            raise TimelineError(f"version name {name!r} is already in the timeline")
        if not self._versions:
            stored = self._admit_first(table)
        else:
            previous = self._versions[-1].table
            # align() both validates the contract and re-orders the new rows to
            # the chain order (the previous version is already in chain order)
            stored = SnapshotPair.align(previous, table, key=self._key).target
        version = DatasetVersion(len(self._versions), name, stored)
        self._versions.append(version)
        self._by_name[name] = version
        return version

    def _admit_first(self, table: Table) -> Table:
        key = self._key or table.primary_key
        if key is not None:
            table.schema.column(key)
            key_values = table.column(key)
            SnapshotPair._check_unique(key_values, "first", key)
            self._key_values = tuple(key_values)
        else:
            self._key_values = tuple(range(table.num_rows))
        self._key = key
        return table

    # -- reading the chain ----------------------------------------------------

    def version(self, name: str) -> DatasetVersion:
        """The version record named ``name``."""
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise TimelineError(
                f"unknown version {name!r}; timeline has {self.names}"
            ) from exc

    def checkout(self, name: str) -> Table:
        """The table of version ``name`` (rows in chain order)."""
        return self.version(name).table

    def pair(self, source_version: str, target_version: str) -> SnapshotPair:
        """The aligned snapshot pair between any two distinct versions.

        Versions are already row-aligned at append time, so this is a cheap
        constructor, not a re-alignment.  The pair may run backwards
        (``source_version`` newer than ``target_version``) — auditors diff in
        both directions.
        """
        source = self.version(source_version)
        target = self.version(target_version)
        if source.name == target.name:
            raise TimelineError(f"cannot pair version {source.name!r} with itself")
        return SnapshotPair(source.table, target.table, self._key, self._key_values)

    def windowed_pairs(
        self, window: int = 1
    ) -> list[tuple[DatasetVersion, DatasetVersion, SnapshotPair]]:
        """Every ``(V_i, V_{i+window})`` hop of the chain, oldest first.

        ``window=1`` yields the consecutive pairwise hops; larger windows
        compare each version with a later one (e.g. month-over-quarter).
        """
        if window < 1:
            raise TimelineError(f"window must be >= 1, got {window}")
        hops = []
        for index in range(len(self._versions) - window):
            source = self._versions[index]
            target = self._versions[index + window]
            hops.append((source, target, self.pair(source.name, target.name)))
        return hops

    def consecutive_pairs(
        self,
    ) -> list[tuple[DatasetVersion, DatasetVersion, SnapshotPair]]:
        """The chain's consecutive hops (``windowed_pairs(1)``)."""
        return self.windowed_pairs(1)

    def delta(self, source_version: str, target_version: str):
        """The :class:`~repro.timeline.delta.VersionDelta` between two versions."""
        from repro.timeline.delta import VersionDelta

        return VersionDelta.from_pair(
            self.pair(source_version, target_version), source_version, target_version
        )
