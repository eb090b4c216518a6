"""Cell-level (syntactic) diffing of two snapshots, and the update distance.

This is the granularity that existing tools — database comparators, version
control systems, change logs — operate at, and the granularity the paper
argues is *too fine* for humans: "exhaustively listing all such fine-grained
changes overwhelms human analysts" (paper §1).  The reproduction needs it
anyway: it is the exhaustive-listing baseline of the E5 comparison, and it
provides the change statistics the evaluation harness reports.

The paper's related work also describes change as an *update distance*
(Müller, Freytag and Leser, CIKM 2006): "the minimal number of insert,
delete, and modification operations necessary" to turn one database into the
other.  :func:`update_distance` counts those operations and
:func:`batch_update_distance` the attribute-level batch updates.

Every count here reads one definition of a changed cell, the aligned pair's
:meth:`~repro.relational.snapshot.SnapshotPair.changed_mask`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Sequence

import numpy as np

from repro.exceptions import SnapshotAlignmentError
from repro.relational.snapshot import SnapshotPair
from repro.relational.table import Table

if TYPE_CHECKING:
    from repro.timeline.store import TimelineStore

__all__ = [
    "CellChange",
    "AttributeDiff",
    "DiffReport",
    "diff_snapshots",
    "timeline_diff",
    "UpdateDistance",
    "update_distance",
    "batch_update_distance",
]


@dataclass(frozen=True)
class CellChange:
    """One changed cell: the entity key, the attribute, and both values."""

    key: Any
    attribute: str
    old_value: Any
    new_value: Any

    @property
    def numeric_delta(self) -> float | None:
        """``new - old`` when both values are numeric, else ``None``."""
        if isinstance(self.old_value, (int, float)) and isinstance(self.new_value, (int, float)):
            return float(self.new_value) - float(self.old_value)
        return None

    def __str__(self) -> str:
        return f"{self.key}.{self.attribute}: {self.old_value!r} -> {self.new_value!r}"


@dataclass(frozen=True)
class AttributeDiff:
    """Per-attribute change statistics."""

    attribute: str
    changed_cells: int
    total_cells: int
    mean_delta: float
    mean_absolute_delta: float
    min_delta: float
    max_delta: float

    @property
    def change_fraction(self) -> float:
        """Fraction of cells of this attribute that changed."""
        if self.total_cells == 0:
            return 0.0
        return self.changed_cells / self.total_cells


@dataclass(frozen=True)
class DiffReport:
    """The complete cell-level diff of a snapshot pair."""

    changes: tuple[CellChange, ...]
    attribute_diffs: tuple[AttributeDiff, ...]
    num_rows: int

    @property
    def num_changes(self) -> int:
        """Total number of changed cells."""
        return len(self.changes)

    @property
    def changed_attributes(self) -> list[str]:
        """Attributes with at least one changed cell."""
        return [diff.attribute for diff in self.attribute_diffs if diff.changed_cells > 0]

    def changes_for(self, attribute: str) -> list[CellChange]:
        """All cell changes of one attribute."""
        return [change for change in self.changes if change.attribute == attribute]

    def attribute_diff(self, attribute: str) -> AttributeDiff | None:
        """The per-attribute statistics for ``attribute`` (``None`` if unknown)."""
        for diff in self.attribute_diffs:
            if diff.attribute == attribute:
                return diff
        return None

    def __iter__(self) -> Iterator[CellChange]:
        return iter(self.changes)

    def __len__(self) -> int:
        return len(self.changes)

    def describe(self, limit: int = 20) -> str:
        """A human-readable listing (truncated to ``limit`` cell changes)."""
        lines = [
            f"Cell-level diff: {self.num_changes} changed cells across "
            f"{len(self.changed_attributes)} attribute(s), {self.num_rows} rows"
        ]
        for diff in self.attribute_diffs:
            if diff.changed_cells == 0:
                continue
            lines.append(
                f"  {diff.attribute}: {diff.changed_cells}/{diff.total_cells} cells changed "
                f"(mean delta {diff.mean_delta:+.2f})"
            )
        for change in self.changes[:limit]:
            lines.append(f"    {change}")
        if self.num_changes > limit:
            lines.append(f"    ... and {self.num_changes - limit} more")
        return "\n".join(lines)


def diff_snapshots(
    pair: SnapshotPair,
    attributes: Sequence[str] | None = None,
    tolerance: float = 1e-9,
) -> DiffReport:
    """Compute the exhaustive cell-level diff of an aligned snapshot pair.

    A cell changed where :meth:`SnapshotPair.changed_mask` says it did.

    Parameters
    ----------
    pair:
        The aligned snapshots.
    attributes:
        Restrict the diff to these attributes (default: every non-key column).
    tolerance:
        Absolute tolerance below which numeric values count as unchanged.
    """
    names = list(attributes) if attributes is not None else [
        name for name in pair.schema.names if name != pair.key
    ]
    keys = pair.key_values
    changes: list[CellChange] = []
    attribute_diffs: list[AttributeDiff] = []
    for name in names:
        changed_mask = pair.changed_mask(name, tolerance)
        old_values = pair.source.column(name)
        new_values = pair.target.column(name)
        changes.extend(
            CellChange(keys[index], name, old_values[index], new_values[index])
            for index in np.flatnonzero(changed_mask).tolist()
        )
        attribute_diffs.append(_attribute_diff(pair, name, changed_mask))
    return DiffReport(tuple(changes), tuple(attribute_diffs), pair.num_rows)


def _attribute_diff(pair: SnapshotPair, name: str, changed_mask: np.ndarray) -> AttributeDiff:
    """``name``'s statistics: the deltas of its changed cells present on both
    sides (all NaN for a categorical attribute or when there are none)."""
    deltas = np.empty(0)
    if pair.schema.column(name).is_numeric:
        # an unchanged infinite cell's delta is inf - inf; the mask drops it
        with np.errstate(invalid="ignore"):
            deltas = pair.delta(name)[changed_mask]
        deltas = deltas[~np.isnan(deltas)]
    statistics = (
        (deltas.mean(), np.abs(deltas).mean(), deltas.min(), deltas.max())
        if deltas.size
        else (np.nan,) * 4
    )
    return AttributeDiff(name, int(changed_mask.sum()), pair.num_rows, *map(float, statistics))


def timeline_diff(
    timeline: TimelineStore, window: int = 1
) -> list[tuple[str, str, DiffReport]]:
    """Cell-level diffs for every hop of a version chain.

    Returns ``(source_name, target_name, report)`` triples, oldest hop first.
    Each report is :func:`diff_snapshots` over the attributes that hop
    changed: an attribute the hop never touched does not appear (a full
    report would list it with zero changes).
    """
    return [
        (source.name, target.name, diff_snapshots(pair, pair.changed_attributes()))
        for source, target, pair in timeline.windowed_pairs(window)
    ]


@dataclass(frozen=True)
class UpdateDistance:
    """Decomposition of the minimal edit script between two snapshots."""

    modifications: int
    insertions: int
    deletions: int

    @property
    def total(self) -> int:
        """Total number of edit operations."""
        return self.modifications + self.insertions + self.deletions

    def __str__(self) -> str:
        return (
            f"update distance {self.total} "
            f"(modify {self.modifications}, insert {self.insertions}, delete {self.deletions})"
        )


def update_distance(source: Table, target: Table, key: str | None = None) -> UpdateDistance:
    """Minimal cell-modification / row-insertion / row-deletion counts.

    Rows are matched by ``key`` (or either table's primary key); a key only
    one table holds is one insertion or deletion.  Without a key, rows are
    matched by position and the longer table's surplus rows are the
    insertions or deletions.  The matched rows are aligned once, and each
    cell :meth:`SnapshotPair.changed_mask` marks in a non-key attribute is
    one modification.

    Raises
    ------
    SnapshotAlignmentError
        If the schemas differ or a table repeats a key value.
    """
    key = key or source.primary_key or target.primary_key
    if key is None:
        shared = min(source.num_rows, target.num_rows)
        insertions = target.num_rows - shared
        deletions = source.num_rows - shared
        source, target = source.head(shared), target.head(shared)
    else:
        source_keys = source.column(key)
        target_keys = target.column(key)
        source_set, target_set = set(source_keys), set(target_keys)
        if len(source_set) < len(source_keys) or len(target_set) < len(target_keys):
            raise SnapshotAlignmentError(f"a snapshot has duplicate values in key column {key!r}")
        insertions = len(target_set - source_set)
        deletions = len(source_set - target_set)
        if insertions or deletions:
            source = source.mask([value in target_set for value in source_keys])
            target = target.mask([value in source_set for value in target_keys])
    pair = SnapshotPair.align(source, target, key=key)
    modifications = sum(
        int(pair.changed_mask(name).sum()) for name in pair.schema.names if name != pair.key
    )
    return UpdateDistance(modifications, insertions, deletions)


def batch_update_distance(pair: SnapshotPair, tolerance: float = 1e-9) -> int:
    """Number of *batch* updates needed when one SQL UPDATE may fix a whole attribute.

    This is the coarsest syntactic summary: one operation per attribute that
    changed anywhere.  It bounds from below how many "statements" a change log
    would need, and gives the E10 benchmark a second point on the
    granularity spectrum (cells vs. attributes vs. ChARLES rules).
    """
    return len(pair.changed_attributes(tolerance))
