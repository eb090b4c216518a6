"""The delta layer: which rows and attributes actually changed between versions.

A :class:`VersionDelta` is computed once per hop of a timeline and then drives
everything downstream instead of repeated full rescans: the engine session
skips the attribute-shortlisting and search machinery entirely for hops that
never touch the target attribute, the incremental diff builders in
:mod:`repro.diff.timeline_diff` materialise cell changes only for attributes
the delta names, and reports show an auditor where a hop concentrated its
edits.  Cache invalidation needs no help from the delta: the memo of
:mod:`repro.search.cache` belongs to one pair and is dropped when the pair
changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.relational.snapshot import SnapshotPair

__all__ = ["AttributeDelta", "VersionDelta"]


@dataclass(frozen=True)
class AttributeDelta:
    """Change statistics of one attribute between two versions."""

    attribute: str
    changed_rows: int
    total_rows: int

    @property
    def change_fraction(self) -> float:
        """Fraction of rows whose value of this attribute changed."""
        if self.total_rows == 0:
            return 0.0
        return self.changed_rows / self.total_rows

    def __str__(self) -> str:
        return f"{self.attribute}: {self.changed_rows}/{self.total_rows} rows"


@dataclass(frozen=True, eq=False)
class VersionDelta:
    """Row- and attribute-level change between two versions of a timeline.

    Holds one boolean row mask per *changed* attribute (untouched attributes
    carry no mask at all), so consumers iterate over what changed rather than
    over the schema.
    """

    source_name: str
    target_name: str
    num_rows: int
    _masks: dict[str, np.ndarray] = field(repr=False)

    @classmethod
    def from_pair(
        cls,
        pair: SnapshotPair,
        source_name: str = "source",
        target_name: str = "target",
        tolerance: float = 1e-9,
    ) -> "VersionDelta":
        """Compute the delta of an aligned pair (non-key attributes only)."""
        masks: dict[str, np.ndarray] = {}
        for name in pair.schema.names:
            if name == pair.key:
                continue
            mask = pair.changed_mask(name, tolerance)
            if mask.any():
                masks[name] = mask
        return cls(source_name, target_name, pair.num_rows, masks)

    # -- inspection ------------------------------------------------------------

    @property
    def changed_attributes(self) -> tuple[str, ...]:
        """Attributes with at least one changed cell, in schema order."""
        return tuple(self._masks)

    @property
    def is_empty(self) -> bool:
        """Whether the two versions are identical (no cell changed)."""
        return not self._masks

    @property
    def num_changed_cells(self) -> int:
        """Total number of changed cells across all attributes."""
        return int(sum(mask.sum() for mask in self._masks.values()))

    def __contains__(self, attribute: object) -> bool:
        return attribute in self._masks

    def touches(self, attributes: Iterable[str]) -> bool:
        """Whether any of ``attributes`` changed in this hop."""
        return any(attribute in self._masks for attribute in attributes)

    def changed_mask(self, attribute: str) -> np.ndarray:
        """Boolean row mask of ``attribute``'s changes (all-false if untouched)."""
        mask = self._masks.get(attribute)
        if mask is None:
            return np.zeros(self.num_rows, dtype=bool)
        return mask

    def changed_row_mask(self, attributes: Sequence[str] | None = None) -> np.ndarray:
        """Rows with at least one change in the given (default: all) attributes."""
        combined = np.zeros(self.num_rows, dtype=bool)
        names = self.changed_attributes if attributes is None else attributes
        for name in names:
            mask = self._masks.get(name)
            if mask is not None:
                combined |= mask
        return combined

    def attribute_deltas(self) -> tuple[AttributeDelta, ...]:
        """Per-attribute change statistics, most-changed first."""
        deltas = [
            AttributeDelta(name, int(mask.sum()), self.num_rows)
            for name, mask in self._masks.items()
        ]
        deltas.sort(key=lambda delta: (-delta.changed_rows, delta.attribute))
        return tuple(deltas)

    def describe(self) -> str:
        """Human-readable rendering of the hop's change footprint."""
        header = (
            f"delta {self.source_name} -> {self.target_name}: "
            f"{self.num_changed_cells} changed cells, "
            f"{int(self.changed_row_mask().sum())}/{self.num_rows} rows touched"
        )
        if self.is_empty:
            return header + " (versions are identical)"
        lines = [header]
        lines.extend(f"  {delta}" for delta in self.attribute_deltas())
        return "\n".join(lines)
