"""Snapshot alignment: the input contract of ChARLES.

The paper (§2) assumes the source dataset ``D_s`` and the target dataset
``D_t`` share the same schema, describe the same real-world entities (no
insertions or deletions) and differ only in the values of non-key attributes.
:class:`SnapshotPair` validates that contract, aligns the two versions row by
row via the primary key (or row order when no key exists), and exposes the
aligned tables and per-attribute change masks that the diff-discovery engine,
the scoring functions, and the baselines all consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.exceptions import SnapshotAlignmentError
from repro.relational.schema import Schema
from repro.relational.table import Table

__all__ = ["SnapshotPair"]


@dataclass(frozen=True)
class SnapshotPair:
    """Two aligned versions of the same relation.

    Construct with :meth:`align`, which validates the ChARLES input contract
    and reorders the target so that row *i* of ``source`` and row *i* of
    ``target`` describe the same entity.  Both tables are immutable, so
    :meth:`changed_mask` computes each mask once per pair.  The engine reads
    a subset of the rows through a boolean mask over this one pair, never
    through a copy of it.

    A keyed pair's entity identifiers are its source key column, decoded
    only when :attr:`key_values` asks for them; a pair without a key is
    identified by its row positions.  Either way they follow from the
    tables, so equality ignores them.
    """

    source: Table
    target: Table
    key: str | None
    _key_values: tuple[Any, ...] | None = field(default=None, repr=False, compare=False)
    _changed: dict[tuple[str, float], np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- construction ---------------------------------------------------------

    @classmethod
    def align(
        cls,
        source: Table,
        target: Table,
        key: str | None = None,
    ) -> "SnapshotPair":
        """Validate and align two snapshots.

        Parameters
        ----------
        source, target:
            The earlier and later versions of the dataset.
        key:
            Entity-identifying column.  Defaults to the source table's primary
            key; if neither is available, rows are matched by position (which
            then requires equal row counts).

        Raises
        ------
        SnapshotAlignmentError
            If schemas differ, key sets differ (tuples inserted/deleted), keys
            are duplicated, or positional alignment is requested with unequal
            row counts.
        """
        if not source.schema.equivalent_to(target.schema):
            raise SnapshotAlignmentError(
                "source and target schemas differ: "
                f"{source.schema.names} vs {target.schema.names}"
            )
        key = key or source.primary_key or target.primary_key
        if key is None:
            if source.num_rows != target.num_rows:
                raise SnapshotAlignmentError(
                    "no key column available and row counts differ "
                    f"({source.num_rows} vs {target.num_rows})"
                )
            return cls(source, target, None)

        source.schema.column(key)
        source_keys = source.column(key)
        target_keys = target.column(key)
        cls._check_unique(source_keys, "source", key)
        cls._check_unique(target_keys, "target", key)
        source_set = set(source_keys)
        target_set = set(target_keys)
        if source_set != target_set:
            inserted = sorted(map(str, target_set - source_set))[:5]
            deleted = sorted(map(str, source_set - target_set))[:5]
            raise SnapshotAlignmentError(
                "snapshots do not contain the same entities "
                f"(inserted: {inserted}, deleted: {deleted}); "
                "ChARLES requires update-only evolution"
            )
        target_position = {value: index for index, value in enumerate(target_keys)}
        order = np.fromiter(
            (target_position[value] for value in source_keys),
            dtype=np.intp,
            count=len(source_keys),
        )
        return cls(source, target.take(order), key, tuple(source_keys))

    @staticmethod
    def _check_unique(values: Sequence[Any], which: str, key: str) -> None:
        if len(values) != len(set(values)):
            raise SnapshotAlignmentError(
                f"{which} snapshot has duplicate values in key column {key!r}"
            )

    # -- basic properties -----------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The shared schema of both snapshots."""
        return self.source.schema

    @property
    def num_rows(self) -> int:
        """Number of aligned entities."""
        return self.source.num_rows

    @property
    def key_values(self) -> list[Any]:
        """Entity identifiers in aligned order."""
        if self._key_values is None:
            keys = range(self.num_rows) if self.key is None else self.source.column(self.key)
            object.__setattr__(self, "_key_values", tuple(keys))
        return list(self._key_values)

    def __len__(self) -> int:
        return self.num_rows

    # -- change inspection ----------------------------------------------------

    def changed_mask(self, attribute: str, tolerance: float = 1e-9) -> np.ndarray:
        """Boolean mask of rows whose ``attribute`` value changed.

        Numeric attributes use an absolute tolerance so that floating-point
        round-trips do not register as changes; categorical attributes use
        exact inequality.  The mask is computed once per (attribute,
        tolerance) and returned read-only.
        """
        mask = self._changed.get((attribute, tolerance))
        if mask is None:
            mask = self._compute_changed_mask(attribute, tolerance)
            mask.setflags(write=False)
            self._changed[(attribute, tolerance)] = mask
        return mask

    def _compute_changed_mask(self, attribute: str, tolerance: float) -> np.ndarray:
        column = self.schema.column(attribute)
        if column.is_numeric:
            old = self.source.numeric_column(attribute)
            new = self.target.numeric_column(attribute)
            old_missing = np.isnan(old)
            new_missing = np.isnan(new)
            with np.errstate(invalid="ignore"):
                changed = np.abs(old - new) > tolerance
            # a value appearing or disappearing is a change; NaN comparisons
            # above are False, so mark one-sided missingness explicitly
            changed = np.asarray(changed, dtype=bool) | (old_missing ^ new_missing)
            return changed & ~(old_missing & new_missing)
        old_codes, levels = self.source.categorical_codes(attribute)
        new_codes, _ = self.target.categorical_codes(attribute, levels)
        return old_codes != new_codes

    def changed_attributes(self, tolerance: float = 1e-9) -> list[str]:
        """Names of all non-key attributes with at least one changed cell."""
        names = []
        for name in self.schema.names:
            if name == self.key:
                continue
            if bool(self.changed_mask(name, tolerance).any()):
                names.append(name)
        return names

    def change_fraction(self, attribute: str, tolerance: float = 1e-9) -> float:
        """Fraction of rows whose ``attribute`` value changed."""
        if self.num_rows == 0:
            return 0.0
        return float(self.changed_mask(attribute, tolerance).mean())

    def delta(self, attribute: str) -> np.ndarray:
        """Per-row numeric change ``target - source`` for ``attribute``."""
        column = self.schema.column(attribute)
        if not column.is_numeric:
            raise SnapshotAlignmentError(
                f"delta is only defined for numeric attributes, {attribute!r} is "
                f"{column.dtype.value}"
            )
        return self.target.numeric_column(attribute) - self.source.numeric_column(attribute)
