"""Change summaries: sets of conditional transformations.

The unit of explanation in ChARLES is the *conditional transformation* (CT):
a condition that identifies a partition of the data plus a linear
transformation that describes how the target attribute changed within it
(paper §2).  A *change summary* is an ordered collection of CTs; rows not
matched by any CT fall back to the identity transformation (the paper's
"None" leaf).  Summaries know how to apply themselves to a source table, how
to compute the partitions they induce, and how to convert themselves to the
linear model tree representation of Fig. 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.condition import Condition
from repro.core.transformation import LinearTransformation
from repro.ml.model_tree import LeafModel, LinearModelTree
from repro.relational.snapshot import SnapshotPair
from repro.relational.table import Table

__all__ = ["ConditionalTransformation", "PartitionAssignment", "ChangeSummary"]


@dataclass(frozen=True)
class ConditionalTransformation:
    """A single ``condition -> transformation`` rule."""

    condition: Condition
    transformation: LinearTransformation

    @property
    def target(self) -> str:
        """The target attribute the transformation rewrites."""
        return self.transformation.target

    def mask(self, table: Table) -> np.ndarray:
        """Rows of ``table`` selected by the condition."""
        return self.condition.mask(table)

    def coverage(self, table: Table) -> float:
        """Fraction of rows of ``table`` selected by the condition."""
        return self.condition.coverage(table)

    def __str__(self) -> str:
        return f"IF {self.condition} THEN {self.transformation}"


@dataclass(frozen=True)
class PartitionAssignment:
    """The rows a CT actually handles once first-match semantics are applied."""

    conditional_transformation: ConditionalTransformation | None
    mask: np.ndarray

    @property
    def size(self) -> int:
        """Number of rows assigned to this partition."""
        return int(self.mask.sum())

    @property
    def is_fallback(self) -> bool:
        """Whether this is the identity fallback ("None") partition."""
        return self.conditional_transformation is None


@dataclass(frozen=True)
class ChangeSummary:
    """An ordered set of conditional transformations for one target attribute.

    Rules are applied with first-match semantics: each row is handled by the
    first CT whose condition it satisfies.  Rows matching no CT are treated as
    unchanged (identity) when ``identity_fallback`` is set, mirroring the
    "None" leaf of the paper's linear model tree; otherwise they are predicted
    as NaN (uncovered).
    """

    target: str
    conditional_transformations: tuple[ConditionalTransformation, ...]
    identity_fallback: bool = True
    label: str = ""

    def __post_init__(self) -> None:
        for ct in self.conditional_transformations:
            if ct.target != self.target:
                raise ValueError(
                    f"conditional transformation targets {ct.target!r}, summary targets "
                    f"{self.target!r}"
                )

    # -- structure -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.conditional_transformations)

    def __iter__(self) -> Iterator[ConditionalTransformation]:
        return iter(self.conditional_transformations)

    @property
    def size(self) -> int:
        """Number of CTs in the summary."""
        return len(self.conditional_transformations)

    @property
    def condition_attributes(self) -> list[str]:
        """Distinct attributes used by any condition, in first-use order."""
        seen: dict[str, None] = {}
        for ct in self.conditional_transformations:
            for attribute in ct.condition.attributes():
                seen.setdefault(attribute, None)
        return list(seen)

    @property
    def transformation_attributes(self) -> list[str]:
        """Distinct attributes used by any transformation, in first-use order."""
        seen: dict[str, None] = {}
        for ct in self.conditional_transformations:
            for attribute in ct.transformation.feature_names:
                seen.setdefault(attribute, None)
        return list(seen)

    # -- application -----------------------------------------------------------

    def partition_assignments(self, source: Table) -> list[PartitionAssignment]:
        """First-match partitions induced by the CTs over ``source``.

        The final entry is the fallback partition of rows matched by no CT
        (possibly empty).
        """
        remaining = np.ones(source.num_rows, dtype=bool)
        assignments: list[PartitionAssignment] = []
        for ct in self.conditional_transformations:
            mask = ct.mask(source) & remaining
            assignments.append(PartitionAssignment(ct, mask))
            remaining &= ~mask
        assignments.append(PartitionAssignment(None, remaining))
        return assignments

    def apply(self, source: Table) -> np.ndarray:
        """Predicted new target values for every row of ``source``.

        Each partition's rows are read through its mask, without copying
        ``source``.
        """
        predictions = np.full(source.num_rows, np.nan, dtype=float)
        for assignment in self.partition_assignments(source):
            mask = assignment.mask
            if not mask.any():
                continue
            if assignment.conditional_transformation is not None:
                predictions[mask] = assignment.conditional_transformation.transformation.apply(
                    source, mask
                )
            elif self.identity_fallback:
                predictions[mask] = source.numeric_column(self.target)[mask]
        return predictions

    def transformed_table(self, source: Table) -> Table:
        """``source`` with the target attribute replaced by this summary's predictions."""
        predictions = self.apply(source)
        values = [None if np.isnan(value) else float(value) for value in predictions]
        return source.with_column(self.target, values)

    def covered_mask(self, source: Table) -> np.ndarray:
        """Rows handled by an explicit (non-fallback) CT."""
        covered = np.zeros(source.num_rows, dtype=bool)
        for assignment in self.partition_assignments(source):
            if not assignment.is_fallback:
                covered |= assignment.mask
        return covered

    def coverage(self, source: Table) -> float:
        """Fraction of rows handled by an explicit CT."""
        if source.num_rows == 0:
            return 0.0
        return float(self.covered_mask(source).mean())

    def residuals(self, pair: SnapshotPair) -> np.ndarray:
        """Signed errors (actual new value - predicted) over the aligned pair."""
        predictions = self.apply(pair.source)
        actual = pair.target.numeric_column(self.target)
        return actual - predictions

    def structural_key(self) -> tuple:
        """A formatting-independent identity for candidate deduplication.

        Built from the target, the ordered conditions' descriptors and each
        transformation's :meth:`~repro.core.transformation.LinearTransformation.
        signature` — never from rendered text, so a change to :meth:`describe`
        can neither merge distinct summaries nor split identical ones.
        """
        return (
            self.target,
            self.identity_fallback,
            self.label,
            tuple(
                (ct.condition.descriptors, ct.transformation.signature())
                for ct in self.conditional_transformations
            ),
        )

    # -- conversion / rendering --------------------------------------------------

    def to_model_tree(self) -> LinearModelTree:
        """The linear model tree (paper Fig. 2) equivalent to this summary."""
        rules = [
            (ct.condition.to_expression(), ct.transformation.to_leaf_model())
            for ct in self.conditional_transformations
        ]
        default = LeafModel.identity(self.target) if self.identity_fallback else None
        return LinearModelTree.from_rules(rules, self.target, default=default)

    def describe(self) -> str:
        """A multi-line human-readable rendering of the summary.

        Constants are rounded for people (6 significant digits), so the text
        is not an identity: two different summaries can print alike.
        :meth:`structural_key` identifies a summary, and
        :func:`~repro.core.sql.summary_to_sql_update` exports it exactly.
        """
        lines = [f"Change summary for '{self.target}' ({self.size} rule(s)):"]
        for index, ct in enumerate(self.conditional_transformations, start=1):
            lines.append(f"  R{index}: {ct}")
        fallback = "unchanged" if self.identity_fallback else "not explained"
        lines.append(f"  otherwise: {fallback}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()
