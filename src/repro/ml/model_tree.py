"""Linear model trees.

The output representation of a ChARLES change summary is a *linear model tree*
(paper Fig. 2): internal nodes test conditions over the condition attributes
and every leaf holds a linear model over the transformation attributes (or the
"None" marker for rows whose target value did not change).  This module
provides that tree as a reusable structure — the ChARLES core converts change
summaries into it, the greedy model-tree baseline learns one directly, and the
visualisation package renders it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.exceptions import ModelFitError
from repro.relational.table import Table

if TYPE_CHECKING:
    # the tree only calls ``mask`` and ``is_trivial``, so ml keeps no runtime
    # dependency on core
    from repro.core.condition import Condition

__all__ = ["LeafModel", "ModelTreeNode", "ModelTreeLeaf", "ModelTreeSplit", "LinearModelTree"]


@dataclass(frozen=True)
class LeafModel:
    """A linear model attached to a leaf of the tree.

    The model predicts the *new* value of the target attribute from the listed
    (source-version) feature columns:
    ``prediction = sum(coefficient_i * feature_i) + intercept``.

    An *identity* leaf (``is_identity = True``) represents "no change": the
    prediction is simply the old value of the target attribute.
    """

    feature_names: tuple[str, ...]
    coefficients: tuple[float, ...]
    intercept: float
    target: str
    is_identity: bool = False

    def __post_init__(self) -> None:
        if len(self.feature_names) != len(self.coefficients):
            raise ModelFitError(
                f"{len(self.feature_names)} feature names but "
                f"{len(self.coefficients)} coefficients"
            )

    @classmethod
    def identity(cls, target: str) -> "LeafModel":
        """The no-change leaf: new value equals old value."""
        return cls((target,), (1.0,), 0.0, target, is_identity=True)

    def predict(self, table: Table) -> np.ndarray:
        """Predicted new target values for every row of ``table``."""
        if not self.feature_names:
            return np.full(table.num_rows, self.intercept, dtype=float)
        matrix = table.numeric_matrix(list(self.feature_names))
        return matrix @ np.asarray(self.coefficients, dtype=float) + self.intercept

    @property
    def num_variables(self) -> int:
        """Number of features with a non-zero coefficient (model complexity)."""
        return int(sum(1 for coefficient in self.coefficients if coefficient != 0.0))

    def describe(self, precision: int = 4) -> str:
        """Human-readable equation, e.g. ``new_bonus = 1.05*bonus + 1000``."""
        if self.is_identity:
            return f"new_{self.target} = {self.target}  (no change)"
        terms = []
        for name, coefficient in zip(self.feature_names, self.coefficients):
            if coefficient == 0.0:
                continue
            terms.append(f"{round(coefficient, precision):g}*{name}")
        if self.intercept != 0.0 or not terms:
            terms.append(f"{round(self.intercept, precision):g}")
        return f"new_{self.target} = " + " + ".join(terms).replace("+ -", "- ")


@dataclass(frozen=True)
class ModelTreeNode:
    """Base class for tree nodes."""

    def leaves(self) -> Iterator[tuple[tuple[tuple[Condition, bool], ...], LeafModel]]:
        """Yield ``(path, leaf)`` pairs; the path is a tuple of (condition, branch taken)."""
        raise NotImplementedError

    def depth(self) -> int:
        """Height of the subtree rooted at this node (leaf = 0)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ModelTreeLeaf(ModelTreeNode):
    """A leaf holding a :class:`LeafModel` (or ``None`` for an uncovered region)."""

    model: LeafModel | None

    def leaves(self):
        yield (), self.model if self.model is not None else None

    def depth(self) -> int:
        return 0


@dataclass(frozen=True)
class ModelTreeSplit(ModelTreeNode):
    """An internal node testing ``condition``; YES branch first, NO branch second."""

    condition: Condition
    yes: ModelTreeNode
    no: ModelTreeNode

    def leaves(self):
        for path, leaf in self.yes.leaves():
            yield ((self.condition, True),) + path, leaf
        for path, leaf in self.no.leaves():
            yield ((self.condition, False),) + path, leaf

    def depth(self) -> int:
        return 1 + max(self.yes.depth(), self.no.depth())


@dataclass(frozen=True)
class LinearModelTree:
    """A complete linear model tree over a snapshot's source version.

    ``predict`` routes every row of a source table down the tree and applies
    the leaf model it lands on; rows that land on an empty (``None``) leaf get
    a NaN prediction, mirroring the paper's uncovered "None" region.
    """

    root: ModelTreeNode
    target: str

    def predict(self, table: Table) -> np.ndarray:
        """Predicted new target values for every row of the source ``table``."""
        predictions = np.full(table.num_rows, np.nan, dtype=float)
        assigned = np.zeros(table.num_rows, dtype=bool)
        for path, leaf in self.root.leaves():
            mask = np.ones(table.num_rows, dtype=bool)
            for condition, branch in path:
                condition_mask = condition.mask(table)
                mask &= condition_mask if branch else ~condition_mask
            mask &= ~assigned
            if leaf is not None and mask.any():
                predictions[mask] = leaf.predict(table.mask(mask))
            assigned |= mask
        return predictions

    def leaves(self) -> list[tuple[tuple[tuple[Condition, bool], ...], LeafModel | None]]:
        """All ``(path, leaf)`` pairs in YES-before-NO order."""
        return list(self.root.leaves())

    @property
    def num_leaves(self) -> int:
        """Number of leaves (including empty ones)."""
        return len(self.leaves())

    @property
    def depth(self) -> int:
        """Tree height (a single leaf has depth 0)."""
        return self.root.depth()

    @classmethod
    def from_rules(
        cls,
        rules: Sequence[tuple[Condition, LeafModel]],
        target: str,
        default: LeafModel | None = None,
    ) -> "LinearModelTree":
        """Build a right-leaning tree from an ordered list of (condition, model) rules.

        Each rule becomes an internal node whose YES branch is the rule's
        model; the final NO branch is ``default`` (usually the identity or
        ``None``).  A rule with the trivial condition matches everything and
        terminates the chain.
        """
        node: ModelTreeNode = ModelTreeLeaf(default)
        for condition, model in reversed(list(rules)):
            if condition.is_trivial:
                node = ModelTreeLeaf(model)
            else:
                node = ModelTreeSplit(condition, ModelTreeLeaf(model), node)
        return cls(node, target)
