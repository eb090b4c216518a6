"""ASCII rendering of linear model trees (the paper's Fig. 2).

The demo displays every summary as a decision-tree-like structure whose
internal nodes are conditions and whose leaves are linear transformations or
"None" (no change).  :func:`render_model_tree` produces the same structure as
indented text so it can be shown in a terminal, embedded in markdown reports,
and asserted on in tests.
"""

from __future__ import annotations

from repro.core.summary import ChangeSummary
from repro.ml.model_tree import LinearModelTree, ModelTreeLeaf, ModelTreeNode, ModelTreeSplit

__all__ = ["render_model_tree", "render_summary_tree"]


def render_model_tree(tree: LinearModelTree, indent: str = "    ") -> str:
    """Render a :class:`LinearModelTree` as indented ASCII text.

    Conditions print in the rule text of
    :meth:`~repro.core.summary.ChangeSummary.describe`.  Example output
    (compare the paper's Fig. 2)::

        edu = 'MS' AND exp >= 3?
        ├── YES: new_bonus = 1.04*bonus + 800
        └── NO:
            edu in {'PhD', 'BS'}?
            ├── YES: new_bonus = 1.05*bonus + 1000
            └── NO:  (no change)
    """
    lines: list[str] = []
    _render_node(tree.root, lines, prefix="")
    return "\n".join(lines)


def _describe_leaf(node: ModelTreeLeaf) -> str:
    if node.model is None:
        return "(not explained)"
    if node.model.is_identity:
        return "(no change)"
    return node.model.describe()


def _render_node(node: ModelTreeNode, lines: list[str], prefix: str) -> None:
    if isinstance(node, ModelTreeLeaf):
        lines.append(f"{prefix}{_describe_leaf(node)}")
        return
    assert isinstance(node, ModelTreeSplit)
    lines.append(f"{prefix}{node.condition}?")
    # YES branch
    if isinstance(node.yes, ModelTreeLeaf):
        lines.append(f"{prefix}├── YES: {_describe_leaf(node.yes)}")
    else:
        lines.append(f"{prefix}├── YES:")
        _render_node(node.yes, lines, prefix + "│   ")
    # NO branch
    if isinstance(node.no, ModelTreeLeaf):
        lines.append(f"{prefix}└── NO:  {_describe_leaf(node.no)}")
    else:
        lines.append(f"{prefix}└── NO:")
        _render_node(node.no, lines, prefix + "    ")


def render_summary_tree(summary: ChangeSummary) -> str:
    """Convenience wrapper: convert a summary to its model tree and render it."""
    return render_model_tree(summary.to_model_tree())
