"""Syntactic diff substrate: cell diffs, update distance, distribution drift.

These are the lenses that *existing* tools offer on database change, which the
paper argues are either too fine-grained (cell listings, edit scripts) or too
coarse (distribution summaries) to reveal update semantics.  The reproduction
implements them both as baselines for the benchmark suite and as general
utilities for inspecting snapshot pairs and version chains.  Every lens reads
an aligned :class:`~repro.relational.snapshot.SnapshotPair`, and a cell
changed where its ``changed_mask`` says so.
"""

from repro.diff.cell_diff import (
    AttributeDiff,
    CellChange,
    DiffReport,
    UpdateDistance,
    batch_update_distance,
    diff_snapshots,
    timeline_diff,
    update_distance,
)
from repro.diff.drift import AttributeDrift, DriftReport, drift_report, timeline_drift

__all__ = [
    "CellChange",
    "AttributeDiff",
    "DiffReport",
    "diff_snapshots",
    "UpdateDistance",
    "update_distance",
    "batch_update_distance",
    "AttributeDrift",
    "DriftReport",
    "drift_report",
    "timeline_diff",
    "timeline_drift",
]
