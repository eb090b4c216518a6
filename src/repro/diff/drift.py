"""Distribution-level drift between two snapshots (a Data-Diff-style view).

The paper's related work cites Data Diff (Sutton et al., KDD 2018), which
explains change between datasets in terms of shifted *distributions* rather
than individual cells.  This module provides that perspective for the E10
benchmark and for exploratory use: per-attribute summary statistics of both
versions, simple drift scores for numeric attributes (normalised mean shift
and a histogram distance) and total-variation distance for categorical ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.relational.snapshot import SnapshotPair

if TYPE_CHECKING:
    from repro.timeline.store import TimelineStore

__all__ = ["AttributeDrift", "DriftReport", "drift_report", "timeline_drift"]


@dataclass(frozen=True)
class AttributeDrift:
    """Distributional change of one attribute between the two versions."""

    attribute: str
    is_numeric: bool
    source_mean: float
    target_mean: float
    source_std: float
    target_std: float
    mean_shift: float
    histogram_distance: float

    @property
    def drift_score(self) -> float:
        """Combined drift indicator in ``[0, 1]`` (0 = identical distributions)."""
        return float(min(1.0, 0.5 * min(1.0, abs(self.mean_shift)) + 0.5 * self.histogram_distance))

    def __str__(self) -> str:
        return (
            f"{self.attribute}: mean {self.source_mean:.3g} -> {self.target_mean:.3g}, "
            f"drift {self.drift_score:.3f}"
        )


@dataclass(frozen=True)
class DriftReport:
    """Per-attribute drift of a snapshot pair, sorted by decreasing drift."""

    drifts: tuple[AttributeDrift, ...]

    def top(self, n: int = 5) -> list[AttributeDrift]:
        """The ``n`` most-drifted attributes."""
        return list(self.drifts[:n])

    def for_attribute(self, attribute: str) -> AttributeDrift | None:
        """Drift record of one attribute (``None`` if it was not analysed)."""
        for drift in self.drifts:
            if drift.attribute == attribute:
                return drift
        return None

    def describe(self) -> str:
        """Human-readable drift listing."""
        lines = ["Distribution drift (most drifted first):"]
        lines.extend(f"  {drift}" for drift in self.drifts)
        return "\n".join(lines)


def drift_report(
    pair: SnapshotPair, attributes: Sequence[str] | None = None, bins: int = 10
) -> DriftReport:
    """Compute per-attribute distribution drift for an aligned snapshot pair."""
    names = list(attributes) if attributes is not None else [
        name for name in pair.schema.names if name != pair.key
    ]
    drifts = []
    for name in names:
        column = pair.schema.column(name)
        if column.is_numeric:
            drifts.append(_numeric_drift(pair, name, bins))
        else:
            drifts.append(_categorical_drift(pair, name))
    drifts.sort(key=lambda drift: -drift.drift_score)
    return DriftReport(tuple(drifts))


def timeline_drift(
    timeline: TimelineStore, window: int = 1, bins: int = 10
) -> list[tuple[str, str, DriftReport]]:
    """Distribution drift for every hop of a version chain.

    Each hop's drift covers only the attributes that hop changed, so a hop
    that touched two columns costs two histogram passes, not a schema's
    worth.  A hop that changed nothing yields an empty report.
    """
    return [
        (source.name, target.name, drift_report(pair, pair.changed_attributes(), bins))
        for source, target, pair in timeline.windowed_pairs(window)
    ]


def _numeric_drift(pair: SnapshotPair, attribute: str, bins: int) -> AttributeDrift:
    source = pair.source.numeric_column(attribute)
    target = pair.target.numeric_column(attribute)
    source = source[~np.isnan(source)]
    target = target[~np.isnan(target)]
    source_mean = float(source.mean()) if source.size else float("nan")
    target_mean = float(target.mean()) if target.size else float("nan")
    source_std = float(source.std()) if source.size else float("nan")
    target_std = float(target.std()) if target.size else float("nan")
    pooled_std = float(np.std(np.concatenate([source, target]))) if source.size and target.size else 0.0
    mean_shift = (target_mean - source_mean) / pooled_std if pooled_std > 0 else 0.0
    histogram_distance = _histogram_distance(source, target, bins)
    return AttributeDrift(
        attribute=attribute,
        is_numeric=True,
        source_mean=source_mean,
        target_mean=target_mean,
        source_std=source_std,
        target_std=target_std,
        mean_shift=mean_shift,
        histogram_distance=histogram_distance,
    )


def _categorical_drift(pair: SnapshotPair, attribute: str) -> AttributeDrift:
    source_counts = pair.source.value_counts(attribute)
    target_counts = pair.target.value_counts(attribute)
    categories = set(source_counts) | set(target_counts)
    source_total = max(1, sum(source_counts.values()))
    target_total = max(1, sum(target_counts.values()))
    total_variation = 0.5 * sum(
        abs(source_counts.get(c, 0) / source_total - target_counts.get(c, 0) / target_total)
        for c in categories
    )
    return AttributeDrift(
        attribute=attribute,
        is_numeric=False,
        source_mean=float("nan"),
        target_mean=float("nan"),
        source_std=float("nan"),
        target_std=float("nan"),
        mean_shift=0.0,
        histogram_distance=float(total_variation),
    )


def _histogram_distance(source: np.ndarray, target: np.ndarray, bins: int) -> float:
    """Total-variation distance between the two empirical histograms."""
    if source.size == 0 or target.size == 0:
        return 0.0
    combined = np.concatenate([source, target])
    low, high = float(combined.min()), float(combined.max())
    if low == high:
        return 0.0
    edges = np.linspace(low, high, bins + 1)
    source_histogram, _ = np.histogram(source, bins=edges)
    target_histogram, _ = np.histogram(target, bins=edges)
    source_share = source_histogram / source_histogram.sum()
    target_share = target_histogram / target_histogram.sum()
    return float(0.5 * np.sum(np.abs(source_share - target_share)))
