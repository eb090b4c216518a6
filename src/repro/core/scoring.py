"""Scoring change summaries: accuracy, interpretability, and their tradeoff.

The paper defines ``Score(S) = alpha * Accuracy(S) + (1 - alpha) *
Interpretability(S)`` with accuracy modelled by the inverse L1 distance
between the transformed source and the actual target, and interpretability
driven by four desiderata: smaller summaries, simpler conditions and
transformations, higher data coverage, and higher normality of numeric
constants (paper §2).  This module makes every one of those components an
explicit, separately-reported number so that the accuracy–interpretability
tradeoff can be inspected and the E3 alpha-sweep experiment can be
reproduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.config import CharlesConfig
from repro.core.summary import ChangeSummary
from repro.relational.snapshot import SnapshotPair

__all__ = ["ScoreBreakdown", "accuracy", "interpretability", "score_summary"]

# Decay constants of the interpretability components.  They shape how quickly
# the scores fall off as summaries grow; the ablation benchmark (E8) and the
# alpha sweep (E3) exercise their effect.
_SIZE_DECAY = 6.0
_CONDITION_DECAY = 4.0
_TRANSFORMATION_DECAY = 4.0


@dataclass(frozen=True)
class ScoreBreakdown:
    """Every component that feeds the final score of one summary."""

    accuracy: float
    interpretability: float
    size_score: float
    simplicity_score: float
    coverage_score: float
    normality_score: float
    alpha: float

    @property
    def score(self) -> float:
        """The combined score ``alpha * accuracy + (1 - alpha) * interpretability``."""
        return self.alpha * self.accuracy + (1.0 - self.alpha) * self.interpretability

    def as_dict(self) -> dict[str, float]:
        """All components plus the combined score, as a plain dictionary."""
        return {
            "score": self.score,
            "accuracy": self.accuracy,
            "interpretability": self.interpretability,
            "size": self.size_score,
            "simplicity": self.simplicity_score,
            "coverage": self.coverage_score,
            "normality": self.normality_score,
            "alpha": self.alpha,
        }

    def __str__(self) -> str:
        return (
            f"score={self.score:.3f} (accuracy={self.accuracy:.3f}, "
            f"interpretability={self.interpretability:.3f})"
        )


def accuracy(summary: ChangeSummary, pair: SnapshotPair, sharpness: float = 1.0) -> float:
    """Inverse-L1 accuracy of a summary, in ``[0, 1]``.

    The summary's predictions are compared to the actual new values; the total
    absolute error is normalised by the error of the trivial "nothing changed"
    explanation and the result is sharpened as ``1 - ratio ** sharpness``.
    1.0 means the summary reconstructs the target snapshot exactly; 0.0 means
    it explains none of the observed change (or makes things worse).  Rows the
    summary leaves uncovered are counted as unchanged.  ``sharpness`` below 1
    penalises residual error more aggressively near the top of the scale,
    separating "almost exact" summaries from coarse compromises.
    """
    actual = pair.target.numeric_column(summary.target)
    original = pair.source.numeric_column(summary.target)
    predictions = summary.apply(pair.source)
    predictions = np.where(np.isfinite(predictions), predictions, original)
    usable = np.isfinite(actual) & np.isfinite(original)
    if not usable.any():
        return 1.0
    error = float(np.sum(np.abs(predictions[usable] - actual[usable])))
    baseline = float(np.sum(np.abs(original[usable] - actual[usable])))
    if baseline <= 0.0:
        # nothing changed at all: any summary that predicts "no change" is perfect
        scale = float(np.sum(np.abs(actual[usable]))) or 1.0
        ratio = min(1.0, error / scale)
    else:
        ratio = min(1.0, error / baseline)
    return float(np.clip(1.0 - ratio ** sharpness, 0.0, 1.0))


def _size_score(summary: ChangeSummary) -> float:
    """Fewer conditional transformations score higher (1 CT -> 1.0)."""
    if summary.size == 0:
        return 1.0
    return math.exp(-(summary.size - 1) / _SIZE_DECAY)


def _simplicity_score(summary: ChangeSummary) -> float:
    """Simpler conditions (fewer descriptors) and equations (fewer variables)."""
    if summary.size == 0:
        return 1.0
    condition_scores = []
    transformation_scores = []
    for ct in summary.conditional_transformations:
        condition_scores.append(math.exp(-ct.condition.complexity / _CONDITION_DECAY))
        transformation_scores.append(
            math.exp(-max(0, ct.transformation.complexity - 1) / _TRANSFORMATION_DECAY)
        )
    condition_part = sum(condition_scores) / len(condition_scores)
    transformation_part = sum(transformation_scores) / len(transformation_scores)
    return 0.5 * condition_part + 0.5 * transformation_part


def _coverage_score(summary: ChangeSummary, pair: SnapshotPair) -> float:
    """Fraction of actually-changed rows that an explicit CT takes responsibility for."""
    changed = pair.changed_mask(summary.target)
    if not changed.any():
        return 1.0
    covered = summary.covered_mask(pair.source)
    return float((covered & changed).sum() / changed.sum())


def _normality_score(summary: ChangeSummary) -> float:
    """Mean normality of the constants used across all conditions and transformations."""
    if summary.size == 0:
        return 1.0
    values = []
    for ct in summary.conditional_transformations:
        values.append(0.5 * ct.condition.normality() + 0.5 * ct.transformation.normality())
    return sum(values) / len(values)


def interpretability(
    summary: ChangeSummary, pair: SnapshotPair, config: CharlesConfig
) -> tuple[float, dict[str, float]]:
    """Weighted interpretability in ``[0, 1]`` plus its individual components."""
    components = {
        "size": _size_score(summary),
        "simplicity": _simplicity_score(summary),
        "coverage": _coverage_score(summary, pair),
        "normality": _normality_score(summary),
    }
    weights = config.interpretability_weights
    total = weights.total
    combined = (
        weights.size * components["size"]
        + weights.simplicity * components["simplicity"]
        + weights.coverage * components["coverage"]
        + weights.normality * components["normality"]
    ) / total
    return combined, components


def score_summary(
    summary: ChangeSummary, pair: SnapshotPair, config: CharlesConfig | None = None
) -> ScoreBreakdown:
    """Compute the full :class:`ScoreBreakdown` of ``summary`` on ``pair``."""
    config = config or CharlesConfig()
    accuracy_value = accuracy(summary, pair, sharpness=config.accuracy_sharpness)
    interpretability_value, components = interpretability(summary, pair, config)
    return ScoreBreakdown(
        accuracy=accuracy_value,
        interpretability=interpretability_value,
        size_score=components["size"],
        simplicity_score=components["simplicity"],
        coverage_score=components["coverage"],
        normality_score=components["normality"],
        alpha=config.alpha,
    )
