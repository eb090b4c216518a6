"""Admissible score upper bounds for candidate specs, before discovery runs.

The evaluator already prunes *after* a summary is built (its interpretability
is exact, accuracy is at most 1, so ``alpha + (1 - alpha) * interpretability``
bounds the score) — but by then partition discovery, the most expensive stage
of the search, has already been paid for.  This module bounds the score of a
:class:`~repro.search.planner.CandidateSpec` from the pair state alone, in one
vectorised pass, so a spec that provably cannot reach the current top-k floor
is skipped before ``_cached_partitions`` ever runs.

Why the bound is sound
----------------------

For any summary a spec ``(C, T, k, w)`` can produce, the prediction for a row
is a pure function of the row's *source-side* values of ``C ∪ T ∪ {target}``:

* which conditional transformation the row is assigned to depends only on the
  row's ``C``-values — every condition the pipeline induces (discovery, merge
  unions, refinement conjunctions) tests attributes of ``C``;
* the assigned CT's prediction is its linear model over the row's
  ``T``-values, or — for the identity fallback and for NaN predictions, which
  :func:`~repro.core.scoring.accuracy` replaces — the source target value.

Two rows with identical source values of ``C ∪ T ∪ {target}`` therefore
receive the *same* prediction from *every* summary the spec can build.
Grouping the usable rows (both target sides non-NaN, exactly the rows
``accuracy`` scores) by those values, the summary acts as one free choice of
prediction per group, so its total L1 error is at least

    ``E_min = sum over groups of min_p sum_i |p - actual_i|``
            ``= sum over groups of sum_i |median_g - actual_i|``

and ``accuracy <= 1 - (min(1, E_min / baseline)) ** sharpness`` — mirroring
``accuracy()``'s arithmetic exactly (baseline is the error of "nothing
changed"; a non-positive baseline makes the ceiling 1).  Interpretability has
no such data-driven ceiling: a summary can always collapse to one trivial
catch-all CT, and ``covered_mask`` counts trivial CTs as coverage, so every
interpretability component can reach 1.  The score bound is then

    ``alpha * accuracy_ceiling + (1 - alpha) * 1 + epsilon``

with a tiny epsilon absorbing float-rounding differences between the
vectorised pass and the scalar scoring path.  The bound is independent of the
partition count and residual weight, so it is computed once per distinct
``C ∪ T`` union and shared by every spec over that union.

Why pruning on it preserves rankings
------------------------------------

A spec is skipped only when ``bound < floor`` *strictly*, and the floor is the
running k-th best score (monotonically non-decreasing, frozen per round).  Any
summary the skipped spec could produce scores below a floor the final top-k
scores at or above — so the skipped spec cannot displace anything in the
top-k, and duplicate-signature interactions cannot resurrect it: a structural
twin shares the union, hence the bound, and faces an equal-or-higher floor.
The differential suite (``tests/search/test_bounds.py``) pins rankings with
pruning on and off to byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import CharlesConfig
from repro.obs.trace import get_tracer
from repro.relational.snapshot import SnapshotPair
from repro.search.cache import PairFingerprints
from repro.search.planner import CandidateSpec

__all__ = ["SpecBound", "ScoreBoundIndex", "bound_histogram"]

#: float-robustness margin added to every score bound: the vectorised residual
#: floor and the scalar scoring path may round differently in the last ulps,
#: and an admissible bound must never dip below a truly achievable score
_BOUND_EPSILON = 1e-9


@dataclass(frozen=True)
class SpecBound:
    """A provable upper bound on any score a candidate spec can achieve.

    ``residual_floor`` is the minimum total L1 error any summary over the
    spec's attribute union can leave (``E_min`` above), ``baseline`` the error
    of the trivial "nothing changed" explanation on the same rows.  The
    ceilings and the combined ``score_bound`` follow the scoring arithmetic of
    :mod:`repro.core.scoring` exactly.
    """

    residual_floor: float
    baseline: float
    accuracy_ceiling: float
    interpretability_ceiling: float
    score_bound: float

    def describe(self) -> str:
        """A compact one-line rendering (for logs and the plan dry-run)."""
        return (
            f"bound={self.score_bound:.3f} "
            f"(accuracy<={self.accuracy_ceiling:.3f}, "
            f"residual_floor={self.residual_floor:g}/{self.baseline:g})"
        )


class ScoreBoundIndex:
    """Per-union admissible score bounds for one ``(pair, target, config)``.

    Built once per search by the executor; :meth:`bound` answers from a
    per-union cache, so the whole candidate space costs one vectorised
    grouping pass per distinct ``C ∪ T`` union (typically far fewer unions
    than specs — partition counts and residual weights share them).
    """

    def __init__(self, pair: SnapshotPair, target: str, config: CharlesConfig) -> None:
        with get_tracer().span("bounds.build", target=target, rows=pair.num_rows):
            self._pair = pair
            self._target = target
            self._config = config
            actual = pair.target.numeric_column(target)
            original = pair.source.numeric_column(target)
            self._usable = np.isfinite(actual) & np.isfinite(original)
            self._actual = actual[self._usable]
            self._baseline = float(
                np.sum(np.abs(original[self._usable] - actual[self._usable]))
            )
            self._prints: dict[str, np.ndarray] = {}
            self._by_union: dict[tuple[str, ...], SpecBound] = {}

    # -- public API ------------------------------------------------------------

    def bound(self, spec: CandidateSpec) -> float:
        """The admissible score upper bound of ``spec`` (cached per union)."""
        return self.spec_bound(spec).score_bound

    def spec_bound(self, spec: CandidateSpec) -> SpecBound:
        """The full :class:`SpecBound` record behind :meth:`bound`."""
        union = tuple(
            dict.fromkeys(spec.condition_subset + spec.transformation_subset)
        )
        cached = self._by_union.get(union)
        if cached is None:
            cached = self._union_bound(union)
            self._by_union[union] = cached
        return cached

    def round_bounds(self, specs) -> list[float]:
        """Score bounds for a whole round of specs, in order."""
        return [self.bound(spec) for spec in specs]

    # -- internals -------------------------------------------------------------

    def _column_print(self, name: str) -> np.ndarray:
        print_ = self._prints.get(name)
        if print_ is None:
            print_ = PairFingerprints._column_fingerprint(self._pair.source, name)
            self._prints[name] = print_
        return print_

    def _union_bound(self, union: tuple[str, ...]) -> SpecBound:
        alpha = self._config.alpha
        residual_floor = self._residual_floor(union)
        accuracy_ceiling = self._accuracy_ceiling(residual_floor)
        score_bound = min(
            1.0 + _BOUND_EPSILON,
            alpha * accuracy_ceiling + (1.0 - alpha) * 1.0 + _BOUND_EPSILON,
        )
        return SpecBound(
            residual_floor=residual_floor,
            baseline=self._baseline,
            accuracy_ceiling=accuracy_ceiling,
            interpretability_ceiling=1.0,
            score_bound=score_bound,
        )

    def _accuracy_ceiling(self, residual_floor: float) -> float:
        if self._actual.size == 0 or self._baseline <= 0.0:
            # accuracy() scores these cases against a scale where perfect
            # prediction (always reachable by "nothing changed") yields 1
            return 1.0
        ratio = min(1.0, max(0.0, residual_floor / self._baseline))
        ceiling = 1.0 - ratio ** self._config.accuracy_sharpness
        return float(min(1.0, max(0.0, ceiling)))

    def _residual_floor(self, union: tuple[str, ...]) -> float:
        """``E_min``: least total L1 error any per-group prediction can leave."""
        if self._actual.size == 0:
            return 0.0
        columns = tuple(dict.fromkeys(union + (self._target,)))
        matrix = np.column_stack(
            [self._column_print(name)[self._usable] for name in columns]
        )
        _, inverse = np.unique(matrix, axis=0, return_inverse=True)
        inverse = np.asarray(inverse).ravel()
        # sort rows by (group, value); per-group L1-median deviations then
        # fall out of one prefix-sum pass over the sorted values
        order = np.lexsort((self._actual, inverse))
        groups = inverse[order]
        values = self._actual[order]
        prefix = np.concatenate(([0.0], np.cumsum(values)))
        starts = np.flatnonzero(np.r_[True, groups[1:] != groups[:-1]])
        ends = np.r_[starts[1:], values.size]
        counts = ends - starts
        lower = starts + counts // 2
        upper = starts + (counts + 1) // 2
        deviations = (prefix[ends] - prefix[upper]) - (prefix[lower] - prefix[starts])
        # prefix-sum cancellation can leave a tiny negative residue; the true
        # quantity is a sum of absolute deviations and can never be below 0
        return max(0.0, float(deviations.sum()))


def bound_histogram(bounds, bins: int = 10) -> str:
    """A one-line text histogram of score bounds over ``[0, 1]`` (plan dry-run).

    Bounds are clipped into the unit interval; each bucket renders as
    ``lo-hi:count`` and empty buckets are skipped, so the line stays readable
    for plans of any size.
    """
    values = np.clip(np.asarray(list(bounds), dtype=float), 0.0, 1.0)
    if values.size == 0:
        return "(no specs)"
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    parts = [
        f"{edges[index]:.1f}-{edges[index + 1]:.1f}:{count}"
        for index, count in enumerate(counts)
        if count
    ]
    return "  ".join(parts)
