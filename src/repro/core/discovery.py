"""The diff discovery engine: a thin orchestrator over :mod:`repro.search`.

This is the orchestration layer of ChARLES (paper §2, "Diff discovery
engine").  Given an aligned snapshot pair, a target attribute, and the
shortlisted condition/transformation attributes, the engine:

1. validates the inputs and handles the degenerate "nothing changed" case;
2. asks the planner (:mod:`repro.search.planner`) to enumerate the candidate
   space — every combination of condition-attribute subsets (size ≤ c),
   transformation-attribute subsets (size ≤ t), partition counts
   (1 ≤ k ≤ ``max_partitions``) and residual weights — as an explicit
   :class:`~repro.search.planner.SearchPlan`;
3. hands the plan to the executor selected by ``CharlesConfig.n_jobs``
   (:mod:`repro.search.executors`), which evaluates each spec — partition
   discovery, per-partition regression fits with coefficient snapping,
   equivalent-partition merging, hierarchical refinement, scoring — through
   the memo-cached :class:`~repro.search.evaluator.CandidateEvaluator`;
4. returns the deduplicated candidates ranked by descending score, together
   with the run's :class:`~repro.search.stats.SearchStats`.

The model-fitting internals live in :mod:`repro.search.evaluator`; this module
only owns the public engine API.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import CharlesConfig
from repro.core.summary import ChangeSummary
from repro.exceptions import DiscoveryError
from repro.relational.snapshot import SnapshotPair
from repro.search.cache import SearchCaches
from repro.search.evaluator import CandidateEvaluator, ScoredSummary
from repro.search.executors import select_executor
from repro.search.planner import build_search_plan
from repro.search.stats import SearchStats

__all__ = ["ScoredSummary", "DiffDiscoveryEngine"]


class DiffDiscoveryEngine:
    """Generates and ranks change summaries for one target attribute."""

    def __init__(self, config: CharlesConfig | None = None):
        self._config = config or CharlesConfig()

    @property
    def config(self) -> CharlesConfig:
        """The configuration driving the search."""
        return self._config

    # -- public API ------------------------------------------------------------

    def discover(
        self,
        pair: SnapshotPair,
        target: str,
        condition_attributes: Sequence[str],
        transformation_attributes: Sequence[str],
    ) -> list[ScoredSummary]:
        """Generate every candidate summary and return them ranked by score.

        Raises
        ------
        DiscoveryError
            If the target attribute is not numeric or no candidate attributes
            were provided.
        """
        ranked, _ = self.discover_with_stats(
            pair, target, condition_attributes, transformation_attributes
        )
        return ranked

    def discover_with_stats(
        self,
        pair: SnapshotPair,
        target: str,
        condition_attributes: Sequence[str],
        transformation_attributes: Sequence[str],
        caches: SearchCaches | None = None,
        initial_floor: float = float("-inf"),
    ) -> tuple[list[ScoredSummary], SearchStats]:
        """Like :meth:`discover`, additionally returning the search statistics.

        ``caches`` and ``initial_floor`` exist for session-style callers
        (:class:`~repro.timeline.session.EngineSession`) that keep memo caches
        and pruning floors alive across runs; one-shot calls leave them at
        their defaults and behave exactly as before.
        """
        column = pair.schema.column(target)
        if not column.is_numeric:
            raise DiscoveryError(f"target attribute {target!r} must be numeric")
        condition_attributes = [name for name in condition_attributes if name != pair.key]
        transformation_attributes = [
            name
            for name in transformation_attributes
            if pair.schema.column(name).is_numeric
        ]
        if not transformation_attributes:
            raise DiscoveryError("no numeric transformation attributes available")

        changed = pair.changed_mask(target)
        if not changed.any():
            empty = ChangeSummary(target, (), label="no change detected")
            evaluator = CandidateEvaluator(pair, target, self._config)
            return [evaluator.score_empty_summary(empty)], SearchStats(n_jobs=self._config.n_jobs)

        plan = build_search_plan(condition_attributes, transformation_attributes, self._config)
        executor = select_executor(self._config)
        ranked, stats = executor.execute(
            pair,
            target,
            plan,
            self._config,
            caches=caches,
            initial_floor=initial_floor,
        )
        if not ranked:
            raise DiscoveryError("no candidate summaries could be generated")
        return ranked, stats
