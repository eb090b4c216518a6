"""The candidate search subsystem of the diff discovery engine.

Search architecture
===================

Diff discovery is ChARLES's hot path: for one target attribute it must fit,
merge, refine and score a combinatorial space of candidate summaries
(condition subsets x transformation subsets x partition counts x residual
weights).  This package separates *what* must be computed from *how and when*
it is computed, in three layers:

1. **Planner** (:mod:`repro.search.planner`) — enumerates the entire candidate
   space up front as immutable :class:`~repro.search.planner.CandidateSpec`
   records collected in a :class:`~repro.search.planner.SearchPlan`.  The plan
   is countable and introspectable, and it groups specs into *rounds* (global
   single-rule specs first, then partitioned specs by ascending partition
   count) that define the synchronisation points of the search.

2. **Executor** (:mod:`repro.search.executors`) — evaluates the plan.
   :class:`~repro.search.executors.SearchExecutor` runs each round in
   process, or with ``n_jobs > 1`` (``CharlesConfig.n_jobs``) fans it out
   over a ``ProcessPoolExecutor``.  Both ways produce byte-identical
   rankings because the top-k pruning floor and the duplicate-signature set
   (the one input to an evaluation besides its spec) are frozen per round,
   and outcomes are reduced in spec order.  The executor fills in a
   :class:`~repro.search.stats.SearchStats` record (candidates enumerated /
   evaluated / pruned, cache hits, wall time) that rides along with the
   results.

3. **Pair memo + pruning** (:mod:`repro.search.cache`,
   :mod:`repro.search.evaluator`) — the
   :class:`~repro.search.evaluator.CandidateEvaluator` performs the actual
   partition discovery, per-partition regression fits, equivalent-partition
   merging and hierarchical refinement, memoising each stage in the plain
   dict tables of one :class:`~repro.search.cache.SearchCaches`, keyed by
   target, attribute subsets and row-mask digest.  The tables belong to one
   snapshot pair and stay in the process; the evaluator clears them when it
   is handed another pair.  A partition-table miss always runs the full
   discovery (cluster the changed rows, then induce conditions).  Only
   whole result entries leave the process, through the pluggable
   :class:`~repro.cachestore.base.CacheBackend` ``CharlesConfig.
   cache_backend`` selects (see :mod:`repro.cachestore`).  The evaluator's
   pruning is exact, never heuristic: specs whose discovered partition
   structure duplicates an earlier round's spec are skipped (the downstream
   pipeline is deterministic, so the summary would be identical).  Every
   summary it builds is scored.

Since the bound-planning layer (:mod:`repro.search.bounds`) the executor
additionally *filters* each round before paying for it: a once-per-search
:class:`~repro.search.bounds.ScoreBoundIndex` bounds every spec's achievable
score from the pair state alone, and specs provably below the top-k floor are
skipped before partition discovery runs (whenever
``CharlesConfig.prune_search`` is on).  The floor is a local of the round
loop: it starts at ``-inf`` and rises to the run's own k-th best score after
each round.  The survivors run in plan order: a pool round is split into at most ``2 * n_jobs`` contiguous
chunks whose outcomes are concatenated in order.  Rankings are byte-identical
to exhaustive search.

Adding a cache backend
----------------------

Where stored results live is pluggable: subclass
:class:`~repro.cachestore.base.CacheBackend`
(``get``/``put``/``__len__``/``clear`` + counter snapshots) and register the kind in
:func:`~repro.cachestore.factory.build_results_backend` — see the
:mod:`repro.cachestore` package docstring for the full recipe.  Any
``n_jobs`` works against any store.
"""

from repro.search.bounds import ScoreBoundIndex, SpecBound, bound_histogram
from repro.search.cache import CacheCounters, MemoTable, SearchCaches, mask_digest
from repro.search.evaluator import CandidateEvaluator, EvaluationOutcome, ScoredSummary
from repro.search.executors import SearchExecutor
from repro.search.planner import (
    GLOBAL,
    PARTITIONED,
    CandidateSpec,
    SearchPlan,
    attribute_subsets,
    build_search_plan,
)
from repro.search.stats import SearchStats

__all__ = [
    "GLOBAL",
    "PARTITIONED",
    "CandidateSpec",
    "SearchPlan",
    "attribute_subsets",
    "build_search_plan",
    "SpecBound",
    "ScoreBoundIndex",
    "bound_histogram",
    "MemoTable",
    "CacheCounters",
    "SearchCaches",
    "mask_digest",
    "CandidateEvaluator",
    "EvaluationOutcome",
    "ScoredSummary",
    "SearchExecutor",
    "SearchStats",
]
