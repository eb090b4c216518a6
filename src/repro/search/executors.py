"""The executor: how and where the planned candidate space gets evaluated.

:class:`SearchExecutor` takes a :class:`~repro.search.planner.SearchPlan`
and returns the deduplicated, ranked candidate list plus a
:class:`~repro.search.stats.SearchStats` record.  It owns the round loop,
the deterministic reduce (structural-key deduplication in spec order, then
ranking) and the top-k floor used for pruning.  ``n_jobs`` decides how the
specs *within* one round are evaluated: with 1 (the default,
``CharlesConfig.n_jobs == 1``) by one in-process evaluator whose memo spans
the whole search; above 1 by a ``ProcessPoolExecutor`` of ``n_jobs``
workers, each holding its own evaluator and caches.  A pool that cannot
start or breaks mid-round hands the search to the in-process evaluator.

Both ways produce byte-identical rankings.  The top-k floor (which
specs the spec bounds skip) and the duplicate-signature set (the only input
an evaluation takes besides its spec) are frozen at the start of a round and
only updated between rounds, so outcomes do not depend on evaluation order
inside a round; and outcomes are reduced in spec order, so tie-breaking is
identical no matter which worker produced a candidate.  (Cache *statistics*
may differ: each worker keeps a private memo, so parallel runs re-fit
some work a serial run would have cached.  That changes timings, never
results — caches only ever memoise deterministic functions.)
"""

from __future__ import annotations

import heapq
import os
import pickle
import time
import warnings
from typing import TYPE_CHECKING, Sequence

from repro.core.config import CharlesConfig
from repro.obs.metrics import get_registry
from repro.obs.trace import configure_tracing, get_tracer
from repro.relational.snapshot import SnapshotPair
from repro.search.bounds import ScoreBoundIndex
from repro.search.cache import CacheCounters, SearchCaches
from repro.search.evaluator import (
    CandidateEvaluator,
    EvaluationOutcome,
    ScoredSummary,
)
from repro.search.planner import CandidateSpec, SearchPlan
from repro.search.stats import SearchStats

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = ["SearchExecutor"]

# engine-side metrics, fed from the same hooks as the spans; always cheap
# (two dict updates per observation) so they are not gated on tracing
_METRICS = get_registry()
_ROUND_SECONDS = _METRICS.histogram(
    "charles_round_seconds", "Wall-clock seconds per search round"
)
_SPECS_TOTAL = _METRICS.counter(
    "charles_specs_total", "Candidate specs by outcome", labels=("status",)
)
_FALLBACKS_TOTAL = _METRICS.counter(
    "charles_executor_fallbacks_total",
    "Searches a process pool failure moved to in-process evaluation",
)


def add_candidate(candidates: dict[tuple, ScoredSummary], scored: ScoredSummary) -> None:
    """Deduplicate on the summary's structural key, keeping the higher score.

    The key is structural (target, conditions, rounded coefficients) rather
    than the rendered summary text, so formatting changes can neither merge
    distinct summaries nor split identical ones.
    """
    key = scored.summary.structural_key()
    existing = candidates.get(key)
    if existing is None or scored.score > existing.score:
        candidates[key] = scored


def rank_candidates(candidates: dict[tuple, ScoredSummary]) -> list[ScoredSummary]:
    """Rank by descending score, ties broken by smaller summaries first."""
    return sorted(candidates.values(), key=lambda scored: (-scored.score, scored.summary.size))


def _top_k_floor(candidates: dict[tuple, ScoredSummary], top_k: int) -> float:
    """The k-th best score so far, or ``-inf`` while fewer than k candidates exist."""
    if len(candidates) < top_k:
        return float("-inf")
    return heapq.nlargest(top_k, (scored.score for scored in candidates.values()))[-1]


class SearchExecutor:
    """The round loop, the deterministic reduce and the choice of where specs run.

    The executor also owns pre-discovery bound pruning (on whenever
    ``config.prune_search`` is and the plan is non-empty): a
    :class:`~repro.search.bounds.ScoreBoundIndex` is built once per search,
    and specs whose admissible score bound falls below the round's frozen
    floor are counted as pruned *here*, so they are never evaluated — no
    partition discovery, no fit, no cache lookup.  The survivors keep
    their plan order, so tie-breaking (and therefore the ranking) is
    byte-identical to the unpruned path.
    """

    def __init__(self, n_jobs: int = 1):
        if n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
        self.n_jobs = n_jobs

    def execute(
        self,
        pair: SnapshotPair,
        target: str,
        plan: SearchPlan,
        config: CharlesConfig,
        caches: SearchCaches | None = None,
    ) -> tuple[list[ScoredSummary], SearchStats]:
        """Evaluate the plan and return the ranked candidates plus statistics.

        ``caches`` lets a long-lived caller (an
        :class:`~repro.timeline.session.EngineSession`) supply caches that
        outlive one search.  The in-process evaluator uses them directly;
        pool workers keep private caches, so with ``n_jobs > 1`` they serve
        only a fallback.  The evaluator scopes them to ``pair``: entries of
        another pair are dropped first.

        With ``n_jobs > 1`` each round fans out over a process pool whose
        workers are initialised once per search with the (pickled) pair,
        target and configuration.  Pool failures surface either at
        construction or, since workers spawn lazily, as a broken pool
        mid-``map`` (a worker killed by the OS, an unpicklable payload).
        Either way the pool is abandoned, the failure is counted and warned
        about, and the interrupted round and every later one run in process:
        evaluation is pure given the round's signature set, so the outcomes
        equal the workers'.  ``stats.n_jobs`` is then 1.

        The top-k floor is local to this loop: it starts at ``-inf`` and,
        after each round, rises to the k-th best score found so far.  Only
        the pre-discovery spec bounds read it.
        """
        started = time.perf_counter()
        tracer = get_tracer()
        if config.trace_path and not tracer.enabled:
            # library callers get tracing by setting the config field alone;
            # the CLI configures the same process-wide tracer up front
            configure_tracing(config.trace_path)
        stats = SearchStats(candidates_enumerated=len(plan), rounds=plan.num_rounds)
        candidates: dict[tuple, ScoredSummary] = {}
        signatures: set = set()
        floor = float("-inf")
        pool: ProcessPoolExecutor | None = None
        evaluator: CandidateEvaluator | None = None
        with tracer.span(
            "search",
            target=target,
            specs=len(plan),
            rounds=plan.num_rounds,
            n_jobs=self.n_jobs,
        ):
            # bound pruning is a top-k skip, so `prune_search` switches it off;
            # the index reads only the pair state, so it is identical for any
            # n_jobs (serial and pool searches prune the same specs)
            bound_index = (
                ScoreBoundIndex(pair, target, config)
                if config.prune_search and len(plan)
                else None
            )
            stats.bound_pruning = bound_index is not None
            if self.n_jobs > 1:
                # imported here: a serial search never loads the pool machinery
                from concurrent.futures import ProcessPoolExecutor
                from concurrent.futures.process import BrokenProcessPool

                try:
                    pool = ProcessPoolExecutor(
                        max_workers=self.n_jobs,
                        initializer=_init_worker,
                        initargs=(pair, target, config),
                    )
                except (OSError, PermissionError, RuntimeError) as error:
                    _fall_back(error)
            # without caller caches a search runs on fresh in-process ones
            stats.cache_backend = "memory" if caches is None else caches.backend_kind
            try:
                for round_number, round_specs in enumerate(plan.rounds):
                    if not round_specs:
                        continue
                    round_started = time.perf_counter()
                    with tracer.span(
                        "round", index=round_number, specs=len(round_specs)
                    ) as round_span:
                        run_specs = round_specs
                        if bound_index is not None:
                            with tracer.span("round.bounds") as bounds_span:
                                bounds = bound_index.round_bounds(round_specs)
                                run_specs = tuple(
                                    spec
                                    for spec, bound in zip(round_specs, bounds)
                                    if bound >= floor
                                )
                                pruned = len(round_specs) - len(run_specs)
                                bounds_span.set(pruned=pruned, survivors=len(run_specs))
                            if pruned:
                                stats.candidates_pruned_spec_bounds += pruned
                                _SPECS_TOTAL.inc(pruned, status="spec-bound")
                        outcomes: list[EvaluationOutcome] = []
                        delta = CacheCounters()
                        if run_specs:
                            known = frozenset(signatures)
                            with tracer.span(
                                "round.dispatch", specs=len(run_specs)
                            ):
                                if pool is not None:
                                    try:
                                        outcomes, delta = _pool_round(
                                            pool, run_specs, known, self.n_jobs
                                        )
                                    except (
                                        BrokenProcessPool, OSError, pickle.PicklingError
                                    ) as error:
                                        pool.shutdown(wait=False, cancel_futures=True)
                                        pool = None
                                        _fall_back(error)
                                if pool is None:
                                    if evaluator is None:
                                        evaluator = CandidateEvaluator(
                                            pair, target, config, caches
                                        )
                                    outcomes, delta = _evaluate_specs(
                                        evaluator, run_specs, known
                                    )
                        for outcome in outcomes:
                            if outcome.signature is not None:
                                signatures.add(outcome.signature)
                            if outcome.pruned:
                                _SPECS_TOTAL.inc(status=outcome.pruned_reason)
                                stats.candidates_pruned_duplicates += 1
                                continue
                            _SPECS_TOTAL.inc(status="evaluated")
                            stats.candidates_evaluated += 1
                            if outcome.scored is not None:
                                add_candidate(candidates, outcome.scored)
                        stats.merge_cache_counters(delta)
                        floor = _top_k_floor(candidates, config.top_k)
                        round_span.set(
                            floor=None if floor == float("-inf") else floor,
                            candidates=len(candidates),
                        )
                    _ROUND_SECONDS.observe(time.perf_counter() - round_started)
            finally:
                if pool is not None:
                    pool.shutdown(wait=True)
        # the parallelism the search ran with: a pool that failed left none
        stats.n_jobs = self.n_jobs if pool is not None else 1
        stats.wall_time_seconds = time.perf_counter() - started
        return rank_candidates(candidates), stats


def _fall_back(error: BaseException) -> None:
    """Count and warn about a pool failure that moves the search in process."""
    _FALLBACKS_TOTAL.inc()
    warnings.warn(
        f"process pool unavailable ({error!r}); falling back to serial search",
        RuntimeWarning,
        stacklevel=3,
    )


def _evaluate_specs(
    evaluator: CandidateEvaluator,
    specs: Sequence[CandidateSpec],
    known_signatures: frozenset,
) -> tuple[list[EvaluationOutcome], CacheCounters]:
    """Evaluate a batch of specs, reporting the cache-counter delta it caused."""
    before = evaluator.caches.counters()
    outcomes = [evaluator.evaluate(spec, known_signatures) for spec in specs]
    return outcomes, evaluator.caches.counters() - before


def _chunk_indices(count: int, n_jobs: int) -> list[tuple[int, ...]]:
    """At most ``2 * n_jobs`` contiguous, ordered index chunks over a round."""
    n_chunks = min(count, 2 * n_jobs)
    if n_chunks <= 1:
        return [tuple(range(count))]
    size, remainder = divmod(count, n_chunks)
    chunks = []
    start = 0
    for index in range(n_chunks):
        end = start + size + (1 if index < remainder else 0)
        chunks.append(tuple(range(start, end)))
        start = end
    return chunks


def _pool_round(
    pool: ProcessPoolExecutor,
    specs: Sequence[CandidateSpec],
    known_signatures: frozenset,
    n_jobs: int,
) -> tuple[list[EvaluationOutcome], CacheCounters]:
    """Evaluate one round over the pool's workers, outcomes in spec order."""
    tracer = get_tracer()
    trace_context = tracer.context() if tracer.enabled else None
    payloads = [
        (tuple(specs[position] for position in chunk), known_signatures, trace_context)
        for chunk in _chunk_indices(len(specs), n_jobs)
    ]
    outcomes: list[EvaluationOutcome] = []
    delta = CacheCounters()
    # map() yields in payload order and the chunks are contiguous, so
    # concatenation restores spec order — the reduce's tie-breaking must
    # match the in-process evaluation
    for chunk_outcomes, chunk_delta, chunk_spans in pool.map(_evaluate_batch, payloads):
        outcomes.extend(chunk_outcomes)
        delta = delta + chunk_delta
        tracer.absorb(chunk_spans)
    return outcomes, delta


# -- process-pool worker plumbing ------------------------------------------------

_WORKER_EVALUATOR: CandidateEvaluator | None = None


def _init_worker(pair: SnapshotPair, target: str, config: CharlesConfig) -> None:
    """Build this worker's evaluator over private in-process caches."""
    global _WORKER_EVALUATOR
    _WORKER_EVALUATOR = CandidateEvaluator(pair, target, config)


def _evaluate_batch(
    payload: tuple[tuple[CandidateSpec, ...], frozenset, tuple[str, str] | None],
) -> tuple[list[EvaluationOutcome], CacheCounters, list[dict]]:
    specs, known_signatures, trace_context = payload
    assert _WORKER_EVALUATOR is not None, "worker pool was not initialised"
    if trace_context is None:
        outcomes, delta = _evaluate_specs(_WORKER_EVALUATOR, specs, known_signatures)
        return outcomes, delta, []
    # the parent's (trace id, dispatching span id) rode the pickled payload;
    # adopt it so this chunk's spans join the search trace, buffer them, and
    # ship the records back with the outcomes for the parent to absorb
    tracer = get_tracer()
    with tracer.adopt(trace_context) as buffer:
        with tracer.span("worker.chunk", specs=len(specs), pid=os.getpid()):
            outcomes, delta = _evaluate_specs(_WORKER_EVALUATOR, specs, known_signatures)
        records = buffer.drain()
    return outcomes, delta, records
