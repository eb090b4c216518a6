"""Executors: how and where the planned candidate space gets evaluated.

An executor takes a :class:`~repro.search.planner.SearchPlan` and returns the
deduplicated, ranked candidate list plus a
:class:`~repro.search.stats.SearchStats` record.  The base class owns the
round loop, the deterministic reduce (structural-key deduplication in spec
order, then ranking) and the top-k floor used for pruning; subclasses only
decide how the specs *within* one round are evaluated:

* :class:`SerialExecutor` — one in-process evaluator whose memo spans
  the whole search.  The default (``CharlesConfig.n_jobs == 1``).
* :class:`ParallelExecutor` — a ``ProcessPoolExecutor`` of ``n_jobs`` workers,
  each holding its own evaluator and caches.  Selected with
  ``CharlesConfig.n_jobs > 1``.

Both executors produce byte-identical rankings.  The top-k floor (which
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

__all__ = ["SearchExecutor", "SerialExecutor", "ParallelExecutor", "select_executor"]

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
    """Template for executors: the round loop and the deterministic reduce.

    The base class also owns pre-discovery bound pruning (on whenever
    ``config.prune_search`` is and the plan is non-empty): a
    :class:`~repro.search.bounds.ScoreBoundIndex` is built once per search,
    and specs whose admissible score bound falls below the round's frozen
    floor are counted as pruned *here*, so they never reach ``_run_round`` —
    no partition discovery, no fit, no cache lookup.  The survivors keep
    their plan order, so tie-breaking (and therefore the ranking) is
    byte-identical to the unpruned path.
    """

    n_jobs: int = 1

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
        outlive one search; in-process executors use them directly, while the
        process-pool executor uses them only on its serial fallback path —
        its workers keep private caches.  The evaluator scopes them to
        ``pair``: entries of another pair are dropped first.

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
        stats = SearchStats(
            candidates_enumerated=len(plan),
            n_jobs=self.n_jobs,
            rounds=plan.num_rounds,
        )
        candidates: dict[tuple, ScoredSummary] = {}
        signatures: set = set()
        floor = float("-inf")
        with tracer.span(
            "search",
            target=target,
            specs=len(plan),
            rounds=plan.num_rounds,
            executor=type(self).__name__,
            n_jobs=self.n_jobs,
        ):
            # bound pruning is a top-k skip, so `prune_search` switches it off;
            # the index reads only the pair state, so it is identical across
            # executors (serial/parallel prune the same specs)
            bound_index = (
                ScoreBoundIndex(pair, target, config)
                if config.prune_search and len(plan)
                else None
            )
            stats.bound_pruning = bound_index is not None
            self._setup(pair, target, config, caches)
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
                        if run_specs:
                            with tracer.span(
                                "round.dispatch", specs=len(run_specs)
                            ):
                                outcomes, delta = self._run_round(
                                    run_specs, frozenset(signatures)
                                )
                        else:
                            outcomes, delta = [], CacheCounters()
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
                self._teardown()
        stats.n_jobs = self._effective_n_jobs()
        stats.wall_time_seconds = time.perf_counter() - started
        return rank_candidates(candidates), stats

    def _effective_n_jobs(self) -> int:
        """The parallelism the search actually ran with (see ParallelExecutor)."""
        return self.n_jobs

    # -- subclass hooks ----------------------------------------------------------

    def _setup(
        self,
        pair: SnapshotPair,
        target: str,
        config: CharlesConfig,
        caches: SearchCaches | None = None,
    ) -> None:
        raise NotImplementedError

    def _run_round(
        self,
        specs: Sequence[CandidateSpec],
        known_signatures: frozenset,
    ) -> tuple[list[EvaluationOutcome], CacheCounters]:
        raise NotImplementedError

    def _teardown(self) -> None:
        pass


def _evaluate_specs(
    evaluator: CandidateEvaluator,
    specs: Sequence[CandidateSpec],
    known_signatures: frozenset,
) -> tuple[list[EvaluationOutcome], CacheCounters]:
    """Evaluate a batch of specs, reporting the cache-counter delta it caused."""
    before = evaluator.caches.counters()
    outcomes = [evaluator.evaluate(spec, known_signatures) for spec in specs]
    return outcomes, evaluator.caches.counters() - before


class SerialExecutor(SearchExecutor):
    """Evaluates every spec in order, in process, with a search-wide memo."""

    n_jobs = 1

    def _setup(
        self,
        pair: SnapshotPair,
        target: str,
        config: CharlesConfig,
        caches: SearchCaches | None = None,
    ) -> None:
        self._evaluator = CandidateEvaluator(pair, target, config, caches)

    def _run_round(
        self,
        specs: Sequence[CandidateSpec],
        known_signatures: frozenset,
    ) -> tuple[list[EvaluationOutcome], CacheCounters]:
        return _evaluate_specs(self._evaluator, specs, known_signatures)

    def _teardown(self) -> None:
        self._evaluator = None


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


class ParallelExecutor(SearchExecutor):
    """Fans each round out over a process pool; falls back to serial if pools fail.

    Workers are initialised once per search with the (pickled) pair, target
    and configuration; their evaluators live for the whole search, so
    cross-round reuse happens within each worker.
    """

    def __init__(self, n_jobs: int):
        if n_jobs < 2:
            raise ValueError(f"ParallelExecutor needs n_jobs >= 2, got {n_jobs}")
        self.n_jobs = n_jobs
        self._pool: ProcessPoolExecutor | None = None
        self._fallback: CandidateEvaluator | None = None
        self._search_context: tuple[SnapshotPair, str, CharlesConfig] | None = None
        self._session_caches: SearchCaches | None = None

    def _setup(
        self,
        pair: SnapshotPair,
        target: str,
        config: CharlesConfig,
        caches: SearchCaches | None = None,
    ) -> None:
        self._fallback = None
        self._search_context = (pair, target, config)
        # in-process caches cannot cross the process boundary: they serve
        # only the serial fallback path
        self._session_caches = caches
        # imported here: a serial search never loads the pool machinery
        from concurrent.futures import ProcessPoolExecutor

        try:
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_jobs,
                initializer=_init_worker,
                initargs=(pair, target, config),
            )
        except (OSError, PermissionError, RuntimeError) as error:
            self._fall_back_to_serial(error)

    def _fall_back_to_serial(self, error: BaseException) -> None:
        """Abandon the pool and finish the search with an in-process evaluator.

        Pool failures surface either at construction or — more commonly, since
        workers spawn lazily — as a broken pool mid-``map`` (a worker killed by
        the OS, an unpicklable payload).  Evaluation is pure given the round's
        signature set, so re-running the interrupted round serially
        yields the same outcomes the workers would have produced.
        """
        _FALLBACKS_TOTAL.inc()
        warnings.warn(
            f"process pool unavailable ({error!r}); falling back to serial search",
            RuntimeWarning,
            stacklevel=3,
        )
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        assert self._search_context is not None
        pair, target, config = self._search_context
        self._fallback = CandidateEvaluator(pair, target, config, self._session_caches)

    def _effective_n_jobs(self) -> int:
        return 1 if self._fallback is not None else self.n_jobs

    def _run_round(
        self,
        specs: Sequence[CandidateSpec],
        known_signatures: frozenset,
    ) -> tuple[list[EvaluationOutcome], CacheCounters]:
        if self._pool is not None:
            from concurrent.futures.process import BrokenProcessPool

            tracer = get_tracer()
            trace_context = tracer.context() if tracer.enabled else None
            payloads = [
                (
                    tuple(specs[position] for position in chunk),
                    known_signatures,
                    trace_context,
                )
                for chunk in self._chunk_indices(len(specs))
            ]
            outcomes: list[EvaluationOutcome] = []
            delta = CacheCounters()
            try:
                # map() yields in payload order and the chunks are contiguous,
                # so concatenation restores spec order — the reduce's
                # tie-breaking must match the serial executor
                for chunk_outcomes, chunk_delta, chunk_spans in self._pool.map(
                    _evaluate_batch, payloads
                ):
                    outcomes.extend(chunk_outcomes)
                    delta = delta + chunk_delta
                    tracer.absorb(chunk_spans)
                return outcomes, delta
            except (BrokenProcessPool, OSError, pickle.PicklingError) as error:
                self._fall_back_to_serial(error)
        assert self._fallback is not None
        return _evaluate_specs(self._fallback, specs, known_signatures)

    def _chunk_indices(self, count: int) -> list[tuple[int, ...]]:
        """At most ``2 * n_jobs`` contiguous, ordered index chunks over a round."""
        n_chunks = min(count, 2 * self.n_jobs)
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

    def _teardown(self) -> None:
        # _fallback is kept: _effective_n_jobs reads it after the round loop,
        # and the next _setup overwrites it anyway
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def select_executor(config: CharlesConfig) -> SearchExecutor:
    """The executor implied by ``config.n_jobs`` (1 = serial, >1 = process pool)."""
    if config.n_jobs == 1:
        return SerialExecutor()
    return ParallelExecutor(config.n_jobs)
