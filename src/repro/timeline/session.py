"""A long-lived ChARLES engine: persistent caches and warm-started search.

One-shot :class:`~repro.core.charles.Charles` calls start cold — a fresh
:class:`~repro.search.cache.SearchCaches` per run — even though the caches are
content-keyed and much of the work recurs when summarising V2→V3 right after
V1→V2.  :class:`EngineSession` is the stateful counterpart: it owns one
configuration, one set of memo caches and the warm-start floors, and serves
repeated ``summarize`` queries over evolving data — the serving shape the
roadmap's sharding and long-running-deployment goals need.

Two mechanisms make warm runs cheaper, neither of which may change results:

* **Cache persistence.**  Cache keys hash the exact column values a
  computation reads (:class:`~repro.search.cache.PairFingerprints`), so a fit
  or partition discovery from a previous run is reused iff its input rows are
  untouched in the new pair — delta-driven invalidation with zero bookkeeping.
  Stale entries cannot be hit (their keys are never requested again) and age
  out of the LRU when ``CharlesConfig.search_cache_capacity`` is set.
  Where entries live follows ``CharlesConfig.cache_backend``: in process by
  default, in a cross-process shared store so parallel workers reuse each
  other's work, on disk (``cache_dir``) so a session started in a fresh
  interpreter begins warm from its predecessor's entries, or on a fleet
  cache server (``cache_url``) so sessions on *different machines* pool
  their work — with the remote client degrading to misses (never to wrong
  results) whenever the server is unreachable.

* **Warm-started pruning floors.**  The score-bound pruning of the search
  normally starts from ``-inf`` and tightens as candidates accumulate.  A
  session seeds the floor with the previous run's k-th best score for the same
  target (minus ``warm_start_margin``), so hopeless candidates are dropped
  from round 0.  Soundness is *verified*, not assumed: pruning with a seed
  ``F`` provably preserves the top-k iff the run's final k-th best score is at
  least ``F`` (every extra-pruned candidate had a score upper bound, hence a
  score, strictly below ``F``).  When verification fails — the new pair's
  score landscape dropped below the seed — the session transparently re-runs
  with an open floor.  Byte-identical rankings versus a cold run are therefore
  a hard invariant, fallback or not.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.core.charles import Charles, CharlesResult
from repro.core.config import CharlesConfig
from repro.core.setup_assistant import SetupSuggestions
from repro.core.summary import ChangeSummary
from repro.exceptions import DiscoveryError, SessionClosedError
from repro.obs.trace import configure_tracing, get_tracer
from repro.relational.snapshot import SnapshotPair
from repro.search.cache import CacheCounters, SearchCaches
from repro.search.evaluator import CandidateEvaluator
from repro.search.stats import SearchStats
from repro.timeline.delta import VersionDelta
from repro.timeline.result import TimelineHop, TimelineResult
from repro.timeline.store import TimelineStore

__all__ = ["EngineSession"]

_COLD = float("-inf")


class EngineSession:
    """A stateful ChARLES engine serving repeated queries over evolving data."""

    def __init__(self, config: CharlesConfig | None = None):
        self._config = config or CharlesConfig()
        if self._config.trace_path:
            # idempotent: joins the already-configured trace when the CLI (or
            # an earlier session in this process) opened one
            configure_tracing(self._config.trace_path)
        self._charles = Charles(self._config)
        self._caches = SearchCaches.from_config(self._config)
        self._floors: dict[str, float] = {}
        self._closed = False
        self._last_used = time.monotonic()
        self.runs_completed = 0
        self.warm_start_fallbacks = 0

    def close(self) -> None:
        """Release the caches' backend resources (disk connections, managers).

        Entries in persistent backends survive: a future session with the same
        ``cache_dir`` starts warm.  Sessions are also context managers, so
        ``with Charles(config).session() as session: ...`` closes for you.

        Idempotent, and terminal: serving another query through a closed
        session raises :class:`~repro.exceptions.SessionClosedError` — its
        backend handles (SQLite connections, manager processes, remote
        sockets) are gone, so long-lived deployments that tear idle sessions
        down on expiry (:class:`~repro.serving.registry.SessionRegistry`)
        never leak them.
        """
        if self._closed:
            return
        self._closed = True
        self._caches.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (the session no longer serves queries)."""
        return self._closed

    @property
    def idle_seconds(self) -> float:
        """Seconds since this session last started or finished serving a query.

        The expiry signal for lease-holding deployments: a registry sweeps
        sessions whose ``idle_seconds`` exceeds its TTL and :meth:`close`\\ s
        them, so abandoned tenants do not pin cache backends forever.
        """
        return time.monotonic() - self._last_used

    def touch(self) -> None:
        """Reset the idle clock (queries do this on entry and exit)."""
        self._last_used = time.monotonic()

    def _ensure_open(self) -> None:
        if self._closed:
            raise SessionClosedError(
                "this engine session is closed (its cache backends are "
                "released); create a new session to keep querying"
            )

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection ---------------------------------------------------------

    @property
    def config(self) -> CharlesConfig:
        """The configuration every run of this session uses.

        Fixed for the session's lifetime: the memo caches key on data content,
        not on configuration, so results cached under one configuration must
        never serve another.  Start a new session to change parameters.
        """
        return self._config

    @property
    def caches(self) -> SearchCaches:
        """The session-wide memo caches (shared by every run)."""
        return self._caches

    def cache_counters(self) -> CacheCounters:
        """Cumulative cache counters across every run of the session."""
        return self._caches.counters()

    def warm_floor(self, target: str) -> float | None:
        """The pruning-floor seed the next run for ``target`` would use."""
        if not (self._config.warm_start and self._config.prune_search):
            return None
        floor = self._floors.get(target)
        if floor is None:
            return None
        return floor - self._config.warm_start_margin

    # -- serving ---------------------------------------------------------------

    def summarize_pair(
        self,
        pair: SnapshotPair,
        target: str,
        condition_attributes: Sequence[str] | None = None,
        transformation_attributes: Sequence[str] | None = None,
    ) -> CharlesResult:
        """Like :meth:`Charles.summarize_pair`, but warm.

        Reuses every memo-cache entry from earlier runs whose input rows are
        untouched, seeds the pruning floor from the previous run on the same
        target, and verifies the floor seed afterwards (re-running with an
        open floor when it proved too aggressive).  The ranking is
        byte-identical to a cold run on the same pair.
        """
        self._ensure_open()
        self.touch()
        tracer = get_tracer()
        floor = self.warm_floor(target)
        seed = _COLD if floor is None else floor
        with tracer.span(
            "session.summarize", target=target, warm=seed != _COLD
        ) as session_span:
            try:
                result = self._charles.summarize_pair(
                    pair,
                    target,
                    condition_attributes=condition_attributes,
                    transformation_attributes=transformation_attributes,
                    caches=self._caches,
                    initial_floor=seed,
                )
            except DiscoveryError:
                if seed == _COLD:
                    raise
                # the extreme form of an overshooting seed: a floor above every
                # spec's score bound prunes the entire plan before discovery, so
                # the run yields no candidates at all instead of a short ranking
                result = None
            if seed != _COLD and (result is None or not self._floor_verified(result, seed)):
                # the seed exceeded this run's true k-th best score, so pruning may
                # have dropped genuine top-k members: redo with an open floor (the
                # caches are warm, so the retry costs far less than a cold run)
                self.warm_start_fallbacks += 1
                session_span.set(fallback=True)
                aborted_seconds = (
                    result.search_stats.wall_time_seconds
                    if result is not None and result.search_stats
                    else 0.0
                )
                with tracer.span("session.warm_fallback", target=target, seed=seed):
                    result = self._charles.summarize_pair(
                        pair,
                        target,
                        condition_attributes=condition_attributes,
                        transformation_attributes=transformation_attributes,
                        caches=self._caches,
                        initial_floor=_COLD,
                    )
                if result.search_stats is not None:
                    result.search_stats.warm_start_floor = seed
                    result.search_stats.warm_start_fallback = True
                    result.search_stats.wall_time_seconds += aborted_seconds
        self.runs_completed += 1
        self.touch()
        self._remember_floor(target, result)
        return result

    def summarize_timeline(
        self,
        timeline: TimelineStore,
        target: str,
        condition_attributes: Sequence[str] | None = None,
        transformation_attributes: Sequence[str] | None = None,
        window: int = 1,
    ) -> TimelineResult:
        """Summarise every hop of a version chain with one warm engine.

        Each hop's :class:`~repro.timeline.delta.VersionDelta` is computed
        first and drives the work: hops that never touch ``target`` are
        resolved without shortlisting attributes or planning a search, and
        hops that do are served by :meth:`summarize_pair` with all the
        session's warmth.  Rankings per hop are byte-identical to independent
        cold ``Charles`` runs on the same pairs.
        """
        self._ensure_open()
        tracer = get_tracer()
        hops: list[TimelineHop] = []
        for source, target_version, pair in timeline.windowed_pairs(window):
            delta = VersionDelta.from_pair(pair, source.name, target_version.name)
            with tracer.span(
                "timeline.hop",
                source=source.name,
                version=target_version.name,
                skipped=target not in delta,
            ):
                if target in delta:
                    result = self.summarize_pair(
                        pair,
                        target,
                        condition_attributes=condition_attributes,
                        transformation_attributes=transformation_attributes,
                    )
                else:
                    result = self._unchanged_result(pair, target)
            hops.append(TimelineHop(source.name, target_version.name, delta, result))
        return TimelineResult(target=target, hops=tuple(hops))

    # -- internals -------------------------------------------------------------

    def _floor_verified(self, result: CharlesResult, seed: float) -> bool:
        """Whether the seeded floor provably preserved the top-k."""
        top_k = self._config.top_k
        summaries = result.summaries
        return len(summaries) >= top_k and summaries[top_k - 1].score >= seed

    def _remember_floor(self, target: str, result: CharlesResult) -> None:
        top_k = self._config.top_k
        if len(result.summaries) >= top_k:
            self._floors[target] = result.summaries[top_k - 1].score

    def _unchanged_result(self, pair: SnapshotPair, target: str) -> CharlesResult:
        """The delta-driven short-circuit for hops that never touch the target.

        Mirrors the engine's degenerate "no change detected" path — same empty
        summary, same scoring — without rescanning the pair for attribute
        shortlists or planning a search.  The attribute shortlists are left
        empty: there is nothing to explain.
        """
        if not pair.schema.column(target).is_numeric:
            raise DiscoveryError(f"target attribute {target!r} must be numeric")
        empty = ChangeSummary(target, (), label="no change detected")
        evaluator = CandidateEvaluator(pair, target, self._config)
        scored = evaluator.score_empty_summary(empty)
        return CharlesResult(
            pair=pair,
            target=target,
            suggestions=SetupSuggestions(
                target=target, condition_candidates=(), transformation_candidates=()
            ),
            summaries=(scored,),
            config=self._config,
            condition_attributes=(),
            transformation_attributes=(),
            total_candidates=1,
            search_stats=SearchStats(n_jobs=self._config.n_jobs),
        )
