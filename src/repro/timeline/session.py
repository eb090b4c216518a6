"""A long-lived ChARLES engine: one configuration, one set of caches, many runs.

One-shot :class:`~repro.core.charles.Charles` calls start cold — a fresh
:class:`~repro.search.cache.SearchCaches` per run.  :class:`EngineSession` is
the stateful counterpart: it owns one configuration and one
``SearchCaches``, and serves repeated ``summarize`` queries over evolving
data.

The caches hold two scopes.  The *memo* — per-mask fits, partition
discoveries, clustering inputs, inductions and built summaries — belongs to
the pair asked last: its keys name rows by mask digest, so the evaluator
drops it whenever the pair changes, and keeps it while the analyst re-asks
the same pair with another shortlist or target (the paper's Fig. 4
workflow), which then reuses most of the earlier run's work.  The hops of a
streaming chain each change a different row set, so no memo entry would
recur across them anyway (measured).  The memo stays in the session's
process.

What ``CharlesConfig.cache_backend`` carries out of the process is one
*result entry* per request: on disk (``cache_dir``), an exact repeat in a
fresh interpreter is served from the file; on a fleet cache server
(``cache_url``), from the fabric — with the remote client degrading to
misses (never to wrong results) whenever the server is unreachable.
``CharlesConfig.search_cache_capacity`` bounds that results store.

Every run of a session is the one-shot search with the session's caches: its
top-k pruning floor starts at ``-inf`` and rises with the run's own scores,
exactly as in a cold run, so rankings and pruning counts equal a cold run's
and only cache hits and wall time differ.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.core.charles import Charles, CharlesResult
from repro.core.config import CharlesConfig
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
        self._closed = False
        self._last_used = time.monotonic()
        self.runs_completed = 0

    def close(self) -> None:
        """Release the results store's resources (disk connections, sockets).

        Result entries in persistent backends survive: a future session with
        the same ``cache_dir`` serves the same requests from them.  Sessions are also context managers, so
        ``with Charles(config).session() as session: ...`` closes for you.

        Idempotent, and terminal: serving another query through a closed
        session raises :class:`~repro.exceptions.SessionClosedError` — its
        backend handles (SQLite connections, remote sockets) are gone, so
        long-lived deployments that tear idle sessions down on expiry
        (:class:`~repro.serving.registry.SessionRegistry`) never leak them.
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

        Fixed for the session's lifetime: memo keys carry no configuration,
        so work memoised under one configuration must never serve another.
        Start a new session to change parameters.
        """
        return self._config

    @property
    def caches(self) -> SearchCaches:
        """The session-wide caches (shared by every run)."""
        return self._caches

    def cache_counters(self) -> CacheCounters:
        """Cumulative cache counters across every run of the session."""
        return self._caches.counters()

    @property
    def warm_start_fallbacks(self) -> int:
        """Retired with warm-start floors; always 0."""
        return 0

    # -- serving ---------------------------------------------------------------

    def summarize_pair(
        self,
        pair: SnapshotPair,
        target: str,
        condition_attributes: Sequence[str] | None = None,
        transformation_attributes: Sequence[str] | None = None,
    ) -> CharlesResult:
        """Like :meth:`Charles.summarize_pair`, but warm.

        Serves an exact repeat from its result entry and otherwise reuses
        the memo of earlier runs on the same pair.  The ranking is
        byte-identical to a cold run on the same pair.
        """
        self._ensure_open()
        self.touch()
        with get_tracer().span("session.summarize", target=target):
            result = self._charles.summarize_pair(
                pair,
                target,
                condition_attributes=condition_attributes,
                transformation_attributes=transformation_attributes,
                caches=self._caches,
            )
        self.runs_completed += 1
        self.touch()
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

    def _unchanged_result(self, pair: SnapshotPair, target: str) -> CharlesResult:
        """The delta-driven short-circuit for hops that never touch the target.

        Mirrors the engine's degenerate "no change detected" path — same empty
        summary, same scoring — without rescanning the pair for attribute
        shortlists or planning a search.  The attribute shortlists are left
        empty: there is nothing to explain (the result's ``suggestions``
        still compute on first read).
        """
        if not pair.schema.column(target).is_numeric:
            raise DiscoveryError(f"target attribute {target!r} must be numeric")
        empty = ChangeSummary(target, (), label="no change detected")
        evaluator = CandidateEvaluator(pair, target, self._config)
        scored = evaluator.score_empty_summary(empty)
        return CharlesResult(
            pair=pair,
            target=target,
            summaries=(scored,),
            config=self._config,
            condition_attributes=(),
            transformation_attributes=(),
            total_candidates=1,
            search_stats=SearchStats(n_jobs=self._config.n_jobs),
        )
