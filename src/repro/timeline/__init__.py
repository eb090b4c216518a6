"""Incremental snapshot timelines: versioned data, deltas, warm engine sessions.

Timeline architecture
=====================

The pairwise pipeline explains one V1→V2 hop; real audit workloads are
*chains* of versions whose consecutive hops overlap heavily.  This package
turns the pipeline into a versioned, incremental system in three layers:

1. **Store** (:mod:`repro.timeline.store`) — :class:`TimelineStore` holds an
   ordered chain of named dataset versions, validated against the ChARLES
   snapshot contract and row-aligned *once at append time*, so any two
   versions form a :class:`~repro.relational.snapshot.SnapshotPair` without
   re-matching keys and row masks mean the same entities in every pair.

2. **Delta** (:mod:`repro.timeline.delta`) — :class:`VersionDelta` computes
   which rows and attributes actually changed in a hop.  Downstream work is
   driven by deltas, not full rescans: hops that never touch the target skip
   the search entirely, and the incremental diff builders materialise cell
   changes only for attributes that moved.

3. **Session** (:mod:`repro.timeline.session`) — :class:`EngineSession` owns
   one :class:`~repro.search.cache.SearchCaches` across runs: the memo of
   the pair asked last (dropped when the pair changes, so a re-ask of that
   pair with another shortlist or target reuses its work) and the results
   store that serves exact repeats.  Each run is otherwise the one-shot
   search, top-k floor included, so rankings stay **byte-identical** to cold
   per-pair runs; only wall time and cache hit rates differ.  ``benchmarks/bench_incremental.py``
   measures exactly that.

Typical use::

    from repro.timeline import EngineSession, TimelineStore

    store = TimelineStore(key="name")
    store.append("2016", t2016)
    store.append("2017", t2017)
    store.append("2018", t2018)

    session = EngineSession()
    timeline_result = session.summarize_timeline(store, target="bonus")
    print(timeline_result.describe())
"""

from repro.timeline.delta import AttributeDelta, VersionDelta
from repro.timeline.result import TimelineHop, TimelineResult
from repro.timeline.session import EngineSession
from repro.timeline.store import DatasetVersion, TimelineStore

__all__ = [
    "DatasetVersion",
    "TimelineStore",
    "AttributeDelta",
    "VersionDelta",
    "TimelineHop",
    "TimelineResult",
    "EngineSession",
]
