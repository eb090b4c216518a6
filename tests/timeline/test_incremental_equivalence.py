"""Property test: incremental (warm) timeline runs equal cold per-pair runs.

The timeline subsystem's hard invariant is that its performance mechanism —
persistent content-keyed caches — never changes results.  This test
generates random version chains (random roster, random per-hop update
policies including no-op hops) and asserts that ``summarize_timeline`` over
the chain produces byte-identical rankings to independent cold ``Charles``
runs on every pair, including under a tiny cache capacity that forces
constant eviction mid-chain.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Charles, CharlesConfig
from repro.relational.table import Table
from repro.timeline import EngineSession, TimelineStore

_EDUCATIONS = ["BS", "MS", "PhD"]


@st.composite
def version_chains(draw) -> TimelineStore:
    """A 3–4 version chain of a small roster under random group updates.

    Each hop multiplies/shifts the bonus of one education group (possibly a
    no-op hop, exercising the delta short-circuit), so chains mix localised
    change, overlapping change and untouched versions.
    """
    n = draw(st.integers(8, 16))
    rows = []
    for index in range(n):
        rows.append(
            {
                "id": f"r{index}",
                "edu": draw(st.sampled_from(_EDUCATIONS)),
                "exp": draw(st.integers(0, 12)),
                "bonus": float(draw(st.integers(1_000, 30_000))),
            }
        )
    table = Table.from_rows(rows, primary_key="id")
    store = TimelineStore()
    store.append("v1", table)
    num_hops = draw(st.integers(2, 3))
    for hop in range(num_hops):
        kind = draw(st.integers(0, 3))
        if kind == 3:
            updated = table  # no-op hop: the target is untouched
        else:
            group = _EDUCATIONS[kind]
            factor = draw(st.sampled_from([1.02, 1.05, 1.1]))
            shift = float(draw(st.sampled_from([0, 250, 1000])))
            bonus = np.array(table.column("bonus"), dtype=float)
            members = np.array([edu == group for edu in table.column("edu")])
            bonus = np.where(members, np.round(factor * bonus + shift, 2), bonus)
            updated = table.with_column("bonus", [float(b) for b in bonus])
        store.append(f"v{hop + 2}", updated)
        table = updated
    return store


def _cold_rankings(store: TimelineStore, config: CharlesConfig):
    rankings = []
    for _, _, pair in store.consecutive_pairs():
        result = Charles(config).summarize_pair(pair, "bonus")
        rankings.append([(s.summary.describe(), s.score) for s in result.summaries])
    return rankings


# small caps keep the candidate space (and runtime) per example modest
_FAST = dict(max_partitions=2, top_k=3, max_condition_attributes=2)


class TestIncrementalEqualsCold:
    @given(version_chains())
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_warm_timeline_equals_cold_pairs(self, store: TimelineStore):
        config = CharlesConfig(**_FAST)
        warm = EngineSession(config).summarize_timeline(store, "bonus")
        assert warm.rankings() == _cold_rankings(store, config)

    @given(version_chains())
    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_equality_survives_cache_evictions(self, store: TimelineStore):
        # the capacity bounds the results store; chains have 2-3 hops, so
        # only a one-entry store is sure to evict
        config = CharlesConfig(search_cache_capacity=1, **_FAST)
        session = EngineSession(config)
        warm = session.summarize_timeline(store, "bonus")
        assert warm.rankings() == _cold_rankings(store, config)


@st.composite
def revision_chains(draw) -> TimelineStore:
    """Chains mixing bonus-policy hops with metadata-correction hops.

    Correction hops revise ``edu``/``exp`` without touching the target:
    serving the chain's versions against a fixed endpoint moves the *source*
    side of the pair by exactly those sparse corrections, so content keys over
    condition attributes rotate while the changed-row set may not.
    """
    n = draw(st.integers(8, 14))
    rows = []
    for index in range(n):
        rows.append(
            {
                "id": f"r{index}",
                "edu": draw(st.sampled_from(_EDUCATIONS)),
                "exp": float(draw(st.integers(0, 12))),
                "bonus": float(draw(st.integers(1_000, 30_000))),
            }
        )
    table = Table.from_rows(rows, primary_key="id")
    store = TimelineStore()
    store.append("v1", table)
    for hop in range(draw(st.integers(2, 3))):
        if draw(st.booleans()):
            group = draw(st.sampled_from(_EDUCATIONS))
            factor = draw(st.sampled_from([1.05, 1.1]))
            bonus = np.array(table.column("bonus"), dtype=float)
            members = np.array([edu == group for edu in table.column("edu")])
            bonus = np.where(members, np.round(factor * bonus, 2), bonus)
            updated = table.with_column("bonus", [float(b) for b in bonus])
        else:
            # metadata correction: the target is untouched
            row = draw(st.integers(0, n - 1))
            exp = np.array(table.column("exp"), dtype=float)
            exp[row] += 1.0
            updated = table.with_column("exp", [float(e) for e in exp])
        store.append(f"v{hop + 2}", updated)
        table = updated
    return store


class TestMaintainedProvenanceSweepEqualsCold:
    """Serving every version against the chain's endpoint, one warm session.

    Each sweep step summarises ``(v_i, v_latest)``; between steps the pair's
    source moves by one hop's delta, so the session's caches see rotated
    partition keys and untouched keys in random mixture — and
    must deliver cold rankings through all of them.
    """

    @given(revision_chains())
    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_sweep_rankings_equal_cold_runs(self, store: TimelineStore):
        config = CharlesConfig(**_FAST)
        session = EngineSession(config)
        latest = store.latest.name
        for name in store.names[:-1]:
            pair = store.pair(name, latest)
            warm = session.summarize_pair(pair, "bonus")
            cold = Charles(config).summarize_pair(pair, "bonus")
            warm_ranking = [(s.summary.describe(), s.score) for s in warm.summaries]
            cold_ranking = [(s.summary.describe(), s.score) for s in cold.summaries]
            assert warm_ranking == cold_ranking
