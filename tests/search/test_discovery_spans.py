"""Partition discovery names its clustering and induction stages in the trace.

``_discover_partitions`` opens a ``core.cluster`` span around clustering and,
when induction runs, a ``core.induce`` span around it, both under
``partitions.resolve`` and named like perfbench's layers.  A ``core.cluster``
span with ``k > 1`` stands for exactly one k-means fit.  Refinement runs
under a ``search.refine`` span, so a sub-scope ``partitions.resolve`` is its
child.  Tracing never changes a ranking.
"""

from __future__ import annotations

import pytest

from repro.core import Charles, CharlesConfig
from repro.ml.kmeans import KMeans
from repro.obs.trace import BufferSink, disable_tracing, get_tracer
from repro.workloads import employee_pair


@pytest.fixture()
def fits(monkeypatch):
    """Counts every ``KMeans.fit`` call."""
    calls = []
    original = KMeans.fit

    def spy(self, points):
        calls.append(self.n_clusters)
        return original(self, points)

    monkeypatch.setattr(KMeans, "fit", spy)
    return calls


def _traced_summarize(pair):
    sink = BufferSink()
    get_tracer().configure(sink)
    try:
        result = Charles(CharlesConfig()).summarize_pair(pair, "bonus")
    finally:
        disable_tracing()
    return result, sink.records


class TestDiscoverySpans:
    def test_cluster_spans_with_k_above_one_are_the_kmeans_fits(self, fits):
        _, records = _traced_summarize(employee_pair(150, seed=3))
        clusters = [r for r in records if r["name"] == "core.cluster"]
        fitted = [r for r in clusters if r["attributes"]["k"] > 1]
        assert fitted and len(fitted) == len(fits)
        assert sorted(r["attributes"]["k"] for r in fitted) == sorted(fits)
        for record in clusters:
            assert set(record["attributes"]) == {"k", "weight", "rows", "width"}
        for record in fitted:
            assert record["attributes"]["rows"] >= record["attributes"]["k"]
            assert record["attributes"]["width"] > 2  # conditions plus 2 residuals

    def test_stage_spans_sit_under_partitions_resolve(self):
        _, records = _traced_summarize(employee_pair(150, seed=3))
        resolves = {r["span"]: r for r in records if r["name"] == "partitions.resolve"}
        stages = [r for r in records if r["name"] in ("core.cluster", "core.induce")]
        assert {r["name"] for r in stages} == {"core.cluster", "core.induce"}
        assert all(r["parent"] in resolves for r in stages)
        # every resolution clusters and induces exactly when it says so: a
        # reused labelling opens no `core.cluster` span
        for span_id, resolve in resolves.items():
            children = [r["name"] for r in stages if r["parent"] == span_id]
            clustered = ["core.cluster"] if resolve["attributes"]["clustered"] else []
            induced = ["core.induce"] if resolve["attributes"]["induced"] else []
            assert sorted(children) == [*clustered, *induced]

    def test_refinement_resolves_sit_under_search_refine(self):
        _, records = _traced_summarize(employee_pair(150, seed=3))
        refines = {r["span"]: r for r in records if r["name"] == "search.refine"}
        resolves = [r for r in records if r["name"] == "partitions.resolve"]
        sub_scopes = [r for r in resolves if not r["attributes"]["top_level"]]
        assert refines and sub_scopes
        assert all(r["parent"] in refines for r in sub_scopes)
        assert not any(r["parent"] in refines for r in resolves if r["attributes"]["top_level"])
        for record in refines.values():
            assert set(record["attributes"]) == {"partitions", "refined"}

    def test_rankings_equal_with_tracing_on_and_off(self):
        pair = employee_pair(150, seed=3)
        traced, _ = _traced_summarize(pair)
        untraced = Charles(CharlesConfig()).summarize_pair(pair, "bonus")
        assert traced.describe() == untraced.describe()
        assert [s.score for s in traced.summaries] == [s.score for s in untraced.summaries]
