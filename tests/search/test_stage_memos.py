"""Induction runs once per labelling, and a summary is built once per signature.

After clustering, two stages of a spec's evaluation often repeat work another
spec of the same run already did.  Condition induction reads the scope's
condition columns, its changed rows and the cluster labels, and reads the
partition count only as ``k > 1``: every k = 1 spec of a condition subset,
and every (T, w) that k-means maps to one labelling, induces the same
partitions.  Building, merging, refining and scoring a summary reads only
the partition signature, so specs whose partitions coincide share one
summary.  :class:`CandidateEvaluator` memoises both; these tests check that
each stage runs once per distinct input and that every outcome is still the
one a fresh evaluator gives for that spec alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CharlesConfig
from repro.core.partitioning import discover_partitions
from repro.obs.trace import BufferSink, disable_tracing, get_tracer
from repro.relational.snapshot import SnapshotPair
from repro.relational.table import Table
from repro.search import evaluator as evaluator_module
from repro.search.evaluator import PRUNED_DUPLICATE, CandidateEvaluator
from repro.search.planner import PARTITIONED, CandidateSpec
from repro.workloads import employee_pair

CONDITIONS = ("edu", "exp")
TRANSFORMATION_SUBSETS = (("bonus",), ("salary",), ("bonus", "salary"))
WEIGHTS = (1.0, 4.0)


@pytest.fixture()
def inductions(monkeypatch):
    """Records the scope size of every induction the evaluator runs."""
    calls = []
    original = evaluator_module.partitions_from_labels

    def spy(pair, *args, **kwargs):
        calls.append(int(np.count_nonzero(kwargs["scope"])))
        return original(pair, *args, **kwargs)

    monkeypatch.setattr(evaluator_module, "partitions_from_labels", spy)
    return calls


@pytest.fixture()
def summary_builds(monkeypatch):
    """Records the spec of every summary the evaluator builds."""
    calls = []
    original = CandidateEvaluator._partitioned_summary

    def spy(self, spec, partitions):
        calls.append(spec)
        return original(self, spec, partitions)

    monkeypatch.setattr(CandidateEvaluator, "_partitioned_summary", spy)
    return calls


def _round(partition_counts, conditions=CONDITIONS) -> list[CandidateSpec]:
    return [
        CandidateSpec(PARTITIONED, conditions, transformations, k, w)
        for transformations in TRANSFORMATION_SUBSETS
        for k in partition_counts
        for w in WEIGHTS
    ]


def _partitions(evaluator: CandidateEvaluator, spec: CandidateSpec):
    # a cache hit after the spec was evaluated: the partitions it used
    return evaluator._cached_partitions(
        evaluator._full_mask,
        spec.condition_subset,
        spec.transformation_subset,
        spec.n_partitions,
        spec.residual_weight,
    )


def _same_partitions(got, want) -> bool:
    return len(got) == len(want) and all(
        a.condition == b.condition
        and np.array_equal(a.mask, b.mask)
        and a.fidelity == b.fidelity
        and a.coverage == b.coverage
        for a, b in zip(got, want)
    )


def _from_scratch(pair, spec, config):
    return discover_partitions(
        pair,
        "bonus",
        spec.condition_subset,
        spec.transformation_subset,
        spec.n_partitions,
        config,
        residual_weight=spec.residual_weight,
    )


def _view(outcome):
    scored = outcome.scored
    return (
        outcome.signature,
        outcome.pruned_reason,
        None if scored is None else scored.describe(),
        None if scored is None else scored.score,
        None if scored is None else scored.n_partitions,
    )


class TestInductionMemo:
    def test_one_partition_round_induces_once(self, inductions):
        pair = employee_pair(120, seed=3)
        evaluator = CandidateEvaluator(pair, "bonus", CharlesConfig(refine_partitions=False))
        for spec in _round((1,)):
            evaluator.evaluate(spec)
        # 3 T subsets x 2 weights, one labelling (all zero) of one scope
        assert evaluator.caches.partitions.misses == 6
        assert inductions == [pair.num_rows]

    def test_each_condition_subset_induces_on_its_own(self, inductions):
        pair = employee_pair(120, seed=3)
        evaluator = CandidateEvaluator(pair, "bonus", CharlesConfig(refine_partitions=False))
        for conditions in (("edu",), ("exp",), CONDITIONS):
            for spec in _round((1,), conditions):
                evaluator.evaluate(spec)
        assert len(inductions) == 3

    def test_reused_induction_is_marked_on_the_span(self):
        pair = employee_pair(120, seed=3)
        evaluator = CandidateEvaluator(pair, "bonus", CharlesConfig(refine_partitions=False))
        sink = BufferSink()
        get_tracer().configure(sink)
        try:
            for spec in _round((1,))[:2]:
                evaluator.evaluate(spec)
        finally:
            disable_tracing()
        resolved = [r for r in sink.records if r["name"] == "partitions.resolve"]
        assert [r["attributes"]["induced"] for r in resolved] == [True, False]

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_every_spec_gets_the_from_scratch_partitions(self, refine, seed):
        pair = employee_pair(150, seed=seed, noise_fraction=0.05)
        config = CharlesConfig(refine_partitions=refine)
        evaluator = CandidateEvaluator(pair, "bonus", config)
        specs = _round((1, 2, 3)) + _round((2, 3), ("edu",))
        for spec in specs:
            evaluator.evaluate(spec)
        for spec in specs:
            want = _from_scratch(pair, spec, config)
            assert _same_partitions(_partitions(evaluator, spec), want), spec.describe()

    def test_scopes_with_equal_labellings_induce_apart(self, restricted_discovery):
        # two scopes of equal size with equally many changed rows: a k = 1
        # discovery labels both all-zero, so only the scope tells them apart
        pair = employee_pair(150, seed=3)
        config = CharlesConfig(refine_partitions=False)
        evaluator = CandidateEvaluator(pair, "bonus", config)
        changed = pair.changed_mask("bonus")
        changed_rows, unchanged_rows = np.nonzero(changed)[0], np.nonzero(~changed)[0]
        for part in (slice(0, 12), slice(12, 24)):
            scope_mask = np.zeros(pair.num_rows, dtype=bool)
            scope_mask[changed_rows[part]] = True
            scope_mask[unchanged_rows[part]] = True
            got = evaluator._cached_partitions(scope_mask, CONDITIONS, ("bonus",), 1)
            want = restricted_discovery(
                pair, scope_mask, "bonus", CONDITIONS, ("bonus",), 1, config
            )
            assert _same_partitions(got, want)

    @pytest.mark.parametrize("order", [(1, 2), (2, 1)])
    def test_partition_count_decides_whether_a_trivial_cluster_survives(self, order):
        # one changed row and a constant condition column: both counts label
        # the row 0 and induce the trivial condition, which only k = 1 keeps
        rows = [{"id": i, "c": 1.0, "x": float(i)} for i in range(8)]
        source = Table.from_rows(rows, primary_key="id")
        target = source.with_column("x", [99.0] + [float(i) for i in range(1, 8)])
        pair = SnapshotPair.align(source, target, key="id")
        config = CharlesConfig(refine_partitions=False)
        evaluator = CandidateEvaluator(pair, "x", config)
        for k in order:
            got = evaluator._cached_partitions(evaluator._full_mask, ("c",), ("x",), k)
            want = discover_partitions(pair, "x", ("c",), ("x",), k, config)
            assert _same_partitions(got, want), k
        assert len(discover_partitions(pair, "x", ("c",), ("x",), 1, config)) == 1
        assert discover_partitions(pair, "x", ("c",), ("x",), 2, config) == []


class TestSummaryMemo:
    def test_one_build_per_distinct_signature(self, summary_builds):
        pair = employee_pair(150, seed=11, noise_fraction=0.05)
        evaluator = CandidateEvaluator(pair, "bonus", CharlesConfig())
        outcomes = [evaluator.evaluate(spec) for spec in _round((1, 2, 3))]
        signatures = {outcome.signature for outcome in outcomes if outcome.signature}
        assert len(signatures) < len(outcomes)  # the round holds duplicates
        assert len(summary_builds) == len(signatures)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_outcomes_equal_a_fresh_evaluator_per_spec(self, seed):
        pair = employee_pair(150, seed=seed, noise_fraction=0.05)
        config = CharlesConfig()
        shared = CandidateEvaluator(pair, "bonus", config)
        for spec in _round((1, 2, 3)):
            alone = CandidateEvaluator(pair, "bonus", config).evaluate(spec)
            assert _view(shared.evaluate(spec)) == _view(alone), spec.describe()

    def test_earlier_round_signatures_still_prune_duplicates(self):
        pair = employee_pair(150, seed=3)
        evaluator = CandidateEvaluator(pair, "bonus", CharlesConfig())
        spec = _round((2,))[0]
        first = evaluator.evaluate(spec)
        again = evaluator.evaluate(spec, known_signatures=frozenset({first.signature}))
        assert first.scored is not None
        assert again.pruned_reason == PRUNED_DUPLICATE and again.scored is None
