"""The clustering input is built from blocks keyed by the changed rows it reads.

Partition discovery clusters the changed rows of a scope over one matrix: the
encoded condition attributes plus two residual features from a global
regression.  Min-max scaling works column by column, so the two blocks are
scaled apart and :class:`CandidateEvaluator` builds each once per pair: the
condition block per (C, changed rows) and the residual block per (target, T,
changed rows).  Only k-means depends on the partition count, and only a
multiply on the residual weight, so every spec of those rows clusters a
weighted copy, and the labels are memoised by (C, T, k, w, changed rows): a
refinement scope that holds every changed row reuses the top-level labels.
These tests check that each block is built once, that the assembled input
equals the joint matrix the engine built before the split bit for bit, that
each spec still gets exactly the partitions a from-scratch
:func:`discover_partitions` finds, and that a one-partition spec fits no
regression at all.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Charles, CharlesConfig
from repro.core import partitioning
from repro.core.partitioning import cluster_changed_rows, clustering_matrix, discover_partitions
from repro.exceptions import ModelFitError
from repro.ml.encoding import TableEncoder
from repro.ml.kmeans import KMeans
from repro.ml.linreg import LinearRegression
from repro.obs.trace import BufferSink, disable_tracing, get_tracer
from repro.relational.snapshot import SnapshotPair
from repro.relational.table import Table
from repro.search.cache import mask_digest
from repro.search.evaluator import CandidateEvaluator
from repro.search.planner import PARTITIONED, CandidateSpec
from repro.workloads import employee_pair

CONDITIONS = ("edu", "exp")
TRANSFORMATIONS = ("bonus",)


@pytest.fixture()
def residual_calls(monkeypatch):
    """Counts calls of the global residual regression behind every clustering input."""
    calls = []
    original = partitioning._global_residuals

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(partitioning, "_global_residuals", spy)
    return calls


def _round(partition_counts=(2, 3, 4), weights=(1.0, 4.0)) -> list[CandidateSpec]:
    return [
        CandidateSpec(PARTITIONED, CONDITIONS, TRANSFORMATIONS, k, w)
        for k in partition_counts
        for w in weights
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


class TestClusteringInputReuse:
    def test_one_round_builds_its_clustering_input_once(self, residual_calls):
        pair = employee_pair(120, seed=3)
        config = CharlesConfig(refine_partitions=False)
        evaluator = CandidateEvaluator(pair, "bonus", config)
        for spec in _round():
            evaluator.evaluate(spec)
        assert evaluator.caches.partitions.misses == 6
        assert len(residual_calls) == 1
        assert len(evaluator.caches.condition_features) == 1
        assert len(evaluator.caches.residual_features) == 1

    def test_condition_subsets_share_one_residual_block(self, residual_calls):
        pair = employee_pair(120, seed=3)
        evaluator = CandidateEvaluator(pair, "bonus", CharlesConfig(refine_partitions=False))
        for conditions in (("edu",), ("exp",), CONDITIONS):
            evaluator.evaluate(CandidateSpec(PARTITIONED, conditions, TRANSFORMATIONS, 2, 1.0))
        assert len(residual_calls) == 1
        assert len(evaluator.caches.condition_features) == 3

    def test_stored_input_is_read_only_and_never_weighted(self):
        pair = employee_pair(120, seed=3)
        evaluator = CandidateEvaluator(pair, "bonus", CharlesConfig(refine_partitions=False))
        evaluator.evaluate(_round(weights=(1.0,))[0])
        (conditions,) = evaluator.caches.condition_features.values()
        (residuals,) = evaluator.caches.residual_features.values()
        stored = (conditions, residuals)
        before = [block.copy() for block in stored]
        for spec in _round(weights=(4.0, 0.5)):
            evaluator.evaluate(spec)
        assert len(evaluator.caches.condition_features) == 1
        assert len(evaluator.caches.residual_features) == 1
        for block, copy in zip(stored, before):
            assert not block.flags.writeable
            assert block.tobytes() == copy.tobytes()

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_every_spec_gets_the_from_scratch_partitions(self, refine, seed):
        pair = employee_pair(150, seed=seed, noise_fraction=0.05)
        config = CharlesConfig(refine_partitions=refine)
        evaluator = CandidateEvaluator(pair, "bonus", config)
        specs = _round(partition_counts=(1, 2, 3, 4))
        for spec in specs:
            evaluator.evaluate(spec)
        for spec in specs:
            want = discover_partitions(
                pair,
                "bonus",
                spec.condition_subset,
                spec.transformation_subset,
                spec.n_partitions,
                config,
                residual_weight=spec.residual_weight,
            )
            assert _same_partitions(_partitions(evaluator, spec), want), spec.describe()

    def test_one_partition_spec_builds_no_clustering_input(self, residual_calls):
        pair = employee_pair(120, seed=3)
        evaluator = CandidateEvaluator(pair, "bonus", CharlesConfig(refine_partitions=False))
        evaluator.evaluate(CandidateSpec(PARTITIONED, CONDITIONS, TRANSFORMATIONS, 1, 1.0))
        assert residual_calls == []
        assert evaluator.caches.condition_features == {}
        assert evaluator.caches.residual_features == {}


class TestOnePartitionClustering:
    def test_calls_no_regression(self, monkeypatch):
        fits = []
        original = LinearRegression.fit

        def spy(self, *args, **kwargs):
            fits.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(LinearRegression, "fit", spy)
        pair = employee_pair(120, seed=3)
        changed_indices, labels = cluster_changed_rows(
            pair, "bonus", CONDITIONS, TRANSFORMATIONS, 1, CharlesConfig()
        )
        assert fits == []
        assert np.array_equal(changed_indices, np.nonzero(pair.changed_mask("bonus"))[0])
        assert labels.tolist() == [0] * changed_indices.size

    def test_input_builder_is_not_called(self):
        pair = employee_pair(60, seed=1)

        def unexpected(changed_indices):
            raise AssertionError("a one-partition clustering needs no input")

        clustered = cluster_changed_rows(
            pair, "bonus", CONDITIONS, TRANSFORMATIONS, 1, CharlesConfig(),
            clustering_input=unexpected,
        )
        assert clustered is not None


def _joint_clustering_matrix(pair, target, changed_indices, conditions, transformations, config):
    """The clustering input as one joint matrix, scaled at once: the oracle.

    This is the engine's clustering input before it was split into blocks,
    kept verbatim apart from inlining its two helpers.
    """
    changed_source = pair.source.take(changed_indices)
    new_values = pair.target.numeric_column(target)[changed_indices]
    features = changed_source.numeric_matrix(list(transformations))
    try:
        model = LinearRegression(ridge=config.ridge).fit(features, new_values)
        residuals = model.residuals(features, new_values)
    except ModelFitError:
        residuals = new_values - float(np.nanmean(new_values))
    residuals = np.where(np.isfinite(residuals), residuals, 0.0)
    old_values = changed_source.numeric_column(target)
    denominator = np.maximum(np.abs(np.where(np.isfinite(old_values), old_values, 0.0)), 1e-9)
    relative_residuals = residuals / denominator

    def winsorise(values):
        low, high = np.percentile(values, [2.0, 98.0])
        return np.clip(values, low, high)

    residual_features = np.column_stack([winsorise(residuals), winsorise(relative_residuals)])
    return TableEncoder(list(conditions)).fit_transform(
        changed_source,
        extra_features=residual_features,
        extra_names=("__residual_0__", "__residual_1__"),
    )


_finite = st.floats(-1e3, 1e3, allow_nan=False)
_cell = st.one_of(_finite, _finite, st.none(), st.sampled_from([float("inf"), float("-inf")]))


@st.composite
def _clustering_cases(draw):
    n = draw(st.integers(2, 24))
    levels = draw(st.sampled_from([("a",), ("a", "b"), ("a", "b", "c")]))
    category = ["a"] + draw(st.lists(st.sampled_from(levels + (None,)), min_size=n - 1, max_size=n - 1))
    if draw(st.booleans()):
        # a constant condition column, which scales to 0.5
        number = [draw(_finite)] * n
    else:
        number = [draw(_finite)] + draw(st.lists(_cell, min_size=n - 1, max_size=n - 1))
    feature = [draw(_finite)] + draw(st.lists(_cell, min_size=n - 1, max_size=n - 1))
    old = draw(st.lists(_finite, min_size=n, max_size=n))
    if draw(st.booleans()):
        # one shared shift: constant residual columns
        shift = draw(_finite.filter(lambda value: abs(value) > 1e-6))
        changes = [shift] * n
    else:
        changes = draw(st.lists(st.sampled_from([0.0, 0.0, 5.0, -2.5, 100.0]), min_size=n, max_size=n))
        changes[0] = 1.0
    new = [value + change for value, change in zip(old, changes)]
    source = Table.from_columns({"cat": category, "num": number, "t": feature, "y": old})
    pair = SnapshotPair.align(source, source.with_column("y", new))
    scope = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    scope[0] = True
    conditions = draw(st.lists(st.sampled_from(["cat", "num", "t"]), min_size=1, max_size=3, unique=True))
    transformations = draw(st.lists(st.sampled_from(["t", "y", "num"]), min_size=1, max_size=3, unique=True))
    return pair, scope, tuple(conditions), tuple(transformations)


def _signed_zero_case():
    """A condition column of -0.0 and +0.0 values.

    Scaled alone, its minimum used to come out +0.0 and inside the joint
    matrix -0.0, so the blocks differed from the joint matrix in sign bits.
    """
    t = [-0.0, 0.0, 0.0, -0.0, -0.0, 0.0, 0.0, 1.0, -0.0]
    old = [float(i) for i in range(len(t))]
    source = Table.from_columns({"cat": ["a"] * len(t), "num": [1.0] * len(t), "t": t, "y": old})
    pair = SnapshotPair.align(source, source.with_column("y", [value + 1.0 for value in old]))
    return pair, np.ones(len(t), dtype=bool), ("t",), ("t",)


class TestBlockAssembledInput:
    @settings(max_examples=150, deadline=None)
    @given(case=_clustering_cases())
    @example(case=_signed_zero_case())
    def test_blocks_equal_the_joint_matrix_bit_for_bit(self, case):
        pair, scope, conditions, transformations = case
        config = CharlesConfig()
        changed = np.nonzero(pair.changed_mask("y"))[0]
        want = _joint_clustering_matrix(pair, "y", changed, conditions, transformations, config)
        got = clustering_matrix(pair, "y", changed, conditions, transformations, config)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(case=_clustering_cases())
    def test_a_scope_reads_only_its_changed_rows(self, case):
        # the joint matrix of the pair cut down to the scope equals the blocks
        # read from the full pair at the scope's changed rows: the changed-row key
        pair, scope, conditions, transformations = case
        config = CharlesConfig()
        scope_pair = SnapshotPair(pair.source.mask(scope), pair.target.mask(scope), pair.key)
        want = _joint_clustering_matrix(
            scope_pair, "y", np.nonzero(scope_pair.changed_mask("y"))[0],
            conditions, transformations, config,
        )
        evaluator = CandidateEvaluator(pair, "y", config)
        changed = pair.changed_mask("y") & scope
        got = evaluator._clustering_input(
            conditions, transformations, np.flatnonzero(changed), mask_digest(changed)
        )
        assert got.tobytes() == want.tobytes()


class TestChangedRowLabelling:
    @pytest.fixture()
    def fits(self, monkeypatch):
        calls = []
        original = KMeans.fit

        def spy(self, points):
            calls.append(np.array(points))
            return original(self, points)

        monkeypatch.setattr(KMeans, "fit", spy)
        return calls

    def test_a_scope_holding_every_changed_row_adds_no_kmeans_fit(self, fits, restricted_discovery):
        pair = employee_pair(150, seed=3)
        config = CharlesConfig(refine_partitions=False)
        evaluator = CandidateEvaluator(pair, "bonus", config)
        evaluator.evaluate(CandidateSpec(PARTITIONED, CONDITIONS, TRANSFORMATIONS, 2, 1.0))
        assert len(fits) == 1
        # drop two unchanged rows: another scope, the same changed rows
        scope = np.ones(pair.num_rows, dtype=bool)
        scope[np.flatnonzero(~pair.changed_mask("bonus"))[:2]] = False
        got = evaluator._cached_partitions(scope, CONDITIONS, TRANSFORMATIONS, 2)
        assert len(fits) == 1
        want = restricted_discovery(pair, scope, "bonus", CONDITIONS, TRANSFORMATIONS, 2, config)
        assert _same_partitions(got, want)
        assert len(evaluator.caches.labellings) == 1

    def test_a_scope_missing_a_changed_row_clusters_again(self, fits, restricted_discovery):
        pair = employee_pair(150, seed=3)
        config = CharlesConfig(refine_partitions=False)
        evaluator = CandidateEvaluator(pair, "bonus", config)
        evaluator.evaluate(CandidateSpec(PARTITIONED, CONDITIONS, TRANSFORMATIONS, 2, 1.0))
        scope = np.ones(pair.num_rows, dtype=bool)
        scope[np.flatnonzero(pair.changed_mask("bonus"))[0]] = False
        got = evaluator._cached_partitions(scope, CONDITIONS, TRANSFORMATIONS, 2)
        assert len(fits) == 2
        want = restricted_discovery(pair, scope, "bonus", CONDITIONS, TRANSFORMATIONS, 2, config)
        assert _same_partitions(got, want)

    def test_a_refined_run_reuses_top_level_labels(self, fits):
        # refinement re-clusters a partition at k = 2, w = 1; when that
        # partition holds every changed row, it shares its labels with the
        # top-level spec of those (C, T, k, w), whichever of the two runs first
        pair = employee_pair(150, seed=3)
        sink = BufferSink()
        get_tracer().configure(sink)
        try:
            Charles(CharlesConfig()).summarize_pair(pair, "bonus")
        finally:
            disable_tracing()
        resolves = [r for r in sink.records if r["name"] == "partitions.resolve"]
        reused = [r for r in resolves if not r["attributes"]["clustered"]]
        assert reused
        clusters = [r for r in sink.records if r["name"] == "core.cluster"]
        assert len([r for r in clusters if r["attributes"]["k"] > 1]) == len(fits)
