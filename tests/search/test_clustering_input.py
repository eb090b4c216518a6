"""The clustering input is built once per (C, T, scope) and reused across k and w.

Partition discovery clusters the changed rows of a scope over one matrix: the
encoded condition attributes plus two residual features from a global
regression.  Only k-means depends on the partition count, and only a multiply
depends on the residual weight, so :class:`CandidateEvaluator` builds the
matrix once per (condition subset, transformation subset, scope) and every
spec of that scope clusters a weighted copy.  These tests check that the
matrix is built once, that each spec still gets exactly the partitions a
from-scratch :func:`discover_partitions` finds, and that a one-partition
spec fits no regression at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CharlesConfig
from repro.core import partitioning
from repro.core.partitioning import cluster_changed_rows, discover_partitions
from repro.ml.linreg import LinearRegression
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
        evaluator._pair,
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

    def test_stored_input_is_read_only_and_never_weighted(self):
        pair = employee_pair(120, seed=3)
        evaluator = CandidateEvaluator(pair, "bonus", CharlesConfig(refine_partitions=False))
        evaluator.evaluate(_round(weights=(1.0,))[0])
        (stored,) = evaluator.caches.clustering_inputs.values()
        before = stored.copy()
        for spec in _round(weights=(4.0, 0.5)):
            evaluator.evaluate(spec)
        assert not stored.flags.writeable
        assert stored.tobytes() == before.tobytes()

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
        assert evaluator.caches.clustering_inputs == {}


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
