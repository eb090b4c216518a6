"""Evaluating one candidate spec: partitions, fits, merge, refine, score.

This module holds the model-fitting heart of the diff discovery engine, moved
out of :class:`~repro.core.discovery.DiffDiscoveryEngine` so that any executor
— serial or parallel — can evaluate :class:`~repro.search.planner.CandidateSpec`\\ s
through one shared, cache-aware code path.  A :class:`CandidateEvaluator` is
bound to a single ``(pair, target, config)`` triple; every partition discovery
and per-mask regression fit it performs is memoised in its
:class:`~repro.search.cache.SearchCaches`, so work that recurs across specs
(identical partition masks at different ``k``/residual weights, union masks
re-fitted during merging, refinement re-clustering the same sub-table) is done
once.  Three more memos live as long as the evaluator, are plain dicts and
change no outcome:

* the *clustering input* of a scope, by (C, T, scope content token): every
  partition count and residual weight clusters the same matrix;
* the *induced partitions*, by (C, scope mask, ``k > 1``, labels): condition
  induction reads neither T nor w, and reads k only through ``k > 1``, so
  every k = 1 spec of a C subset and every (T, w) that k-means maps to the
  same labelling shares one induction;
* the *scored summary* of a partition signature: specs of one round whose
  partitions coincide build and score one summary.

One kind of pruning happens here, and it is exact: if a spec's discovered
partitions (conditions + masks) are identical to those of a spec evaluated
in an earlier round, the downstream computation is fully deterministic, so
the resulting summary would be a byte-identical duplicate; the spec is
skipped outright.  The top-k floor is not an input: specs that provably
cannot reach it are skipped by the executor before they get here (see
:mod:`repro.search.bounds`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.cachestore import MISSING
from repro.core.condition import Condition
from repro.core.config import CharlesConfig
from repro.core.partitioning import (
    Partition,
    cluster_changed_rows,
    clustering_matrix,
    induce_condition,
    partitions_from_labels,
)
from repro.core.scoring import ScoreBreakdown, score_summary
from repro.core.summary import ChangeSummary, ConditionalTransformation
from repro.core.transformation import LinearTransformation, partition_errors
from repro.exceptions import ModelFitError
from repro.ml.linreg import LinearRegression
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.relational.snapshot import SnapshotPair
from repro.relational.table import Table
from repro.search.cache import PairFingerprints, SearchCaches, mask_digest
from repro.search.planner import GLOBAL, CandidateSpec

__all__ = ["ScoredSummary", "EvaluationOutcome", "CandidateEvaluator"]

# how partition lookups were satisfied (cached or recomputed), across every
# evaluator in the process; cheap enough (one dict update) to stay on without
# tracing
_PARTITION_RESOLUTION = get_registry().counter(
    "charles_partition_resolution_total",
    "Partition lookups by how they were satisfied",
    labels=("outcome",),
)


@dataclass(frozen=True)
class ScoredSummary:
    """A generated summary together with its score and provenance."""

    summary: ChangeSummary
    breakdown: ScoreBreakdown
    condition_attributes: tuple[str, ...]
    transformation_attributes: tuple[str, ...]
    n_partitions: int

    @property
    def score(self) -> float:
        """The combined accuracy/interpretability score."""
        return self.breakdown.score

    def describe(self) -> str:
        """The summary text followed by its score breakdown."""
        return f"{self.summary.describe()}\n  {self.breakdown}"


PRUNED_DUPLICATE = "duplicate"


@dataclass(frozen=True)
class EvaluationOutcome:
    """What evaluating one spec produced.

    ``scored`` is ``None`` when the spec yielded no candidate (infeasible) or
    was pruned; ``signature`` identifies the discovered partition structure of
    partitioned specs so later rounds can skip provable duplicates.
    ``pruned_reason`` is :data:`PRUNED_DUPLICATE` when an identical partition
    structure was already evaluated (the summary would be a byte-identical
    duplicate).  Specs the executor's pre-discovery
    :class:`~repro.search.bounds.SpecBound` rules out never reach the
    evaluator, so they have no outcome at all.
    """

    spec: CandidateSpec
    scored: ScoredSummary | None
    signature: tuple | None
    pruned_reason: str | None = None

    @property
    def pruned(self) -> bool:
        """Whether the spec was skipped or dropped rather than fully scored."""
        return self.pruned_reason is not None


@dataclass(frozen=True)
class _BuiltSummary:
    """A summary built from one partition signature and its score.

    Shared by every spec with that signature; each spec still builds its own
    :class:`ScoredSummary`, so provenance stays per spec.
    """

    summary: ChangeSummary
    breakdown: ScoreBreakdown


class CandidateEvaluator:
    """Evaluates candidate specs for one snapshot pair, target and config."""

    def __init__(
        self,
        pair: SnapshotPair,
        target: str,
        config: CharlesConfig,
        caches: SearchCaches | None = None,
    ):
        self._pair = pair
        self._target = target
        self._config = config
        self._full_mask = np.ones(pair.num_rows, dtype=bool)
        self._prints = PairFingerprints(pair, target)
        # unweighted clustering inputs by (C, T, scope content token): every
        # partition count and residual weight of one scope clusters the same
        # matrix.  Lives as long as the evaluator, like the fingerprints.
        self._clustering_inputs: dict[tuple, np.ndarray] = {}
        # induced partitions by (C, scope mask digest, k > 1, labels), and
        # built summaries by partition signature; both as long-lived as the
        # clustering inputs, and both valid only for this evaluator's pair
        self._inductions: dict[tuple, tuple[Partition, ...]] = {}
        self._summaries: dict[tuple, _BuiltSummary | None] = {}
        self.caches = caches or SearchCaches(config.search_cache_capacity)
        # the process-wide tracer singleton; its `.enabled` flag is the only
        # overhead evaluation pays when tracing is off
        self._tracer = get_tracer()

    # -- public API ------------------------------------------------------------

    def evaluate(
        self,
        spec: CandidateSpec,
        known_signatures: frozenset = frozenset(),
    ) -> EvaluationOutcome:
        """Evaluate one spec.

        ``known_signatures`` must only contain signatures of specs from
        *earlier* rounds; the evaluator never mutates it, which keeps the
        outcome independent of how specs within a round are ordered or
        distributed over workers.
        """
        if not self._tracer.enabled:
            return self._evaluate(spec, known_signatures)
        with self._tracer.span(
            "spec",
            kind=spec.kind,
            conditions=list(spec.condition_subset),
            transformations=list(spec.transformation_subset),
            k=spec.n_partitions,
        ) as span:
            outcome = self._evaluate(spec, known_signatures)
            span.set(pruned=outcome.pruned_reason, scored=outcome.scored is not None)
        return outcome

    def _evaluate(
        self, spec: CandidateSpec, known_signatures: frozenset
    ) -> EvaluationOutcome:
        if spec.kind == GLOBAL:
            return EvaluationOutcome(spec, self._global_summary(spec), None)
        partitions = self._cached_partitions(
            self._pair,
            self._full_mask,
            spec.condition_subset,
            spec.transformation_subset,
            spec.n_partitions,
            spec.residual_weight,
        )
        signature = self._partition_signature(spec, partitions)
        if signature in known_signatures:
            return EvaluationOutcome(spec, None, signature, pruned_reason=PRUNED_DUPLICATE)
        if signature not in self._summaries:
            self._summaries[signature] = self._build_summary(spec, partitions)
        built = self._summaries[signature]
        if built is None:
            return EvaluationOutcome(spec, None, signature)
        scored = ScoredSummary(
            summary=built.summary,
            breakdown=built.breakdown,
            condition_attributes=spec.condition_subset,
            transformation_attributes=spec.transformation_subset,
            n_partitions=spec.n_partitions,
        )
        return EvaluationOutcome(spec, scored, signature)

    def score_empty_summary(self, summary: ChangeSummary) -> ScoredSummary:
        """Score the degenerate "no change detected" summary."""
        breakdown = score_summary(summary, self._pair, self._config)
        return ScoredSummary(summary, breakdown, (), (), 0)

    def prefetch_round(self, specs) -> None:
        """Warm the partition cache for a round's top-level lookups in a batch.

        Executors call this before evaluating a round against a backend that
        batches wire traffic (``supports_prefetch`` — the sharded remote
        fabric): the round's partition-discovery keys resolve in one ``MGET``
        per shard instead of one round trip per spec, and each spec's
        :meth:`evaluate` then answers its lookup from the prefetch buffer.
        Purely a latency optimisation — a prefetched hit, a prefetched miss
        and an unprefetched lookup all produce identical outcomes.
        """
        backend = self.caches.partitions.backend
        if not backend.supports_prefetch:
            return
        keys = [
            self._partition_key(
                spec.condition_subset,
                spec.transformation_subset,
                spec.n_partitions,
                spec.residual_weight,
                self._full_mask,
            )
            for spec in specs
            if spec.kind != GLOBAL
        ]
        if keys:
            with self._tracer.span("prefetch", keys=len(keys)):
                backend.prefetch(keys)

    # -- cached building blocks --------------------------------------------------

    def _partition_key(
        self,
        condition_subset: tuple[str, ...],
        transformation_subset: tuple[str, ...],
        n_partitions: int,
        residual_weight: float,
        scope_mask: np.ndarray,
    ) -> tuple:
        # the "/3" is a value-format version: entries are bare partition
        # tuples, and older formats left in a persistent or remote store hold
        # pickles this code cannot load; the disjoint key prefix keeps every
        # version safe in one store at the cost of a cold start
        return (
            "partition/3",
            self._target,
            condition_subset,
            transformation_subset,
            n_partitions,
            residual_weight,
            self._prints.token(condition_subset + transformation_subset, scope_mask),
        )

    def _cached_partitions(
        self,
        scope_pair: SnapshotPair,
        scope_mask: np.ndarray,
        condition_subset: tuple[str, ...],
        transformation_subset: tuple[str, ...],
        n_partitions: int,
        residual_weight: float = 1.0,
    ) -> list[Partition]:
        """Partition discovery on ``scope_pair``, memoised by content.

        ``scope_mask`` selects the scope's rows in the *full* pair (the full
        mask for top-level discovery, the parent partition's mask during
        refinement); the cache key hashes the values of every involved column
        under that mask, so the entry stays valid for exactly as long as those
        values do — including across runs of a long-lived session.  A miss
        runs the full discovery: clustering, then condition induction.
        """
        key = self._partition_key(
            condition_subset,
            transformation_subset,
            n_partitions,
            residual_weight,
            scope_mask,
        )
        cached = self.caches.partitions.lookup(key)
        if cached is not MISSING:
            _PARTITION_RESOLUTION.inc(outcome="cached")
            return list(cached)
        started = time.perf_counter()
        with self._tracer.span(
            "partitions.resolve", top_level=scope_mask is self._full_mask
        ) as span:
            partitions, induced = self._discover_partitions(
                scope_pair,
                scope_mask,
                key[-1],
                condition_subset,
                transformation_subset,
                n_partitions,
                residual_weight,
            )
            span.set(partitions=len(partitions), induced=induced)
        _PARTITION_RESOLUTION.inc(outcome="recomputed")
        self.caches.partitions.store(
            key, partitions, cost_seconds=time.perf_counter() - started
        )
        return list(partitions)

    def _clustering_input(
        self,
        scope_pair: SnapshotPair,
        scope_token: bytes,
        condition_subset: tuple[str, ...],
        transformation_subset: tuple[str, ...],
        changed_indices: np.ndarray,
    ) -> np.ndarray:
        """The scope's unweighted clustering matrix, built once per (C, T, scope)."""
        key = (condition_subset, transformation_subset, scope_token)
        matrix = self._clustering_inputs.get(key)
        if matrix is None:
            matrix = clustering_matrix(
                scope_pair,
                self._target,
                changed_indices,
                condition_subset,
                transformation_subset,
                self._config,
            )
            matrix.setflags(write=False)
            self._clustering_inputs[key] = matrix
        return matrix

    def _discover_partitions(
        self,
        scope_pair: SnapshotPair,
        scope_mask: np.ndarray,
        scope_token: bytes,
        condition_subset: tuple[str, ...],
        transformation_subset: tuple[str, ...],
        n_partitions: int,
        residual_weight: float,
    ) -> tuple[tuple[Partition, ...], bool]:
        """Full partition discovery: cluster the changed rows, induce conditions.

        Returns the partitions and whether induction ran (``False`` when its
        result was reused, or nothing changed).  Clustering runs under a
        ``core.cluster`` span and induction under a ``core.induce`` span, the
        layer names perfbench uses.  Induction reads the scope's source
        values of C, its changed rows and the labels; the scope mask stands
        for the first two within this evaluator's pair, and k enters only as
        ``k > 1`` (whether a trivial condition may be dropped).
        """
        # `k` is the cluster count k-means ran with, 1 when nothing was clustered
        with self._tracer.span(
            "core.cluster", k=1, weight=residual_weight, rows=0, width=0
        ) as span:

            def clustering_input(changed_indices: np.ndarray) -> np.ndarray:
                matrix = self._clustering_input(
                    scope_pair, scope_token, condition_subset, transformation_subset,
                    changed_indices,
                )
                span.set(k=min(n_partitions, changed_indices.size), width=matrix.shape[1])
                return matrix

            clustered = cluster_changed_rows(
                scope_pair,
                self._target,
                condition_subset,
                transformation_subset,
                n_partitions,
                self._config,
                residual_weight=residual_weight,
                clustering_input=clustering_input,
            )
            if clustered is not None:
                span.set(rows=clustered[0].size)
        if clustered is None:
            return (), False
        changed_indices, labels = clustered
        key = (condition_subset, mask_digest(scope_mask), n_partitions > 1, labels.tobytes())
        partitions = self._inductions.get(key)
        if partitions is not None:
            return partitions, False
        with self._tracer.span("core.induce", rows=changed_indices.size) as span:
            partitions = tuple(
                partitions_from_labels(
                    scope_pair,
                    self._target,
                    condition_subset,
                    changed_indices,
                    labels,
                    n_partitions,
                    self._config,
                )
            )
            span.set(partitions=len(partitions))
        self._inductions[key] = partitions
        return partitions, True

    def _cached_fit(
        self, transformation_subset: tuple[str, ...], mask: np.ndarray
    ) -> LinearTransformation | None:
        key = (
            "fit",
            self._target,
            transformation_subset,
            self._prints.token(transformation_subset, mask),
        )
        if not self._tracer.enabled:
            return self.caches.fits.get_or_compute(
                key, lambda: self._fit_transformation(transformation_subset, mask)
            )

        def compute() -> LinearTransformation | None:
            # only cache misses open a span: a hit costs nothing and says nothing
            with self._tracer.span(
                "fit", features=len(transformation_subset), rows=int(mask.sum())
            ):
                return self._fit_transformation(transformation_subset, mask)

        return self.caches.fits.get_or_compute(key, compute)

    @staticmethod
    def _partition_signature(spec: CandidateSpec, partitions: list[Partition]) -> tuple:
        """A content identity for the discovered partition structure.

        Two specs with the same subsets and the same ordered (condition, mask)
        lists go through an identical, deterministic fit/merge/refine pipeline,
        so their summaries are interchangeable.  Conditions are identified by
        their raw descriptors, not rendered text, so thresholds that differ
        below display precision cannot be conflated.
        """
        return (
            spec.condition_subset,
            spec.transformation_subset,
            tuple(
                (partition.condition.descriptors, mask_digest(partition.mask))
                for partition in partitions
            ),
        )

    # -- candidate generation ----------------------------------------------------

    def _global_summary(self, spec: CandidateSpec) -> ScoredSummary | None:
        """One CT with the trivial condition applied to every row (the paper's R4)."""
        transformation = self._cached_fit(spec.transformation_subset, self._full_mask)
        if transformation is None:
            return None
        summary = ChangeSummary(
            self._target,
            (ConditionalTransformation(Condition.always(), transformation),),
            identity_fallback=self._config.include_identity_fallback,
        )
        breakdown = score_summary(summary, self._pair, self._config)
        return ScoredSummary(summary, breakdown, (), spec.transformation_subset, 1)

    def _partitioned_summary(
        self, spec: CandidateSpec, partitions: list[Partition]
    ) -> ChangeSummary | None:
        if not partitions:
            return None
        pair = self._pair
        fitted: list[tuple[Partition, LinearTransformation]] = []
        for partition in partitions:
            transformation = self._cached_fit(spec.transformation_subset, partition.mask)
            if transformation is None:
                continue
            fitted.append((partition, transformation))
        fitted = self._merge_equivalent(fitted, spec.condition_subset, spec.transformation_subset)
        if self._config.refine_partitions:
            fitted = self._refine(fitted, spec.condition_subset, spec.transformation_subset)
        conditional_transformations = [
            ConditionalTransformation(partition.condition, transformation)
            for partition, transformation in fitted
        ]
        if not conditional_transformations:
            return None
        return ChangeSummary(
            self._target,
            tuple(conditional_transformations),
            identity_fallback=self._config.include_identity_fallback,
        )

    def _build_summary(
        self, spec: CandidateSpec, partitions: list[Partition]
    ) -> _BuiltSummary | None:
        """The scored summary of a partition structure, or ``None`` if infeasible."""
        summary = self._partitioned_summary(spec, partitions)
        if summary is None:
            return None
        return _BuiltSummary(summary, score_summary(summary, self._pair, self._config))

    def _merge_equivalent(
        self,
        fitted: list[tuple[Partition, LinearTransformation]],
        condition_subset: tuple[str, ...],
        transformation_subset: tuple[str, ...],
    ) -> list[tuple[Partition, LinearTransformation]]:
        """Merge partitions whose fitted transformations are identical.

        K-means sometimes splits a region that actually follows a single rule
        (e.g. two experience bands with the same raise).  Merging such
        partitions and re-inducing one condition over their union yields a
        strictly more interpretable summary with the same accuracy.
        """
        if len(fitted) < 2:
            return fitted
        pair = self._pair

        groups: dict[tuple, list[tuple[Partition, LinearTransformation]]] = {}
        order: list[tuple] = []
        for partition, transformation in fitted:
            signature = transformation.signature()
            if signature not in groups:
                groups[signature] = []
                order.append(signature)
            groups[signature].append((partition, transformation))

        merged: list[tuple[Partition, LinearTransformation]] = []
        for signature in order:
            members = groups[signature]
            if len(members) == 1:
                merged.append(members[0])
                continue
            union_mask = np.zeros(pair.num_rows, dtype=bool)
            for partition, _ in members:
                union_mask |= partition.mask
            condition = induce_condition(
                pair.source, np.nonzero(union_mask)[0], condition_subset, self._config
            )
            if condition.is_trivial and len(fitted) > len(members):
                merged.extend(members)
                continue
            mask = condition.mask(pair.source)
            transformation = self._cached_fit(transformation_subset, mask)
            if transformation is None:
                merged.extend(members)
                continue
            coverage = float(mask.mean()) if pair.num_rows else 0.0
            merged.append((Partition(condition, mask, 1.0, coverage), transformation))
        return merged

    def _refine(
        self,
        fitted: list[tuple[Partition, LinearTransformation]],
        condition_subset: tuple[str, ...],
        transformation_subset: tuple[str, ...],
    ) -> list[tuple[Partition, LinearTransformation]]:
        """Hierarchically re-partition partitions that are poorly explained.

        When one discovered partition actually contains several sub-policies
        (e.g. the MS group hiding an experience threshold), its single linear
        model leaves a visible share of the change unexplained.  Refinement
        restricts the pair to that partition, runs partition discovery again
        inside it, and replaces the partition with the sub-partitions — whose
        conditions are the parent condition conjoined with the sub-conditions,
        exactly the nested structure of the paper's Fig. 2 tree.
        """
        config = self._config
        pair = self._pair
        target = self._target
        refined: list[tuple[Partition, LinearTransformation]] = []
        for partition, transformation in fitted:
            if partition.size < 2 * config.min_refinement_rows:
                refined.append((partition, transformation))
                continue
            rows = pair.source.mask(partition.mask)
            actual_new = pair.target.numeric_column(target)[partition.mask]
            old_values = rows.numeric_column(target)
            unexplained = self._partition_error(transformation, rows, actual_new)
            change = np.abs(actual_new - old_values)
            total_change = float(np.sum(np.where(np.isfinite(change), change, 0.0)))
            if total_change <= 0.0 or unexplained / total_change < config.refinement_error_threshold:
                refined.append((partition, transformation))
                continue
            sub_pair = pair.restricted(partition.mask)
            sub_partitions = self._cached_partitions(
                sub_pair, partition.mask, condition_subset, transformation_subset, 2
            )
            if len(sub_partitions) < 2:
                refined.append((partition, transformation))
                continue
            replacement: list[tuple[Partition, LinearTransformation]] = []
            replacement_error = 0.0
            parent_indices = np.nonzero(partition.mask)[0]
            for sub in sub_partitions:
                sub_mask_full = np.zeros(pair.num_rows, dtype=bool)
                sub_mask_full[parent_indices[np.nonzero(sub.mask)[0]]] = True
                combined = self._conjoin(partition.condition, sub.condition)
                sub_transformation = self._cached_fit(transformation_subset, sub_mask_full)
                if sub_transformation is None:
                    continue
                sub_rows = pair.source.mask(sub_mask_full)
                sub_actual = pair.target.numeric_column(target)[sub_mask_full]
                replacement_error += self._partition_error(sub_transformation, sub_rows, sub_actual)
                coverage = float(sub_mask_full.mean())
                replacement.append(
                    (Partition(combined, sub_mask_full, sub.fidelity, coverage), sub_transformation)
                )
            if len(replacement) >= 2 and replacement_error < unexplained:
                refined.extend(replacement)
            else:
                refined.append((partition, transformation))
        return refined

    @staticmethod
    def _conjoin(parent: Condition, child: Condition) -> Condition:
        """Conjoin two conditions, dropping descriptors the parent already has."""
        existing = set(parent.descriptors)
        extra = tuple(d for d in child.descriptors if d not in existing)
        return Condition(parent.descriptors + extra)

    def _fit_transformation(
        self,
        transformation_subset: tuple[str, ...],
        mask: np.ndarray,
    ) -> LinearTransformation | None:
        """Transformation discovery for one partition, with coefficient snapping."""
        if not mask.any():
            return None
        pair = self._pair
        source_rows = pair.source.mask(mask)
        actual_new = pair.target.numeric_column(self._target)[mask]
        features = source_rows.numeric_matrix(list(transformation_subset))
        try:
            model = LinearRegression(ridge=self._config.ridge).fit(features, actual_new)
            model = self._trimmed_refit(model, features, actual_new)
        except ModelFitError:
            return None
        transformation = LinearTransformation.from_regression(
            model, transformation_subset, self._target
        )
        if not transformation.feature_names and transformation.intercept == 0.0:
            return None
        baseline_error = self._partition_error(transformation, source_rows, actual_new)
        # if the partition turns out to be unchanged, prefer the explicit identity
        identity = LinearTransformation.identity(self._target)
        if self._partition_error(identity, source_rows, actual_new) <= baseline_error + 1e-9:
            return identity
        return transformation.snapped(source_rows, actual_new, self._config.snapping_tolerance)

    def _trimmed_refit(
        self,
        model: LinearRegression,
        features: np.ndarray,
        actual_new: np.ndarray,
    ) -> LinearRegression:
        """Refit once without gross outliers so noisy point edits do not drag coefficients.

        Rows whose absolute residual exceeds 6x the median absolute residual are
        treated as unexplainable one-off edits; if they are few (under 20 % of
        the partition) the model is refitted on the remaining rows, which keeps
        the recovered coefficients on the latent policy rather than a
        compromise between the policy and the noise.
        """
        residuals = np.abs(model.residuals(features, actual_new))
        residuals = np.where(np.isfinite(residuals), residuals, 0.0)
        median = float(np.median(residuals))
        if median <= 0.0:
            return model
        keep = residuals <= 6.0 * median
        dropped = int((~keep).sum())
        if dropped == 0 or dropped > 0.2 * keep.size or keep.sum() < 2:
            return model
        try:
            return LinearRegression(ridge=self._config.ridge).fit(features[keep], actual_new[keep])
        except ModelFitError:
            return model

    @staticmethod
    def _partition_error(
        transformation: LinearTransformation, source_rows: Table, actual_new: np.ndarray
    ) -> float:
        matrix = source_rows.numeric_matrix(list(transformation.feature_names))
        errors = partition_errors(
            matrix, [transformation.coefficients], [transformation.intercept], actual_new
        )
        return float(errors[0])
