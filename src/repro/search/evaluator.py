"""Evaluating one candidate spec: partitions, fits, merge, refine, score.

This module holds the model-fitting heart of the diff discovery engine: the
in-process search and every pool worker evaluate
:class:`~repro.search.planner.CandidateSpec`\\ s through this one
cache-aware code path.  A :class:`CandidateEvaluator` is
bound to a single ``(pair, target, config)`` triple, and memoises its work in
the pair-scoped tables of its :class:`~repro.search.cache.SearchCaches`, so
work that recurs across specs is done once:

* per-mask regression *fits*, each with its L1 error on the mask: union
  masks re-fitted during merging and partitions that recur across specs fit
  once, and refinement reads a partition's error instead of scoring it again;
* *partition discoveries*: identical partition masks at different
  ``k``/residual weights, and refinement re-clustering the same scope;
* the *clustering input*, in two blocks keyed by the changed rows it reads:
  the residual features per (T, changed rows) and the encoded conditions per
  (C, changed rows), so every C, k and w of those rows shares one global
  regression;
* the *k-means labels* of the changed rows: a refinement scope that holds
  every changed row clusters exactly what the top-level spec clustered;
* the *induced partitions*: condition induction reads neither T nor w, and
  reads k only through ``k > 1``, so every k = 1 spec of a C subset and
  every (T, w) that k-means maps to the same labelling shares one induction;
* the *scored summary* of a partition signature: specs whose partitions
  coincide build and score one summary.

Keys identify rows by :func:`~repro.search.cache.mask_digest`, which is only
meaningful within one pair, so an evaluator scopes the caches it is handed
to its pair before it reads them.  Every step, discovery inside a
refinement scope included, reads rows through a mask from the pair's
full-table arrays (``Table.numeric_matrix(names, rows)``), never through a
table copy.

One kind of pruning happens here, and it is exact: if a spec's discovered
partitions (conditions + masks) are identical to those of a spec evaluated
in an earlier round, the downstream computation is fully deterministic, so
the resulting summary would be a byte-identical duplicate; the spec is
skipped outright.  The top-k floor is not an input: specs that provably
cannot reach it are skipped by the executor before they get here (see
:mod:`repro.search.bounds`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.cachestore import MISSING
from repro.core.condition import Condition
from repro.core.config import CharlesConfig
from repro.core.partitioning import (
    Partition,
    cluster_changed_rows,
    condition_features,
    induce_condition,
    partitions_from_labels,
    residual_features,
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
from repro.search.cache import SearchCaches, mask_digest, snapshot_digest
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


class _Fit(NamedTuple):
    """A fitted transformation and its L1 error on the rows it was fitted to."""

    transformation: LinearTransformation
    error: float


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
        if caches is None:
            caches = SearchCaches()
        else:
            # memo keys name rows by mask digest, so a caller's caches may
            # hold another pair's entries under the same keys
            caches.scope_to_pair(
                snapshot_digest(pair.source, pair.key) + snapshot_digest(pair.target, pair.key)
            )
        self.caches = caches
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
            self._full_mask,
            spec.condition_subset,
            spec.transformation_subset,
            spec.n_partitions,
            spec.residual_weight,
        )
        signature = self._partition_signature(spec, partitions)
        if signature in known_signatures:
            return EvaluationOutcome(spec, None, signature, pruned_reason=PRUNED_DUPLICATE)
        summaries = self.caches.summaries
        key = (self._target, signature)
        if key not in summaries:
            summaries[key] = self._build_summary(spec, partitions)
        built = summaries[key]
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

    # -- cached building blocks --------------------------------------------------

    def _partition_key(
        self,
        condition_subset: tuple[str, ...],
        transformation_subset: tuple[str, ...],
        n_partitions: int,
        residual_weight: float,
        scope_mask: np.ndarray,
    ) -> tuple:
        return (
            self._target,
            condition_subset,
            transformation_subset,
            n_partitions,
            residual_weight,
            mask_digest(scope_mask),
        )

    def _cached_partitions(
        self,
        scope_mask: np.ndarray,
        condition_subset: tuple[str, ...],
        transformation_subset: tuple[str, ...],
        n_partitions: int,
        residual_weight: float = 1.0,
    ) -> list[Partition]:
        """Partition discovery on the rows ``scope_mask`` selects, memoised within the pair.

        ``scope_mask`` selects the scope's rows in the *full* pair (the full
        mask for top-level discovery, the parent partition's mask during
        refinement); the key holds its digest.  A miss runs the full
        discovery: clustering, then condition induction.
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
        with self._tracer.span(
            "partitions.resolve", top_level=scope_mask is self._full_mask
        ) as span:
            partitions, clustered, induced = self._discover_partitions(
                scope_mask,
                key[-1],
                condition_subset,
                transformation_subset,
                n_partitions,
                residual_weight,
            )
            span.set(partitions=len(partitions), clustered=clustered, induced=induced)
        _PARTITION_RESOLUTION.inc(outcome="recomputed")
        self.caches.partitions[key] = partitions
        return list(partitions)

    def _clustering_input(
        self,
        condition_subset: tuple[str, ...],
        transformation_subset: tuple[str, ...],
        changed_rows: np.ndarray,
        changed_digest: bytes,
    ) -> np.ndarray:
        """The unweighted clustering matrix of the changed rows at ``changed_rows``.

        Assembled from two blocks, each built once per pair and stored
        read-only: the condition features by (C, changed rows) and the
        residual features by (target, T, changed rows).
        """
        caches = self.caches
        key = (condition_subset, changed_digest)
        conditions = caches.condition_features.get(key)
        if conditions is None:
            conditions = condition_features(self._pair.source, changed_rows, condition_subset)
            conditions.setflags(write=False)
            caches.condition_features[key] = conditions
        key = (self._target, transformation_subset, changed_digest)
        residuals = caches.residual_features.get(key)
        if residuals is None:
            residuals = residual_features(
                self._pair, self._target, changed_rows, transformation_subset, self._config
            )
            residuals.setflags(write=False)
            caches.residual_features[key] = residuals
        return np.hstack([conditions, residuals])

    def _discover_partitions(
        self,
        scope_mask: np.ndarray,
        scope_digest: bytes,
        condition_subset: tuple[str, ...],
        transformation_subset: tuple[str, ...],
        n_partitions: int,
        residual_weight: float,
    ) -> tuple[tuple[Partition, ...], bool, bool]:
        """Full partition discovery: cluster the changed rows, induce conditions.

        Both stages read the evaluator's pair through ``scope_mask``, and the
        partition masks they return are over the full pair.  Returns the
        partitions, whether clustering ran and whether induction ran (each
        ``False`` when its result was reused).  Clustering reads only the
        scope's changed rows, so its labelling is memoised by their digest: a
        refinement scope that holds every changed row reuses the top-level
        labels.  Clustering runs under a ``core.cluster`` span and induction
        under a ``core.induce`` span, the layer names perfbench uses.
        Induction reads the scope's source values of C, its changed rows and
        the labels; the scope mask digest stands for the first two within this
        evaluator's pair, and k enters only as ``k > 1`` (whether a trivial
        condition may be dropped).
        """
        changed = self._pair.changed_mask(self._target) & scope_mask
        changed_rows = np.flatnonzero(changed)
        changed_digest = mask_digest(changed)
        key = (
            self._target,
            condition_subset,
            transformation_subset,
            n_partitions,
            residual_weight,
            changed_digest,
        )
        labels = self.caches.labellings.get(key, MISSING)
        clustered = labels is MISSING
        if clustered:
            # `k` is the cluster count k-means ran with, 1 when nothing was clustered
            with self._tracer.span(
                "core.cluster", k=1, weight=residual_weight, rows=0, width=0
            ) as span:

                def clustering_input(changed_indices: np.ndarray) -> np.ndarray:
                    matrix = self._clustering_input(
                        condition_subset, transformation_subset, changed_indices, changed_digest
                    )
                    span.set(k=min(n_partitions, changed_indices.size), width=matrix.shape[1])
                    return matrix

                result = cluster_changed_rows(
                    self._pair,
                    self._target,
                    condition_subset,
                    transformation_subset,
                    n_partitions,
                    self._config,
                    residual_weight=residual_weight,
                    clustering_input=clustering_input,
                    scope=scope_mask,
                )
                labels = None
                if result is not None:
                    span.set(rows=result[0].size)
                    labels = result[1]
                    labels.setflags(write=False)
            self.caches.labellings[key] = labels
        if labels is None:
            return (), clustered, False
        key = (self._target, condition_subset, scope_digest, n_partitions > 1, labels.tobytes())
        partitions = self.caches.inductions.get(key)
        if partitions is not None:
            return partitions, clustered, False
        with self._tracer.span("core.induce", rows=changed_rows.size) as span:
            partitions = tuple(
                partitions_from_labels(
                    self._pair,
                    condition_subset,
                    changed_rows,
                    labels,
                    n_partitions,
                    self._config,
                    scope=scope_mask,
                )
            )
            span.set(partitions=len(partitions))
        self.caches.inductions[key] = partitions
        return partitions, clustered, True

    def _cached_fit(
        self, transformation_subset: tuple[str, ...], mask: np.ndarray
    ) -> _Fit | None:
        key = (self._target, transformation_subset, mask_digest(mask))
        fit = self.caches.fits.lookup(key)
        if fit is not MISSING:
            return fit
        if self._tracer.enabled:
            # only misses open a span: a hit costs nothing and says nothing
            with self._tracer.span(
                "fit", features=len(transformation_subset), rows=int(mask.sum())
            ):
                fit = self._fit_transformation(transformation_subset, mask)
        else:
            fit = self._fit_transformation(transformation_subset, mask)
        self.caches.fits[key] = fit
        return fit

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
        fit = self._cached_fit(spec.transformation_subset, self._full_mask)
        if fit is None:
            return None
        summary = ChangeSummary(
            self._target,
            (ConditionalTransformation(Condition.always(), fit.transformation),),
            identity_fallback=self._config.include_identity_fallback,
        )
        breakdown = score_summary(summary, self._pair, self._config)
        return ScoredSummary(summary, breakdown, (), spec.transformation_subset, 1)

    def _partitioned_summary(
        self, spec: CandidateSpec, partitions: list[Partition]
    ) -> ChangeSummary | None:
        if not partitions:
            return None
        fitted: list[tuple[Partition, _Fit]] = []
        for partition in partitions:
            fit = self._cached_fit(spec.transformation_subset, partition.mask)
            if fit is None:
                continue
            fitted.append((partition, fit))
        fitted = self._merge_equivalent(fitted, spec.condition_subset, spec.transformation_subset)
        if self._config.refine_partitions:
            if self._tracer.enabled:
                with self._tracer.span("search.refine", partitions=len(fitted)) as span:
                    fitted = self._refine(
                        fitted, spec.condition_subset, spec.transformation_subset
                    )
                    span.set(refined=len(fitted))
            else:
                fitted = self._refine(fitted, spec.condition_subset, spec.transformation_subset)
        conditional_transformations = [
            ConditionalTransformation(partition.condition, fit.transformation)
            for partition, fit in fitted
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
        fitted: list[tuple[Partition, _Fit]],
        condition_subset: tuple[str, ...],
        transformation_subset: tuple[str, ...],
    ) -> list[tuple[Partition, _Fit]]:
        """Merge partitions whose fitted transformations are identical.

        K-means sometimes splits a region that actually follows a single rule
        (e.g. two experience bands with the same raise).  Merging such
        partitions and re-inducing one condition over their union yields a
        strictly more interpretable summary with the same accuracy.
        """
        if len(fitted) < 2:
            return fitted
        pair = self._pair

        groups: dict[tuple, list[tuple[Partition, _Fit]]] = {}
        order: list[tuple] = []
        for partition, fit in fitted:
            signature = fit.transformation.signature()
            if signature not in groups:
                groups[signature] = []
                order.append(signature)
            groups[signature].append((partition, fit))

        merged: list[tuple[Partition, _Fit]] = []
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
            fit = self._cached_fit(transformation_subset, mask)
            if fit is None:
                merged.extend(members)
                continue
            coverage = float(mask.mean()) if pair.num_rows else 0.0
            merged.append((Partition(condition, mask, 1.0, coverage), fit))
        return merged

    def _refine(
        self,
        fitted: list[tuple[Partition, _Fit]],
        condition_subset: tuple[str, ...],
        transformation_subset: tuple[str, ...],
    ) -> list[tuple[Partition, _Fit]]:
        """Hierarchically re-partition partitions that are poorly explained.

        When one discovered partition actually contains several sub-policies
        (e.g. the MS group hiding an experience threshold), its single linear
        model leaves a visible share of the change unexplained.  Refinement
        runs partition discovery again with that partition's mask as the
        scope, and replaces the partition with the sub-partitions — whose
        conditions are the parent condition conjoined with the sub-conditions,
        exactly the nested structure of the paper's Fig. 2 tree.  A partition's
        unexplained change, and each sub-partition's, is the error its fit
        memo entry holds.
        """
        config = self._config
        pair = self._pair
        new_values = pair.target.numeric_column(self._target)
        refined: list[tuple[Partition, _Fit]] = []
        for partition, fit in fitted:
            if partition.size < 2 * config.min_refinement_rows:
                refined.append((partition, fit))
                continue
            actual_new = new_values[partition.mask]
            old_values = pair.source.numeric_column(self._target)[partition.mask]
            unexplained = fit.error
            change = np.abs(actual_new - old_values)
            total_change = float(np.sum(np.where(np.isfinite(change), change, 0.0)))
            if total_change <= 0.0 or unexplained / total_change < config.refinement_error_threshold:
                refined.append((partition, fit))
                continue
            sub_partitions = self._cached_partitions(
                partition.mask, condition_subset, transformation_subset, 2
            )
            if len(sub_partitions) < 2:
                refined.append((partition, fit))
                continue
            replacement: list[tuple[Partition, _Fit]] = []
            replacement_error = 0.0
            for sub in sub_partitions:
                combined = self._conjoin(partition.condition, sub.condition)
                sub_fit = self._cached_fit(transformation_subset, sub.mask)
                if sub_fit is None:
                    continue
                replacement_error += sub_fit.error
                coverage = float(sub.mask.mean())
                replacement.append(
                    (Partition(combined, sub.mask, sub.fidelity, coverage), sub_fit)
                )
            if len(replacement) >= 2 and replacement_error < unexplained:
                refined.extend(replacement)
            else:
                refined.append((partition, fit))
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
    ) -> _Fit | None:
        """Transformation discovery for one partition, with coefficient snapping.

        The fit's error is the one already computed to choose it: the
        identity's, the baseline's when snapping keeps the fit, or the
        snapped candidate's from the snapping pass.
        """
        if not mask.any():
            return None
        pair = self._pair
        actual_new = pair.target.numeric_column(self._target)[mask]
        features = pair.source.numeric_matrix(transformation_subset, mask)
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
        baseline_error = self._partition_error(transformation, pair.source, mask, actual_new)
        # if the partition turns out to be unchanged, prefer the explicit identity
        identity = LinearTransformation.identity(self._target)
        identity_error = self._partition_error(identity, pair.source, mask, actual_new)
        if identity_error <= baseline_error + 1e-9:
            return _Fit(identity, identity_error)
        return _Fit(*transformation.snapped(
            pair.source, actual_new, self._config.snapping_tolerance, rows=mask
        ))

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
        transformation: LinearTransformation,
        source: Table,
        rows: np.ndarray | None,
        actual_new: np.ndarray,
    ) -> float:
        """The L1 error of ``transformation`` on the ``rows`` of ``source``."""
        matrix = source.numeric_matrix(transformation.feature_names, rows)
        errors = partition_errors(
            matrix, [transformation.coefficients], [transformation.intercept], actual_new
        )
        return float(errors[0])
