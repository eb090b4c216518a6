"""Alternative partitioning strategies for the E8 ablation.

DESIGN.md calls out ChARLES's partition-discovery choice — k-means over the
condition attributes *augmented with the residual from a global regression* —
as the design decision most worth ablating.  This module provides drop-in
alternative labelers over the changed rows:

* ``charles``        — the real pipeline (condition attributes + residual);
* ``no_residual``    — k-means over the condition attributes only;
* ``residual_only``  — k-means over the residual only (ignores conditions);
* ``delta_quantile`` — equal-frequency buckets of the raw change (new - old);
* ``random``         — uniformly random labels (sanity floor).

Every strategy is followed by the *same* condition induction and per-partition
transformation fitting as the real engine, so differences in the resulting
summary quality are attributable to the partitioning alone.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.condition import Descriptor
from repro.core.config import CharlesConfig
from repro.core.partitioning import induce_condition
from repro.core.summary import ChangeSummary, ConditionalTransformation
from repro.core.transformation import LinearTransformation
from repro.exceptions import ConfigurationError, ModelFitError
from repro.ml.encoding import TableEncoder
from repro.ml.kmeans import KMeans
from repro.ml.linreg import LinearRegression
from repro.relational.snapshot import SnapshotPair

__all__ = ["PARTITION_STRATEGIES", "ablation_summary", "label_changed_rows"]

PARTITION_STRATEGIES = ("charles", "no_residual", "residual_only", "delta_quantile", "random")


def label_changed_rows(
    pair: SnapshotPair,
    target: str,
    condition_attributes: Sequence[str],
    transformation_attributes: Sequence[str],
    n_partitions: int,
    strategy: str,
    config: CharlesConfig | None = None,
) -> np.ndarray:
    """Cluster labels (one per *changed* row) under the chosen strategy."""
    config = config or CharlesConfig()
    if strategy not in PARTITION_STRATEGIES:
        raise ConfigurationError(
            f"unknown partition strategy {strategy!r}; choose one of {PARTITION_STRATEGIES}"
        )
    changed = pair.changed_mask(target)
    changed_indices = np.nonzero(changed)[0]
    n_changed = changed_indices.size
    if n_changed == 0:
        return np.zeros(0, dtype=int)
    k = max(1, min(n_partitions, n_changed))
    changed_source = pair.source.take(changed_indices.tolist())
    new_values = pair.target.numeric_column(target)[changed_indices]
    old_values = pair.source.numeric_column(target)[changed_indices]

    if strategy == "random":
        rng = np.random.default_rng(config.seed)
        return rng.integers(0, k, size=n_changed)
    if strategy == "delta_quantile":
        delta = new_values - old_values
        quantiles = np.quantile(delta, np.linspace(0, 1, k + 1)[1:-1]) if k > 1 else []
        return np.searchsorted(np.asarray(quantiles), delta, side="right").astype(int)

    features = changed_source.numeric_matrix(list(transformation_attributes))
    try:
        model = LinearRegression(ridge=config.ridge).fit(features, new_values)
        residuals = model.residuals(features, new_values)
    except ModelFitError:
        residuals = new_values - float(np.nanmean(new_values))
    residuals = np.where(np.isnan(residuals), 0.0, residuals)

    if strategy == "residual_only":
        matrix = (residuals - residuals.min()).reshape(-1, 1)
        spread = matrix.max() or 1.0
        matrix = matrix / spread
    else:
        encoder = TableEncoder(list(condition_attributes))
        extra = residuals if strategy == "charles" else None
        matrix = encoder.fit_transform(
            changed_source,
            extra_features=extra,
            extra_names=("__residual__",) if extra is not None else (),
        )
    return KMeans(k, seed=config.seed).fit(matrix).labels


def ablation_summary(
    pair: SnapshotPair,
    target: str,
    condition_attributes: Sequence[str],
    transformation_attributes: Sequence[str],
    n_partitions: int,
    strategy: str,
    config: CharlesConfig | None = None,
) -> ChangeSummary:
    """A change summary built from the chosen partitioning strategy.

    Conditions are induced and per-partition transformations fitted exactly as
    in the real engine, so the only varying factor is how the changed rows were
    grouped.
    """
    config = config or CharlesConfig()
    labels = label_changed_rows(
        pair, target, condition_attributes, transformation_attributes,
        n_partitions, strategy, config,
    )
    changed_indices = np.nonzero(pair.changed_mask(target))[0]
    source = pair.source
    actual_new = pair.target.numeric_column(target)
    conditional_transformations = []
    seen: set[tuple[Descriptor, ...]] = set()
    for label in range(int(labels.max()) + 1 if labels.size else 0):
        member_indices = changed_indices[labels == label]
        if member_indices.size == 0:
            continue
        condition = induce_condition(source, member_indices, condition_attributes, config)
        if condition.is_trivial and n_partitions > 1:
            continue
        if condition.descriptors in seen:
            continue
        seen.add(condition.descriptors)
        mask = condition.mask(source)
        if not mask.any():
            continue
        rows = source.mask(mask)
        try:
            model = LinearRegression(ridge=config.ridge).fit(
                rows.numeric_matrix(list(transformation_attributes)), actual_new[mask]
            )
        except ModelFitError:
            continue
        transformation = LinearTransformation.from_regression(
            model, tuple(transformation_attributes), target
        )
        conditional_transformations.append(ConditionalTransformation(condition, transformation))
    return ChangeSummary(
        target,
        tuple(conditional_transformations),
        identity_fallback=True,
        label=f"ablation:{strategy}",
    )
