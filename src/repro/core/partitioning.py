"""Partition discovery: finding the data segments that share a change pattern.

The central difficulty the paper identifies is a cyclic dependency: shared
change patterns can only be discovered once clusters are formed, but the
clusters must group rows that share a change pattern.  ChARLES breaks the
cycle with a two-step heuristic (paper §2, "Partition discovery"): first fit a
single linear regression of the target's new value over the transformation
attributes for *all* rows, then run k-means over the condition attributes
*augmented with the distance from that regression line* — rows that deviate
from the global trend in the same direction and live in the same region of the
condition space end up in the same cluster.

Clusters are opaque, so each one is translated back into a human-readable
:class:`~repro.core.condition.Condition` (a conjunction of descriptors) by
:func:`induce_condition`; the induced condition — not the raw cluster — defines
the partition, which keeps every reported summary faithful to what it claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.condition import Condition, Descriptor
from repro.core.config import CharlesConfig
from repro.core.normality import value_normality
from repro.exceptions import ModelFitError
from repro.ml.encoding import TableEncoder
from repro.ml.kmeans import KMeans
from repro.ml.linreg import LinearRegression
from repro.ml.scaling import MinMaxScaler
from repro.relational.snapshot import SnapshotPair
from repro.relational.table import Table

__all__ = [
    "Partition",
    "discover_partitions",
    "cluster_changed_rows",
    "clustering_matrix",
    "condition_features",
    "residual_features",
    "partitions_from_labels",
    "induce_condition",
]

#: residual-derived features appended to the encoded condition attributes
_N_RESIDUAL_FEATURES = 2


@dataclass(frozen=True)
class Partition:
    """A candidate data partition described by a condition.

    ``mask`` is the condition's row mask over the *full* source table (not just
    the changed rows), limited to the discovery scope; ``fidelity`` measures
    how well the induced condition reproduces the cluster it came from
    (Jaccard similarity), and ``coverage`` is the share of the scope's rows
    (every row without a scope) the mask selects.
    """

    condition: Condition
    mask: np.ndarray
    fidelity: float
    coverage: float

    @property
    def size(self) -> int:
        """Number of rows selected by the condition."""
        return int(self.mask.sum())


def discover_partitions(
    pair: SnapshotPair,
    target: str,
    condition_attributes: Sequence[str],
    transformation_attributes: Sequence[str],
    n_partitions: int,
    config: CharlesConfig | None = None,
    residual_weight: float = 1.0,
    scope: np.ndarray | None = None,
) -> list[Partition]:
    """Discover up to ``n_partitions`` candidate partitions of the changed rows.

    ``residual_weight`` controls how strongly the distance-from-the-regression-
    line feature dominates the clustering (see ``CharlesConfig.residual_weights``).
    ``scope``, a boolean mask over the pair's rows, limits discovery to
    those rows (``None``: every row); partition masks stay over the full pair.
    Returns a list of :class:`Partition` objects in first-match order.
    Partitions whose induced condition is trivial (except a trailing
    catch-all), duplicated, or below the configured minimum coverage are
    dropped, so the result may contain fewer than ``n_partitions`` entries
    (possibly zero when nothing changed).
    """
    config = config or CharlesConfig()
    clustered = cluster_changed_rows(
        pair,
        target,
        condition_attributes,
        transformation_attributes,
        n_partitions,
        config,
        residual_weight=residual_weight,
        scope=scope,
    )
    if clustered is None:
        return []
    changed_indices, labels = clustered
    return partitions_from_labels(
        pair, condition_attributes, changed_indices, labels, n_partitions, config, scope=scope
    )


def cluster_changed_rows(
    pair: SnapshotPair,
    target: str,
    condition_attributes: Sequence[str],
    transformation_attributes: Sequence[str],
    n_partitions: int,
    config: CharlesConfig | None = None,
    residual_weight: float = 1.0,
    clustering_input: Callable[[np.ndarray], np.ndarray] | None = None,
    scope: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray] | None:
    """The clustering stage of partition discovery: changed rows and their labels.

    Runs k-means over :func:`clustering_matrix` of the changed rows, with the
    residual features weighted by ``residual_weight``.  It reads *only* the
    changed rows: the source-side values of the condition, transformation and
    target attributes plus the target-side values of the target attribute,
    restricted to ``pair.changed_mask(target) & scope`` (no ``scope``: every
    row) and returned as indices into the full pair.  It is split from
    :func:`partitions_from_labels` so each stage can be timed on its own.

    ``clustering_input``, when given, is called with the changed row indices
    and must return what :func:`clustering_matrix` returns for these
    arguments; a caller that clusters one input at several partition counts
    and weights passes a memoised one.  It is not called for
    ``n_partitions <= 1`` or a single changed row, which need no clustering.

    Returns ``None`` when no row changed (discovery yields no partitions).
    """
    config = config or CharlesConfig()
    changed = pair.changed_mask(target)
    if scope is not None:
        changed = changed & scope
    if not changed.any():
        return None
    changed_indices = np.nonzero(changed)[0]
    if n_partitions <= 1 or changed_indices.size <= 1:
        return changed_indices, np.zeros(changed_indices.size, dtype=int)
    if clustering_input is None:
        matrix = clustering_matrix(
            pair, target, changed_indices, condition_attributes, transformation_attributes, config
        )
    else:
        matrix = clustering_input(changed_indices)
    # weighting the distance-from-the-regression-line features up makes clusters
    # group rows by change pattern first and by attribute geometry second
    weighted = matrix.copy()
    weighted[:, -_N_RESIDUAL_FEATURES:] *= residual_weight
    k = min(n_partitions, changed_indices.size)
    return changed_indices, KMeans(k, seed=config.seed).fit(weighted).labels


def clustering_matrix(
    pair: SnapshotPair,
    target: str,
    changed_indices: np.ndarray,
    condition_attributes: Sequence[str],
    transformation_attributes: Sequence[str],
    config: CharlesConfig,
) -> np.ndarray:
    """The unweighted, scaled k-means input of the changed rows.

    One row per entry of ``changed_indices``: the :func:`condition_features`
    followed by the :func:`residual_features`.  Min-max scaling works column
    by column, so the two blocks, each scaled on its own, equal the joint
    matrix scaled at once; a caller that clusters many (C, T) pairs of one
    row set builds each block once.
    """
    return np.hstack(
        [
            condition_features(pair.source, changed_indices, condition_attributes),
            residual_features(
                pair, target, changed_indices, transformation_attributes, config
            ),
        ]
    )


def condition_features(
    source: Table, changed_indices: np.ndarray, condition_attributes: Sequence[str]
) -> np.ndarray:
    """The encoded condition attributes of the changed rows, min-max scaled."""
    if not condition_attributes:
        return np.empty((changed_indices.size, 0))
    return TableEncoder(list(condition_attributes)).fit_transform(source, rows=changed_indices)


def residual_features(
    pair: SnapshotPair,
    target: str,
    changed_indices: np.ndarray,
    transformation_attributes: Sequence[str],
    config: CharlesConfig,
) -> np.ndarray:
    """The changed rows' distance from the global regression line, min-max scaled.

    Two columns: the absolute and the relative residual of the regression of
    the new target value on the transformation attributes over the changed
    rows.  The columns are read through ``changed_indices``, without copying
    a table.
    """
    new_values = pair.target.numeric_column(target)[changed_indices]
    features = pair.source.numeric_matrix(list(transformation_attributes), changed_indices)
    residuals = _global_residuals(features, new_values, config)
    # the *relative* residual (residual as a share of the old value) separates
    # multiplicative policies whose absolute effect scales with the value itself
    old_values = pair.source.numeric_column(target)[changed_indices]
    denominator = np.maximum(np.abs(np.where(np.isfinite(old_values), old_values, 0.0)), 1e-9)
    relative_residuals = residuals / denominator
    # winsorise both residual features: a few noisy point edits must not hijack
    # the k-means centroids and mask the latent group structure
    block = np.column_stack([_winsorise(residuals), _winsorise(relative_residuals)])
    return MinMaxScaler().fit_transform(block)


def partitions_from_labels(
    pair: SnapshotPair,
    condition_attributes: Sequence[str],
    changed_indices: np.ndarray,
    labels: np.ndarray,
    n_partitions: int,
    config: CharlesConfig | None = None,
    scope: np.ndarray | None = None,
) -> list[Partition]:
    """The induction stage of partition discovery: clusters to conditions to masks.

    Translates the clustering of :func:`cluster_changed_rows` into readable,
    first-match partitions.  Unlike the clustering stage this reads the
    condition attributes over the *whole* scope (every row when ``scope`` is
    ``None``): conditions must separate members from everything else in it.
    Rows outside the scope are ignored like rows an earlier partition
    claimed, and no partition mask selects them.
    """
    config = config or CharlesConfig()
    source = pair.source
    outside = None if scope is None else ~scope
    scope_rows = source.num_rows if scope is None else int(np.count_nonzero(scope))

    # Pass 1: independent induction, to learn which clusters can be described
    # cleanly against the whole scope.
    preliminary: list[tuple[np.ndarray, Condition]] = []
    for label in range(int(labels.max()) + 1 if labels.size else 0):
        member_positions = np.nonzero(labels == label)[0]
        if member_positions.size == 0:
            continue
        member_indices = changed_indices[member_positions]
        condition = induce_condition(
            source, member_indices, condition_attributes, config, ignore_mask=outside
        )
        preliminary.append((member_indices, condition))

    # Pass 2: sequential induction under first-match semantics.  Cleanly
    # describable clusters go first (largest first); clusters that could not be
    # described independently go last, where they only need to be separated
    # from whatever no earlier partition claimed — possibly ending up as a
    # legitimate trailing catch-all ("everyone else").  While no row is
    # claimed, a cluster's condition is its pass-1 condition.
    preliminary.sort(key=lambda item: (item[1].is_trivial, -item[0].size))
    partitions: list[Partition] = []
    seen_conditions: set[tuple[Descriptor, ...]] = set()
    claimed = np.zeros(source.num_rows, dtype=bool)
    for position, (member_indices, condition) in enumerate(preliminary):
        is_last = position == len(preliminary) - 1
        if claimed.any():
            ignore_mask = claimed if outside is None else claimed | outside
            condition = induce_condition(
                source, member_indices, condition_attributes, config, ignore_mask=ignore_mask
            )
        if condition.is_trivial and n_partitions > 1:
            # a trailing catch-all is acceptable once every other cluster has a
            # real condition; anywhere else a trivial condition explains nothing
            if not (is_last and partitions):
                continue
        if condition.descriptors in seen_conditions:
            continue
        seen_conditions.add(condition.descriptors)
        mask = condition.mask(source) & ~claimed
        if scope is not None:
            mask &= scope
        coverage = int(np.count_nonzero(mask)) / scope_rows if scope_rows else 0.0
        if coverage < config.min_partition_coverage:
            continue
        fidelity = _jaccard(mask, _indices_to_mask(member_indices, source.num_rows))
        partitions.append(Partition(condition, mask, fidelity, coverage))
        claimed |= mask
    return partitions


# ---------------------------------------------------------------------------
# Step 1: residuals from the global regression line
# ---------------------------------------------------------------------------


def _winsorise(values: np.ndarray, lower: float = 2.0, upper: float = 98.0) -> np.ndarray:
    """Clip a feature to its [lower, upper] percentile range (outlier damping)."""
    if values.size == 0:
        return values
    low, high = np.percentile(values, [lower, upper])
    return np.clip(values, low, high)


def _global_residuals(
    features: np.ndarray, new_values: np.ndarray, config: CharlesConfig
) -> np.ndarray:
    """Residuals of the all-rows regression of the new value on the transformation attrs."""
    try:
        model = LinearRegression(ridge=config.ridge).fit(features, new_values)
        residuals = model.residuals(features, new_values)
    except ModelFitError:
        residuals = new_values - float(np.nanmean(new_values))
    # a row without a finite residual (missing or infinite value) pulls no
    # cluster centroid towards it
    return np.where(np.isfinite(residuals), residuals, 0.0)


# ---------------------------------------------------------------------------
# Step 2: translating clusters into readable conditions
# ---------------------------------------------------------------------------


def induce_condition(
    source: Table,
    member_indices: np.ndarray | Sequence[int],
    condition_attributes: Sequence[str],
    config: CharlesConfig | None = None,
    ignore_mask: np.ndarray | None = None,
) -> Condition:
    """Describe the rows at ``member_indices`` as a conjunction of descriptors.

    Categorical attributes contribute an equality (or small set-membership)
    descriptor when the cluster is sufficiently pure in that attribute and the
    descriptor actually separates the cluster from the rest of the table.
    Numeric attributes contribute a threshold or interval descriptor when the
    cluster's values are separable from the rest; thresholds are chosen to be
    as "normal" (round) as possible within the separating gap.  Attributes that
    do not discriminate are skipped, which keeps conditions short.

    ``ignore_mask`` marks rows that earlier partitions have already claimed:
    under first-match semantics the condition does not need to (and should not
    try to) separate the cluster from those rows.
    """
    config = config or CharlesConfig()
    member_mask = _indices_to_mask(np.asarray(member_indices, dtype=int), source.num_rows)
    rest_mask = ~member_mask
    if ignore_mask is not None:
        rest_mask &= ~np.asarray(ignore_mask, dtype=bool)
    condition = Condition.always()
    for attribute in condition_attributes:
        column = source.schema.column(attribute)
        descriptor = None
        if column.is_categorical:
            descriptor = _categorical_descriptor(source, attribute, member_mask, rest_mask, config)
        else:
            descriptor = _numeric_descriptor(source, attribute, member_mask, rest_mask, config)
        if descriptor is not None:
            condition = condition.conjoined_with(descriptor)
            # narrow the "rest" to rows still matching the partial condition so
            # later numeric thresholds only need to separate within that slice
            rest_mask = rest_mask & descriptor.mask(source)
    return condition


def _categorical_descriptor(
    source: Table,
    attribute: str,
    member_mask: np.ndarray,
    rest_mask: np.ndarray,
    config: CharlesConfig,
) -> Descriptor | None:
    codes, levels = source.categorical_codes(attribute)
    member_codes = codes[member_mask]
    member_codes = member_codes[member_codes >= 0]
    if not member_codes.size:
        return None
    # distinct member values in first-seen order, with their counts
    distinct, first, tally = np.unique(member_codes, return_index=True, return_counts=True)
    order = np.argsort(first)
    distinct, tally = distinct[order], tally[order]
    dominant = int(np.argmax(tally))  # the first-seen value among equally common ones
    purity = int(tally[dominant]) / int(member_codes.size)
    rest_codes = codes[rest_mask]
    if purity >= config.purity_threshold:
        # only useful if the rest of the table is not equally dominated
        rest_share = (
            float(np.mean(rest_codes == distinct[dominant])) if rest_codes.size else 0.0
        )
        if rest_share < 1.0:
            return Descriptor.equals(attribute, levels[distinct[dominant]])
        return None
    # a small set of values can still separate the cluster (e.g. edu IN {MS, PhD})
    member_distinct = [levels[code] for code in distinct[np.argsort(-tally, kind="stable")]]
    rest_values = {levels[code] for code in np.unique(rest_codes).tolist() if code >= 0}
    if 1 < len(member_distinct) <= 3:
        if rest_values and not rest_values.issubset(set(member_distinct)):
            return Descriptor.in_set(attribute, member_distinct)
    # when the cluster spans many values but the *rest* is a small set the
    # complement reads better (e.g. department NOT IN {POL, FRS})
    excluded = rest_values - set(member_distinct)
    if rest_values and 1 <= len(excluded) <= 3 and excluded == rest_values:
        ordered = sorted(excluded, key=str)
        if len(ordered) == 1:
            return Descriptor.not_equals(attribute, ordered[0])
        return Descriptor.not_in_set(attribute, ordered)
    return None


def _numeric_descriptor(
    source: Table,
    attribute: str,
    member_mask: np.ndarray,
    rest_mask: np.ndarray,
    config: CharlesConfig,
) -> Descriptor | None:
    values = source.numeric_column(attribute)
    member_values = values[member_mask]
    # a non-finite value is a missing one: it bounds no threshold
    member_values = member_values[np.isfinite(member_values)]
    rest_values = values[rest_mask]
    rest_values = rest_values[np.isfinite(rest_values)]
    if member_values.size == 0 or rest_values.size == 0:
        return None
    member_low, member_high = float(member_values.min()), float(member_values.max())
    rest_low, rest_high = float(rest_values.min()), float(rest_values.max())
    if member_low > rest_high:
        threshold = _nice_threshold(rest_high, member_low)
        return Descriptor.at_least(attribute, threshold)
    if member_high < rest_low:
        threshold = _nice_threshold(member_high, rest_low)
        return Descriptor.less_than(attribute, threshold)
    # no clean one-sided split; look for the best imperfect threshold (a few
    # mislabelled rows — noise, manual corrections — must not hide a real cut)
    descriptor = _tolerant_threshold_descriptor(
        attribute, member_values, rest_values, config.purity_threshold
    )
    if descriptor is not None:
        return descriptor
    # finally, try an interval if it excludes most of the rest
    inside_rest = float(np.mean((rest_values >= member_low) & (rest_values <= member_high)))
    if inside_rest <= 1.0 - config.purity_threshold:
        return Descriptor.between(attribute, member_low, member_high)
    return None


def _tolerant_threshold_descriptor(
    attribute: str,
    member_values: np.ndarray,
    rest_values: np.ndarray,
    purity_threshold: float,
    max_candidates: int = 64,
) -> Descriptor | None:
    """The single threshold that best separates members from the rest, if good enough.

    Candidate cuts are the midpoints between consecutive distinct values of the
    combined sample (subsampled for wide domains).  A cut is accepted when its
    balanced accuracy — the mean of the member fraction on the member side and
    the rest fraction on the other side — reaches ``purity_threshold``.
    """
    combined = np.unique(np.concatenate([member_values, rest_values]))
    if combined.size < 2:
        return None
    midpoints = (combined[:-1] + combined[1:]) / 2.0
    if midpoints.size > max_candidates:
        positions = np.linspace(0, midpoints.size - 1, max_candidates).astype(int)
        midpoints = midpoints[positions]
    # evaluate every cut at once: counts of values below each cut come from one
    # searchsorted over the sorted samples, and the fractions are exactly the
    # means of the corresponding boolean masks (integer counts over sizes), so
    # the scores are bit-identical to the per-cut loop this replaces
    member_below = np.searchsorted(np.sort(member_values), midpoints, side="left")
    rest_below = np.searchsorted(np.sort(rest_values), midpoints, side="left")
    score_at_least = 0.5 * (
        (member_values.size - member_below) / member_values.size
        + rest_below / rest_values.size
    )
    # candidates arrive in loop order (each cut's at-least score, then its
    # less-than score) and a later candidate only replaces a strictly better
    # one, so the first occurrence of the maximum — argmax's tie-breaking —
    # selects the same (cut, direction) the loop selected
    scores = np.empty(2 * midpoints.size)
    scores[0::2] = score_at_least
    scores[1::2] = 1.0 - score_at_least
    winner = int(np.argmax(scores))
    if scores[winner] < purity_threshold:
        return None
    cut = float(midpoints[winner // 2])
    at_least = winner % 2 == 0
    below = combined[combined < cut]
    above = combined[combined >= cut]
    if below.size and above.size:
        threshold = _nice_threshold(float(below.max()), float(above.min()))
    else:
        threshold = cut
    return Descriptor.at_least(attribute, threshold) if at_least else Descriptor.less_than(
        attribute, threshold
    )


def _nice_threshold(low: float, high: float) -> float:
    """A round value in ``(low, high]`` to use as a split threshold.

    Candidates are generated at several granularities (powers of ten around the
    gap width); the most normal candidate wins, ties broken by proximity to the
    midpoint.  Falls back to the midpoint when the gap contains no round value.
    """
    if high <= low:
        return high
    midpoint = (low + high) / 2.0
    gap = high - low
    candidates: list[float] = [high]
    magnitude = 10.0 ** np.floor(np.log10(gap)) if gap > 0 else 1.0
    for scale in (magnitude * 10, magnitude, magnitude / 10):
        if scale <= 0:
            continue
        start = np.ceil((low + 1e-12) / scale) * scale
        value = start
        while value <= high + 1e-12:
            if low < value <= high:
                candidates.append(float(value))
            if value + scale == value:  # a gap of a few ulps: no step moves it
                break
            value += scale
            if len(candidates) > 64:
                break
    best = max(
        candidates,
        key=lambda candidate: (value_normality(candidate), -abs(candidate - midpoint)),
    )
    # strip floating-point crumbs (e.g. 2.000000000000001) from the threshold,
    # unless rounding would push it out of (low, high] (a gap of a few ulps)
    rounded = float(f"{best:.10g}")
    return rounded if low < rounded <= high else best


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _indices_to_mask(indices: np.ndarray, length: int) -> np.ndarray:
    mask = np.zeros(length, dtype=bool)
    mask[np.asarray(indices, dtype=int)] = True
    return mask


def _jaccard(mask_a: np.ndarray, mask_b: np.ndarray) -> float:
    union = float(np.sum(mask_a | mask_b))
    if union == 0:
        return 1.0
    return float(np.sum(mask_a & mask_b)) / union
