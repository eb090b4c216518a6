"""Association measures between attributes.

The setup assistant (paper §2, Fig. 3) shortlists the attributes "that have a
correlation with the target attribute greater than 0.5".  The target attribute
is numeric, but candidate condition attributes may be categorical, so a single
Pearson coefficient is not enough.  This module provides the measures the
assistant needs:

* :func:`pearson` and :func:`spearman` for numeric–numeric association,
* :func:`correlation_ratio` (eta) for categorical–numeric association,
* :func:`cramers_v` for categorical–categorical association, and
* :func:`association`, which dispatches on the column types of a table.

All functions return values in ``[-1, 1]`` (symmetric measures are
non-negative) and ``nan`` when the association is undefined (e.g. constant
columns or empty input).  A non-finite numeric value counts as missing.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.relational.table import Table

__all__ = [
    "pearson",
    "spearman",
    "correlation_ratio",
    "cramers_v",
    "association",
    "association_with_target",
]


def _clean_numeric_pair(x: Sequence[float], y: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    x_array = np.asarray(x, dtype=float)
    y_array = np.asarray(y, dtype=float)
    usable = np.isfinite(x_array) & np.isfinite(y_array)
    return x_array[usable], y_array[usable]


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson linear correlation coefficient between two numeric sequences."""
    x_array, y_array = _clean_numeric_pair(x, y)
    if x_array.size < 2:
        return float("nan")
    x_std = float(np.std(x_array))
    y_std = float(np.std(y_array))
    if x_std == 0.0 or y_std == 0.0:
        return float("nan")
    covariance = float(np.mean((x_array - x_array.mean()) * (y_array - y_array.mean())))
    return covariance / (x_std * y_std)


def _rank(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based), handling ties the way Spearman expects."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty_like(order, dtype=float)
    ranks[order] = np.arange(1, values.size + 1, dtype=float)
    # average the ranks of tied values
    sorted_values = values[order]
    start = 0
    for index in range(1, values.size + 1):
        if index == values.size or sorted_values[index] != sorted_values[start]:
            if index - start > 1:
                tied = order[start:index]
                ranks[tied] = ranks[tied].mean()
            start = index
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation between two numeric sequences."""
    x_array, y_array = _clean_numeric_pair(x, y)
    if x_array.size < 2:
        return float("nan")
    return pearson(_rank(x_array), _rank(y_array))


def correlation_ratio(categories: Sequence[Any], values: Sequence[float]) -> float:
    """Correlation ratio (eta) between a categorical and a numeric attribute.

    Eta is the square root of the between-group variance share: 0 means the
    numeric attribute's mean is identical in every category, 1 means the
    category fully determines the numeric value.
    """
    values_array = np.asarray(values, dtype=float)
    usable = [
        (category, value)
        for category, value in zip(categories, values_array.tolist())
        if category is not None and np.isfinite(value)
    ]
    if len(usable) < 2:
        return float("nan")
    groups: dict[Any, list[float]] = {}
    for category, value in usable:
        groups.setdefault(category, []).append(value)
    all_values = np.array([value for _, value in usable], dtype=float)
    grand_mean = float(all_values.mean())
    total_variance = float(np.sum((all_values - grand_mean) ** 2))
    if total_variance == 0.0:
        return float("nan")
    between = sum(
        len(group) * (float(np.mean(group)) - grand_mean) ** 2 for group in groups.values()
    )
    return float(np.sqrt(between / total_variance))


def cramers_v(x: Sequence[Any], y: Sequence[Any]) -> float:
    """Cramér's V between two categorical attributes (0 = independent, 1 = determined)."""
    pairs = [(a, b) for a, b in zip(x, y) if a is not None and b is not None]
    if len(pairs) < 2:
        return float("nan")
    x_values = sorted({a for a, _ in pairs}, key=str)
    y_values = sorted({b for _, b in pairs}, key=str)
    if len(x_values) < 2 or len(y_values) < 2:
        return float("nan")
    x_index = {value: i for i, value in enumerate(x_values)}
    y_index = {value: i for i, value in enumerate(y_values)}
    table = np.zeros((len(x_values), len(y_values)), dtype=float)
    for a, b in pairs:
        table[x_index[a], y_index[b]] += 1.0
    n = table.sum()
    row_totals = table.sum(axis=1, keepdims=True)
    column_totals = table.sum(axis=0, keepdims=True)
    expected = row_totals @ column_totals / n
    with np.errstate(divide="ignore", invalid="ignore"):
        chi2 = np.nansum(np.where(expected > 0, (table - expected) ** 2 / expected, 0.0))
    denominator = n * (min(len(x_values), len(y_values)) - 1)
    if denominator == 0:
        return float("nan")
    return float(np.sqrt(chi2 / denominator))


def association(table: Table, attribute_a: str, attribute_b: str) -> float:
    """Association strength between two columns of ``table``, in ``[0, 1]``.

    Dispatches on the column types: numeric–numeric uses ``|Pearson|``,
    categorical–numeric the correlation ratio, categorical–categorical
    Cramér's V.
    """
    column_a = table.schema.column(attribute_a)
    column_b = table.schema.column(attribute_b)
    if column_a.is_numeric and column_b.is_numeric:
        value = pearson(table.numeric_column(attribute_a), table.numeric_column(attribute_b))
        return abs(value) if not np.isnan(value) else float("nan")
    if column_a.is_numeric and column_b.is_categorical:
        return correlation_ratio(table.column(attribute_b), table.numeric_column(attribute_a))
    if column_a.is_categorical and column_b.is_numeric:
        return correlation_ratio(table.column(attribute_a), table.numeric_column(attribute_b))
    return cramers_v(table.column(attribute_a), table.column(attribute_b))


def association_with_target(
    table: Table, target: str, candidates: Sequence[str] | None = None
) -> dict[str, float]:
    """Association of every candidate attribute with ``target``.

    ``nan`` associations are reported as 0.0 so that constant or empty columns
    simply rank last instead of propagating NaNs into the ranking.
    """
    names = list(candidates) if candidates is not None else [
        name for name in table.column_names if name != target
    ]
    scores: dict[str, float] = {}
    for name in names:
        if name == target:
            continue
        value = association(table, target, name)
        scores[name] = 0.0 if np.isnan(value) else float(value)
    return scores
