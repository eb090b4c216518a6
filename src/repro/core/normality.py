"""Normality of numeric constants: how "round" a number looks to a human.

The paper prefers summaries whose constants are *normal*: "Age > 25 is more
normal than Age > 23.796, and 5% for a salary increase is more normal (and
interpretable) than 2.479%".  The original system "relies on domain expertise"
for this notion; the reproduction implements a domain-independent prior based
on decimal roundness:

* a value is maximally normal when it is a small multiple of a power of ten
  (25, 1000, 0.05, ...);
* normality decays with the number of significant decimal digits needed to
  write the value exactly;
* :func:`snap_candidates` proposes the nearest rounder values so that fitted
  coefficients can be nudged onto normal constants when doing so does not hurt
  accuracy (handled by the discovery engine).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence

__all__ = ["value_normality", "normality_of_values", "snap_candidates", "snap_value"]

# Significant decimal digits -> normality score.  One significant digit (5,
# 200, 0.3) is perfectly normal; beyond five digits a constant reads as an
# arbitrary number.
_DIGIT_SCORES = {0: 1.0, 1: 1.0, 2: 0.85, 3: 0.6, 4: 0.35, 5: 0.15}
_MAX_SIGNIFICANT_DIGITS = 12


@lru_cache(maxsize=256)
def _significant_decimal_digits(value: float) -> int:
    """Number of significant decimal digits needed to write ``value`` exactly.

    ``1050`` needs 3 (1.05e3), ``0.05`` needs 1 (5e-2), ``23.796`` needs 5.
    Values that cannot be represented with :data:`_MAX_SIGNIFICANT_DIGITS`
    digits (i.e. arbitrary floats) are reported as that maximum.

    Cached: snapping and threshold search ask for the same constants many
    times.  The count depends only on ``abs(value)``, so keys that compare
    equal (``0.0`` and ``-0.0``, ``2`` and ``2.0``, a numpy float and its
    Python float) may share an entry.
    """
    if value == 0:
        return 0
    magnitude = abs(value)
    for digits in range(1, _MAX_SIGNIFICANT_DIGITS + 1):
        rounded = float(f"{magnitude:.{digits - 1}e}")
        if math.isclose(rounded, magnitude, rel_tol=1e-12, abs_tol=1e-15):
            return digits
    return _MAX_SIGNIFICANT_DIGITS


def value_normality(value: float) -> float:
    """Normality of a single constant, in ``[0, 1]``.

    Integers and short decimals score high; long decimal tails score low.
    ``0`` and ``1`` (the constants of the identity transformation) are
    perfectly normal.  Multiplicative factors close to 1 (e.g. ``1.05`` for a
    5 % raise) are scored by the roundness of the percentage they encode, so
    "+5 %" is as normal as "5".
    """
    if value is None or math.isnan(value) or math.isinf(value):
        return 0.0
    value = float(value)
    digits = _significant_decimal_digits(value)
    score = _DIGIT_SCORES.get(digits, 0.05)
    if 0.5 < abs(value) < 1.5 and value != 1.0:
        # a factor like 1.05 reads as "a 5% change": judge the percentage part
        percentage_digits = _significant_decimal_digits(abs(value) - 1.0)
        score = max(score, _DIGIT_SCORES.get(percentage_digits, 0.05))
    return score


def normality_of_values(values: Iterable[float]) -> float:
    """Mean normality of a collection of constants (1.0 for an empty collection)."""
    values = [value for value in values]
    if not values:
        return 1.0
    return sum(value_normality(value) for value in values) / len(values)


def snap_candidates(value: float, max_candidates: int = 6) -> list[float]:
    """Nearby "rounder" values for ``value``, ordered from roundest to least round.

    Candidates are produced by rounding to 1..4 significant digits and to the
    nearest integer; duplicates and the original value are removed.
    :meth:`~repro.core.transformation.LinearTransformation.snapped` weighs them
    against the accuracy they cost.
    """
    if value is None or math.isnan(value) or math.isinf(value) or value == 0:
        return []
    candidates: list[float] = []
    seen: set[float] = set()
    for digits in range(1, 5):
        rounded = float(f"{value:.{digits - 1}e}")
        if rounded not in seen and rounded != 0:
            seen.add(rounded)
            candidates.append(rounded)
    nearest_integer = float(round(value))
    if nearest_integer not in seen and nearest_integer != 0:
        candidates.append(nearest_integer)
    candidates = [candidate for candidate in candidates if candidate != value]
    candidates.sort(key=lambda candidate: (-value_normality(candidate), abs(candidate - value)))
    return candidates[:max_candidates]


def snap_value(value: float, relative_tolerance: float = 0.01) -> float:
    """The roundest candidate within ``relative_tolerance`` of ``value``.

    Returns ``value`` unchanged when no candidate is close enough.  This is the
    context-free variant of snapping used for condition thresholds, where there
    is no accuracy metric to consult.
    """
    if value is None or math.isnan(value) or math.isinf(value) or value == 0:
        return value
    best = value
    best_normality = value_normality(value)
    for candidate in snap_candidates(value):
        if abs(candidate - value) <= relative_tolerance * max(abs(value), 1e-12):
            candidate_normality = value_normality(candidate)
            if candidate_normality > best_normality:
                best = candidate
                best_normality = candidate_normality
    return best
