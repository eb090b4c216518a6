"""The setup assistant: shortlisting condition and transformation attributes.

For datasets with many attributes the summary search space explodes, so
ChARLES "estimates the influence of other attributes on the target attribute
using correlation analysis and presents to the user a shortlist of attributes
that are most likely to be effective for explaining the changes" (paper §2,
Fig. 3 and Fig. 4 steps 4–5).  :class:`SetupAssistant` reproduces that step:
it ranks every attribute by its association with the target attribute's
evolution and applies the correlation threshold (default 0.5) plus the user's
``c`` and ``t`` caps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import CharlesConfig
from repro.exceptions import DiscoveryError
from repro.ml.correlation import association, correlation_ratio, pearson
from repro.relational.snapshot import SnapshotPair

__all__ = ["AttributeSuggestion", "SetupSuggestions", "SetupAssistant"]


@dataclass(frozen=True)
class AttributeSuggestion:
    """One candidate attribute with its estimated influence on the target."""

    attribute: str
    association: float
    selected: bool

    def __str__(self) -> str:
        marker = "*" if self.selected else " "
        return f"[{marker}] {self.attribute}: {self.association:.3f}"


@dataclass(frozen=True)
class SetupSuggestions:
    """Ranked candidate attributes for conditions and transformations."""

    target: str
    condition_candidates: tuple[AttributeSuggestion, ...]
    transformation_candidates: tuple[AttributeSuggestion, ...]

    @property
    def selected_condition_attributes(self) -> list[str]:
        """Condition attributes that passed the threshold and the ``c`` cap."""
        return [s.attribute for s in self.condition_candidates if s.selected]

    @property
    def selected_transformation_attributes(self) -> list[str]:
        """Transformation attributes that passed the threshold and the ``t`` cap."""
        return [s.attribute for s in self.transformation_candidates if s.selected]

    def describe(self) -> str:
        """Human-readable rendering of both shortlists."""
        lines = [f"Attribute suggestions for target '{self.target}':", "  condition candidates:"]
        lines.extend(f"    {suggestion}" for suggestion in self.condition_candidates)
        lines.append("  transformation candidates:")
        lines.extend(f"    {suggestion}" for suggestion in self.transformation_candidates)
        return "\n".join(lines)


class SetupAssistant:
    """Correlation-based attribute shortlisting (paper Fig. 3, "Setup Assistant")."""

    def __init__(self, config: CharlesConfig | None = None):
        self._config = config or CharlesConfig()

    def suggest(self, pair: SnapshotPair, target: str) -> SetupSuggestions:
        """Rank candidate condition and transformation attributes for ``target``.

        The influence of a candidate is the strongest association between the
        candidate's source-version values and either the target's new values or
        the per-row change (delta) of the target.  Using the delta as well
        matters because an attribute can drive *how the value changed* without
        being correlated with the value itself (e.g. education level vs. bonus
        increase).
        """
        column = pair.schema.column(target)
        if not column.is_numeric:
            raise DiscoveryError(
                f"target attribute {target!r} is {column.dtype.value}; ChARLES explains "
                "numeric attributes"
            )
        config = self._config
        source = pair.source
        new_values = pair.target.numeric_column(target)
        delta = pair.delta(target)
        scored: dict[str, float] = {}
        for name in source.column_names:
            if name == target or name == pair.key:
                continue
            candidate_column = source.schema.column(name)
            if candidate_column.is_numeric:
                values = source.numeric_column(name)
                with_new = abs(_nan_to_zero(pearson(values, new_values)))
                with_delta = abs(_nan_to_zero(pearson(values, delta)))
            elif _all_distinct(source, name):
                # a row identifier: one row per group makes the correlation
                # ratio trivially 1 while the column explains nothing
                with_new = with_delta = 0.0
            else:
                values = source.column(name)
                with_new = _nan_to_zero(correlation_ratio(values, new_values))
                with_delta = _nan_to_zero(correlation_ratio(values, delta))
            scored[name] = max(with_new, with_delta)

        ranked = sorted(scored.items(), key=lambda item: (-item[1], item[0]))
        condition_candidates = self._select(
            ranked, limit=config.max_condition_attributes, numeric_only=False, source=source
        )
        # the target's own previous value is always a transformation candidate
        # ("bonus of the previous year" in the demo): it is the anchor of
        # update rules of the form new = a * old + b.
        transformation_ranked = [(target, 1.0)] + [
            (name, score) for name, score in ranked if source.schema.column(name).is_numeric
        ]
        transformation_candidates = self._select(
            transformation_ranked,
            limit=config.max_transformation_attributes,
            numeric_only=True,
            source=source,
        )
        return SetupSuggestions(
            target=target,
            condition_candidates=tuple(condition_candidates),
            transformation_candidates=tuple(transformation_candidates),
        )

    def _select(
        self, ranked: list[tuple[str, float]], limit: int, numeric_only: bool, source
    ) -> list[AttributeSuggestion]:
        suggestions: list[AttributeSuggestion] = []
        selected_count = 0
        for name, score in ranked:
            if numeric_only and not source.schema.column(name).is_numeric:
                continue
            passes_threshold = score > self._config.correlation_threshold
            selected = passes_threshold and selected_count < limit
            if selected:
                selected_count += 1
            suggestions.append(AttributeSuggestion(name, float(score), selected))
        # if the threshold rejected everything, still select the top-ranked
        # candidates so the engine has something to work with
        if selected_count == 0 and suggestions:
            promoted = []
            for index, suggestion in enumerate(suggestions):
                if index < limit and suggestion.association > 0.0:
                    promoted.append(
                        AttributeSuggestion(suggestion.attribute, suggestion.association, True)
                    )
                else:
                    promoted.append(suggestion)
            suggestions = promoted
        return suggestions


def _nan_to_zero(value: float) -> float:
    return 0.0 if value is None or np.isnan(value) else float(value)


def _all_distinct(table, name: str) -> bool:
    """Whether every non-missing value of categorical column ``name`` is distinct."""
    codes, _ = table.categorical_codes(name)
    present = codes[codes >= 0]
    return np.unique(present).size == present.size
