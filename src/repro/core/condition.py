"""Conditions: the "why" half of a conditional transformation.

A ChARLES condition is a conjunction of *descriptors* over the condition
attributes — for example ``edu = 'MS' AND exp >= 3``.  Each descriptor
identifies a segment of the data; the condition as a whole selects the
partition that a transformation applies to.  Conditions know how to evaluate
themselves against a table, report their coverage, measure their complexity
(for the interpretability score), and render themselves as text.  The text is
for people only: it rounds constants, so the descriptors themselves, not the
text, identify a condition.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterable

import numpy as np

from repro.core.normality import normality_of_values
from repro.exceptions import ConfigurationError
from repro.relational.table import Table

__all__ = ["DescriptorKind", "Descriptor", "Condition"]


class DescriptorKind(str, Enum):
    """The shapes a single descriptor can take."""

    EQUALS = "equals"
    NOT_EQUALS = "not_equals"
    LESS_THAN = "less_than"
    AT_LEAST = "at_least"
    BETWEEN = "between"
    IN_SET = "in_set"
    NOT_IN_SET = "not_in_set"


@dataclass(frozen=True)
class Descriptor:
    """One atomic predicate over a single attribute.

    Use the class-method constructors (:meth:`equals`, :meth:`less_than`,
    :meth:`at_least`, :meth:`between`, :meth:`in_set`) rather than the raw
    constructor so the value layout always matches the kind.
    """

    attribute: str
    kind: DescriptorKind
    values: tuple[Any, ...]

    # -- constructors ----------------------------------------------------------

    @classmethod
    def equals(cls, attribute: str, value: Any) -> "Descriptor":
        """``attribute = value``."""
        return cls(attribute, DescriptorKind.EQUALS, (value,))

    @classmethod
    def not_equals(cls, attribute: str, value: Any) -> "Descriptor":
        """``attribute != value``."""
        return cls(attribute, DescriptorKind.NOT_EQUALS, (value,))

    @classmethod
    def less_than(cls, attribute: str, threshold: float) -> "Descriptor":
        """``attribute < threshold``."""
        return cls(attribute, DescriptorKind.LESS_THAN, (float(threshold),))

    @classmethod
    def at_least(cls, attribute: str, threshold: float) -> "Descriptor":
        """``attribute >= threshold``."""
        return cls(attribute, DescriptorKind.AT_LEAST, (float(threshold),))

    @classmethod
    def between(cls, attribute: str, low: float, high: float) -> "Descriptor":
        """``low <= attribute <= high`` (inclusive)."""
        if high < low:
            raise ConfigurationError(f"between descriptor has high < low ({high} < {low})")
        return cls(attribute, DescriptorKind.BETWEEN, (float(low), float(high)))

    @classmethod
    def in_set(cls, attribute: str, values: Iterable[Any]) -> "Descriptor":
        """``attribute IN (values...)``."""
        values = tuple(values)
        if not values:
            raise ConfigurationError("in_set descriptor needs at least one value")
        return cls(attribute, DescriptorKind.IN_SET, values)

    @classmethod
    def not_in_set(cls, attribute: str, values: Iterable[Any]) -> "Descriptor":
        """``attribute NOT IN (values...)`` — the complement of a small set."""
        values = tuple(values)
        if not values:
            raise ConfigurationError("not_in_set descriptor needs at least one value")
        return cls(attribute, DescriptorKind.NOT_IN_SET, values)

    # -- semantics -------------------------------------------------------------

    def mask(self, table: Table) -> np.ndarray:
        """Boolean row mask of the rows satisfying this descriptor.

        On a categorical column each level (and the missing value, code
        ``-1``) is tested once and the answers are gathered by code, so a
        missing value satisfies ``!=`` and ``NOT IN``.  On a numeric column a
        comparison or range never holds on NaN or ±inf, and ``IN`` tests
        membership value by value.
        """
        if table.schema.column(self.attribute).is_categorical:
            codes, levels = table.categorical_codes(self.attribute)
            holds = self._value_test()
            return np.array([holds(level) for level in (*levels, None)], dtype=bool)[codes]
        values = table.numeric_column(self.attribute)
        if self.kind is DescriptorKind.BETWEEN:
            low, high = float(self.values[0]), float(self.values[1])
            return (values >= low) & (values <= high) & np.isfinite(values)
        bound = _scalar(self.values[0])
        if self.kind in _COMPARATORS and isinstance(bound, float):
            return _COMPARATORS[self.kind](values, bound) & np.isfinite(values) & math.isfinite(bound)
        holds = self._value_test()
        return np.array([holds(value) for value in values.tolist()], dtype=bool)

    def _value_test(self) -> Callable[[Any], bool]:
        """This descriptor as a test of one value (``None`` when missing)."""
        if self.kind is DescriptorKind.IN_SET:
            return set(self.values).__contains__
        if self.kind is DescriptorKind.NOT_IN_SET:
            allowed = set(self.values)
            return lambda value: value not in allowed
        if self.kind is DescriptorKind.BETWEEN:
            low, high = float(self.values[0]), float(self.values[1])

            def within(value: Any) -> bool:
                number = math.nan if value is None else float(value)
                return math.isfinite(number) and low <= number <= high

            return within
        compare, bound = _COMPARATORS[self.kind], _scalar(self.values[0])
        if self.kind in (DescriptorKind.EQUALS, DescriptorKind.NOT_EQUALS):
            return lambda value: bool(compare(value, bound))
        # an ordering never holds on a missing value
        return lambda value: value is not None and bound is not None and bool(compare(value, bound))

    @property
    def numeric_constants(self) -> list[float]:
        """The numeric constants appearing in this descriptor (for normality)."""
        return [float(value) for value in self.values
                if isinstance(value, (int, float)) and not isinstance(value, bool)]

    def normality(self) -> float:
        """Mean normality of this descriptor's numeric constants (1.0 if none)."""
        return normality_of_values(self.numeric_constants)

    def __str__(self) -> str:
        if self.kind is DescriptorKind.EQUALS:
            return f"{self.attribute} = {_render(self.values[0])}"
        if self.kind is DescriptorKind.NOT_EQUALS:
            return f"{self.attribute} != {_render(self.values[0])}"
        if self.kind is DescriptorKind.LESS_THAN:
            return f"{self.attribute} < {_render(self.values[0])}"
        if self.kind is DescriptorKind.AT_LEAST:
            return f"{self.attribute} >= {_render(self.values[0])}"
        if self.kind is DescriptorKind.BETWEEN:
            return f"{self.attribute} in [{_render(self.values[0])}, {_render(self.values[1])}]"
        rendered = ", ".join(_render(value) for value in self.values)
        if self.kind is DescriptorKind.NOT_IN_SET:
            return f"{self.attribute} not in {{{rendered}}}"
        return f"{self.attribute} in {{{rendered}}}"


_COMPARATORS: dict[DescriptorKind, Callable[[Any, Any], Any]] = {
    DescriptorKind.EQUALS: operator.eq,
    DescriptorKind.NOT_EQUALS: operator.ne,
    DescriptorKind.LESS_THAN: operator.lt,
    DescriptorKind.AT_LEAST: operator.ge,
}


def _scalar(value: Any) -> Any:
    """A comparison constant as compared: numbers (not bools) as ``float``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    return float(value)


def _render(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, str):
        return f"'{value}'"
    return str(value)


@dataclass(frozen=True)
class Condition:
    """A conjunction of :class:`Descriptor` objects.

    The empty condition (``Condition.always()``) is true for every row and is
    used for summaries that apply a single transformation to the whole table.
    """

    descriptors: tuple[Descriptor, ...] = ()

    @classmethod
    def always(cls) -> "Condition":
        """The condition that matches every row."""
        return cls(())

    @classmethod
    def of(cls, *descriptors: Descriptor) -> "Condition":
        """Build a condition from descriptors (duplicates on one attribute allowed)."""
        return cls(tuple(descriptors))

    # -- semantics -------------------------------------------------------------

    @property
    def is_trivial(self) -> bool:
        """Whether this condition matches every row."""
        return not self.descriptors

    def mask(self, table: Table) -> np.ndarray:
        """Boolean row mask of the rows satisfying every descriptor."""
        mask = np.ones(table.num_rows, dtype=bool)
        for descriptor in self.descriptors:
            mask &= descriptor.mask(table)
        return mask

    def coverage(self, table: Table) -> float:
        """Fraction of rows of ``table`` that satisfy this condition."""
        if table.num_rows == 0:
            return 0.0
        return float(self.mask(table).mean())

    def attributes(self) -> list[str]:
        """The distinct attributes referenced, in first-use order."""
        seen: dict[str, None] = {}
        for descriptor in self.descriptors:
            seen.setdefault(descriptor.attribute, None)
        return list(seen)

    # -- interpretability inputs ----------------------------------------------

    @property
    def complexity(self) -> int:
        """Number of descriptors (0 for the trivial condition)."""
        return len(self.descriptors)

    def normality(self) -> float:
        """Mean normality of all numeric constants used by the descriptors."""
        constants = [
            constant
            for descriptor in self.descriptors
            for constant in descriptor.numeric_constants
        ]
        return normality_of_values(constants)

    def conjoined_with(self, descriptor: Descriptor) -> "Condition":
        """A new condition with ``descriptor`` appended."""
        return Condition(self.descriptors + (descriptor,))

    def __str__(self) -> str:
        if not self.descriptors:
            return "TRUE"
        return " AND ".join(str(descriptor) for descriptor in self.descriptors)
