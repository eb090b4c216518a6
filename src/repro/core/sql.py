"""Exporting change summaries as executable SQL.

A recovered change summary is, operationally, the batch UPDATE the database
administrator could have run to produce the target snapshot from the source.
This module renders a :class:`~repro.core.summary.ChangeSummary` as exactly
that statement — a single ``UPDATE ... SET target = CASE WHEN ... END`` whose
``CASE`` arms mirror the summary's first-match semantics — plus helpers for
rendering individual conditions and transformations as SQL expressions.  The
export is useful both for documentation ("here is the policy as SQL") and for
replaying a recovered policy on another snapshot inside a real DBMS.
"""

from __future__ import annotations

from typing import Any

from repro.core.condition import Condition, Descriptor, DescriptorKind
from repro.core.summary import ChangeSummary
from repro.core.transformation import LinearTransformation

__all__ = ["condition_to_sql", "transformation_to_sql", "summary_to_sql_update"]

_ZERO_EPSILON = 1e-10


def _quote_identifier(name: str) -> str:
    """Quote an identifier when it is not a plain lowercase/underscore name."""
    if name.isidentifier() and name == name.lower():
        return name
    escaped = name.replace('"', '""')
    return f'"{escaped}"'


def _literal(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return f"{value:g}"
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"


def _finite(column: str) -> str:
    """A term that is false for ±inf and NULL in ``column``.

    The engine's numeric predicates treat ±inf like a missing value, which
    satisfies no comparison; in SQL ``inf >= 150`` and ``inf <> 150`` hold.
    The bound is float64's largest value, a valid literal in any DBMS.
    """
    return f"abs({column}) <= 1.7976931348623157e308"


def _or_null(comparison: str, column: str) -> str:
    """``comparison`` made to hold on NULL, as the engine's negations do.

    A categorical ``<>`` and every ``NOT IN`` hold on a missing value in the
    engine; in SQL they yield NULL, which a ``WHERE`` treats as false.
    """
    return f"({comparison} OR {column} IS NULL)"


def _descriptor_to_sql(descriptor: Descriptor) -> str:
    column = _quote_identifier(descriptor.attribute)
    kind = descriptor.kind
    value = descriptor.values[0]
    if kind is DescriptorKind.EQUALS:
        return f"{column} = {_literal(value)}"
    if kind is DescriptorKind.NOT_EQUALS:
        comparison = f"{column} <> {_literal(value)}"
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return _or_null(comparison, column)
        return f"{_finite(column)} AND {comparison}"
    if kind is DescriptorKind.LESS_THAN:
        return f"{_finite(column)} AND {column} < {_literal(value)}"
    if kind is DescriptorKind.AT_LEAST:
        return f"{_finite(column)} AND {column} >= {_literal(value)}"
    if kind is DescriptorKind.BETWEEN:
        high = descriptor.values[1]
        return f"{_finite(column)} AND {column} BETWEEN {_literal(value)} AND {_literal(high)}"
    rendered = ", ".join(_literal(value) for value in descriptor.values)
    if kind is DescriptorKind.NOT_IN_SET:
        return _or_null(f"{column} NOT IN ({rendered})", column)
    return f"{column} IN ({rendered})"


def condition_to_sql(condition: Condition) -> str:
    """Render a condition as a SQL boolean expression (``TRUE`` for the trivial one)."""
    if condition.is_trivial:
        return "TRUE"
    return " AND ".join(_descriptor_to_sql(descriptor) for descriptor in condition.descriptors)


def transformation_to_sql(transformation: LinearTransformation) -> str:
    """Render a transformation as a SQL arithmetic expression over source columns."""
    terms: list[str] = []
    for name, coefficient in zip(transformation.feature_names, transformation.coefficients):
        if abs(coefficient) <= _ZERO_EPSILON:
            continue
        column = _quote_identifier(name)
        if abs(coefficient - 1.0) <= _ZERO_EPSILON:
            terms.append(column)
        else:
            terms.append(f"{coefficient:g} * {column}")
    if abs(transformation.intercept) > _ZERO_EPSILON or not terms:
        terms.append(f"{transformation.intercept:g}")
    expression = " + ".join(terms)
    return expression.replace("+ -", "- ")


def summary_to_sql_update(summary: ChangeSummary, table_name: str) -> str:
    """Render a summary as one ``UPDATE`` statement with first-match ``CASE`` arms.

    Using a single ``CASE`` expression (rather than one ``UPDATE`` per rule)
    matters for correctness: every arm reads the *pre-update* column values, so
    the statement reproduces the summary's semantics even when conditions
    overlap or transformations reference the target column itself.
    """
    target = _quote_identifier(summary.target)
    table = _quote_identifier(table_name)
    if not summary.conditional_transformations:
        return f"-- no changes recovered for {target}; nothing to update on {table};"
    lines = [f"UPDATE {table}", f"SET {target} = CASE"]
    for ct in summary.conditional_transformations:
        condition_sql = condition_to_sql(ct.condition)
        value_sql = transformation_to_sql(ct.transformation)
        lines.append(f"    WHEN {condition_sql} THEN {value_sql}")
    fallback = target if summary.identity_fallback else "NULL"
    lines.append(f"    ELSE {fallback}")
    lines.append("END;")
    return "\n".join(lines)
