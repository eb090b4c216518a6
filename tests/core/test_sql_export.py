"""Tests for exporting change summaries as SQL UPDATE statements."""

import sqlite3

import pytest

from repro.core.condition import Condition, Descriptor
from repro.core.sql import condition_to_sql, summary_to_sql_update, transformation_to_sql
from repro.core.summary import ChangeSummary, ConditionalTransformation
from repro.core.transformation import LinearTransformation
from repro.relational.table import Table


class TestConditionToSql:
    def test_trivial_condition(self):
        assert condition_to_sql(Condition.always()) == "TRUE"

    def test_equality_and_threshold(self):
        condition = Condition.of(Descriptor.equals("edu", "MS"), Descriptor.at_least("exp", 3))
        assert condition_to_sql(condition) == (
            "edu = 'MS' AND abs(exp) <= 1.7976931348623157e308 AND exp >= 3"
        )

    def test_in_and_not_in(self):
        assert condition_to_sql(Condition.of(Descriptor.in_set("dept", ["POL", "FRS"]))) == (
            "dept IN ('POL', 'FRS')"
        )
        assert "NOT IN" in condition_to_sql(Condition.of(Descriptor.not_in_set("dept", ["POL"])))

    def test_between(self):
        assert condition_to_sql(Condition.of(Descriptor.between("salary", 100, 200))) == (
            "abs(salary) <= 1.7976931348623157e308 AND salary BETWEEN 100 AND 200"
        )

    def test_categorical_inequality_is_not_guarded(self):
        assert condition_to_sql(Condition.of(Descriptor.not_equals("edu", "MS"))) == (
            "edu <> 'MS'"
        )

    def test_string_values_escaped(self):
        condition = Condition.of(Descriptor.equals("name", "O'Brien"))
        assert "O''Brien" in condition_to_sql(condition)

    def test_mixed_case_identifier_quoted(self):
        condition = Condition.of(Descriptor.equals("Department Name", "Police"))
        assert condition_to_sql(condition).startswith('"Department Name"')


class TestNonFiniteValues:
    """An exported condition selects the rows the engine's mask selects.

    The engine treats ±inf like a missing value, which satisfies no numeric
    comparison; the replay runs the rendered condition in SQLite.
    """

    @pytest.mark.parametrize(
        "descriptor",
        [
            Descriptor.at_least("salary", 150),
            Descriptor.less_than("salary", 150),
            Descriptor.between("salary", 50, 250),
            Descriptor.not_equals("salary", 100),
        ],
        ids=str,
    )
    @pytest.mark.parametrize(
        "salaries",
        [[float("inf"), 100.0, 200.0], [float("-inf"), None, 100.0, 200.0]],
        ids=["inf", "-inf-and-null"],
    )
    def test_sqlite_replay_matches_the_engine_mask(self, descriptor, salaries):
        condition = Condition.of(descriptor)
        table = Table.from_rows(
            [{"id": index, "salary": value} for index, value in enumerate(salaries)],
            primary_key="id",
        )
        with sqlite3.connect(":memory:") as connection:
            connection.execute("CREATE TABLE t (id INTEGER, salary REAL)")
            connection.executemany("INSERT INTO t VALUES (?, ?)", list(enumerate(salaries)))
            rows = connection.execute(
                f"SELECT coalesce({condition_to_sql(condition)}, 0) FROM t ORDER BY id"
            ).fetchall()
        assert [bool(selected) for (selected,) in rows] == condition.mask(table).tolist()


class TestTransformationToSql:
    def test_scale_and_shift(self):
        rule = LinearTransformation("bonus", ("bonus",), (1.05,), 1000.0)
        assert transformation_to_sql(rule) == "1.05 * bonus + 1000"

    def test_unit_coefficient_rendered_without_multiplier(self):
        rule = LinearTransformation("bonus", ("bonus",), (1.0,), 500.0)
        assert transformation_to_sql(rule) == "bonus + 500"

    def test_negative_intercept(self):
        rule = LinearTransformation("bonus", ("bonus",), (1.2,), -2000.0)
        assert transformation_to_sql(rule) == "1.2 * bonus - 2000"

    def test_constant_only(self):
        rule = LinearTransformation("bonus", (), (), 12345.0)
        assert transformation_to_sql(rule) == "12345"


class TestSummaryToSqlUpdate:
    def test_full_update_statement(self, fig1_policy):
        sql = summary_to_sql_update(fig1_policy.summary, "employees")
        assert sql.startswith("UPDATE employees")
        assert "SET bonus = CASE" in sql
        assert sql.count("WHEN") == 3
        assert "WHEN edu = 'PhD' THEN 1.05 * bonus + 1000" in sql
        assert sql.rstrip().endswith("END;")
        assert "ELSE bonus" in sql  # identity fallback preserves unchanged rows

    def test_empty_summary_renders_comment(self):
        sql = summary_to_sql_update(ChangeSummary("bonus", ()), "employees")
        assert sql.startswith("--")

    def test_no_fallback_yields_null_else(self):
        summary = ChangeSummary(
            "bonus",
            (ConditionalTransformation(Condition.always(), LinearTransformation.scale("bonus", 1.1)),),
            identity_fallback=False,
        )
        assert "ELSE NULL" in summary_to_sql_update(summary, "t")

    def test_sql_reproduces_summary_semantics_when_interpreted(self, fig1_pair, fig1_policy):
        """Sanity-check first-match CASE semantics by mimicking the evaluation by hand."""
        summary = fig1_policy.summary
        predictions = summary.apply(fig1_pair.source)
        # interpret the CASE manually: first matching arm wins, reading old values
        for index, row in enumerate(fig1_pair.source.rows()):
            expected = None
            for ct in summary.conditional_transformations:
                if ct.condition.mask(fig1_pair.source)[index]:
                    expected = ct.transformation.apply(fig1_pair.source)[index]
                    break
            if expected is None:
                expected = row["bonus"]
            assert predictions[index] == pytest.approx(expected)
