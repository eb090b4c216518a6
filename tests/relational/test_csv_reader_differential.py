"""The CSV reader against the row-by-row reader it replaced.

``read_csv_text`` converts each column once, straight into table storage: a
numeric string goes through ``float``/``int`` before ``Column.coerce``, and a
categorical column is coded from the raw strings.  The oracle below is the
reader that coerced every column to a Python list first and let ``Table``
encode it.  On generated CSV text both must build equal tables (schema,
dtypes, values, categorical level order, float bits and exact big ints) or
raise the same error.  Run it under two ``PYTHONHASHSEED`` values: inference
iterates a ``set`` of strings, so its verdict must not depend on the order.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, TextIO

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import SchemaError
from repro.relational.csv_io import infer_column_dtype, read_csv_text
from repro.relational.schema import Column, DType, Schema
from repro.relational.table import Table, _NumericData

# -- the oracle: the reader as it was before columns were encoded directly ----


def _oracle_infer_column_dtype(values: Iterable[str], name: str | None = None) -> DType:
    missing = {"", "na", "n/a", "nan", "null", "none"}
    saw_value = False
    could_be_int = True
    could_be_float = True
    could_be_bool = True
    for raw in set(values):
        text = raw.strip()
        if text.lower() in missing:
            continue
        saw_value = True
        lowered = text.lower()
        if lowered not in ("true", "false", "t", "f", "yes", "no"):
            could_be_bool = False
        cleaned = text.replace(",", "").replace("$", "")
        try:
            float(cleaned)
        except ValueError:
            could_be_float = False
            could_be_int = False
        else:
            try:
                int(cleaned)
            except ValueError:
                could_be_int = False
    if not saw_value:
        label = "the values" if name is None else f"column {name!r}"
        raise SchemaError(
            f"cannot infer a dtype for {label}: every value is missing; "
            "declare an explicit schema"
        )
    if could_be_bool:
        return DType.BOOL
    if could_be_int:
        return DType.INT
    if could_be_float:
        return DType.FLOAT
    return DType.STRING


def _oracle_coerce_text(column: Column, raw_values: list[str]) -> list:
    coerced = {raw: column.coerce(raw) for raw in dict.fromkeys(raw_values)}
    return [coerced[raw] for raw in raw_values]


def _oracle_read(
    handle: TextIO, schema: Schema | None, primary_key: str | None, delimiter: str
) -> Table:
    reader = csv.reader(handle, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration as exc:
        raise SchemaError("CSV input is empty (no header row)") from exc
    header = [name.strip() for name in header]
    if any(not name for name in header):
        raise SchemaError("CSV header contains an empty column name")
    raw_rows = [row for row in reader if row]
    for row in raw_rows:
        if len(row) != len(header):
            raise SchemaError(
                f"CSV row has {len(row)} fields but header has {len(header)}: {row!r}"
            )
    raw_columns = {
        name: [row[i] for row in raw_rows] for i, name in enumerate(header)
    }
    if schema is None:
        schema = Schema(
            tuple(
                Column(name, _oracle_infer_column_dtype(raw_columns[name], name))
                for name in header
            ),
            primary_key=primary_key,
        )
    elif primary_key is not None:
        schema = schema.with_primary_key(primary_key)
    return Table(
        schema,
        {
            column.name: _oracle_coerce_text(column, raw_columns.get(column.name, []))
            for column in schema
        },
    )


def _oracle_read_csv_text(text: str, schema: Schema | None = None,
                          primary_key: str | None = None) -> Table:
    return _oracle_read(io.StringIO(text), schema, primary_key, ",")


# -- generated CSV text ----------------------------------------------------------

_MISSING = ["", "na", "n/a", "nan", "null", "none"]
_BOOLS = ["true", "false", "t", "f", "yes", "no", "y", "n", "1", "0"]


def _cased(word: str) -> st.SearchStrategy[str]:
    """``word`` in any letter case."""
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda upper: "".join(c.upper() if u else c for c, u in zip(word, upper))
    )


def _padded(cells: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    pad = st.sampled_from(["", " ", "  ", "\t", "\xa0"])
    return st.tuples(pad, cells, pad).map("".join)


_missing = _padded(st.sampled_from(_MISSING).flatmap(_cased))
_bools = _padded(st.sampled_from(_BOOLS).flatmap(_cased))
_ints = st.one_of(
    st.integers(-1000, 1000).map(str),
    # beyond ±2**53, where float64 is no longer exact
    st.integers(2**53 - 3, 2**53 + 3).map(str),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["1_000", "+7", "-0", "007", "1,000", "12,345,678"]),
)
_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
    st.floats(-1e6, 1e6).map(lambda value: f"{value:.2f}"),
    st.sampled_from([
        "1.5", "-0.0", "1e5", "2.5E-3", "1_000.5", ".5", "5.",
        "inf", "-inf", "Infinity", "-nan", "NaN",
        "$5", "$1,234.50", "5%", "1,000.25", "$-3", "12%",
    ]),
)
_words = st.one_of(
    st.sampled_from(["BS", "MS", "PhD", "a,b", "x y", " lead", "trail ", "\"q\"", "é"]),
    st.text(alphabet="abcXYZ ,$%.-_019", min_size=1, max_size=5),
)
_invalid = st.sampled_from(["abc", "1.5.2", "--1", "maybe", "1e", "$", "%", "1 2", "0x10"])

_KINDS = {
    "int": st.one_of(_ints, _missing),
    "float": st.one_of(_floats, _ints, _missing),
    "bool": st.one_of(_bools, _missing),
    "string": st.one_of(_words, _missing, _bools, _ints),
    "mixed": st.one_of(_ints, _floats, _bools, _words, _missing, _invalid),
}
# mostly one kind per column, sometimes a cell of another kind
_column_kind = st.sampled_from(sorted(_KINDS))


@st.composite
def csv_documents(draw):
    """CSV text with a header, an optional explicit schema and a primary key."""
    n_columns = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, 12))
    names = [f"c{index}" for index in range(n_columns)]
    kinds = [draw(_column_kind) for _ in names]
    rows = []
    for _ in range(n_rows):
        row = []
        for kind in kinds:
            strategy = _KINDS[kind]
            if draw(st.integers(0, 9)) == 0:
                strategy = _KINDS["mixed"]
            row.append(draw(strategy))
        rows.append(row)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(names)
    for row in rows:
        if draw(st.integers(0, 7)) == 0:
            buffer.write("\n")  # a physically blank line
        writer.writerow(row)
    schema = None
    if draw(st.booleans()):
        schema = Schema(tuple(
            Column(name, draw(st.sampled_from(list(DType))), draw(st.booleans()))
            for name in names
        ))
    primary_key = draw(st.sampled_from([None, *names]))
    return buffer.getvalue(), schema, primary_key


def _outcome(read, text, schema, primary_key):
    try:
        return read(text, schema=schema, primary_key=primary_key), None
    except Exception as exc:  # compared by type and message
        return None, (type(exc), str(exc))


def _storage(table: Table, name: str) -> tuple:
    """A column's storage in comparable form: float bits or codes and levels."""
    data = table._columns[name]
    if isinstance(data, _NumericData):
        exact = None if data.exact is None else [(type(v), v) for v in data.exact.tolist()]
        return data.is_int, data.floats.tobytes(), exact
    return data.codes.tobytes(), [(type(level), level) for level in data.levels]


def _assert_same_table(actual: Table, expected: Table) -> None:
    assert actual.schema == expected.schema
    assert [c.dtype for c in actual.schema] == [c.dtype for c in expected.schema]
    assert actual.num_rows == expected.num_rows
    for name in expected.column_names:
        assert _storage(actual, name) == _storage(expected, name)
        assert repr(actual.column(name)) == repr(expected.column(name))
        assert [type(v) for v in actual.column(name)] == [type(v) for v in expected.column(name)]
        assert repr(actual.unique(name)) == repr(expected.unique(name))
    assert actual.content_digest("key") == expected.content_digest("key")


class TestReaderMatchesOracle:
    @settings(
        max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(csv_documents())
    def test_same_table_or_same_error(self, document):
        text, schema, primary_key = document
        expected, expected_error = _outcome(_oracle_read_csv_text, text, schema, primary_key)
        actual, actual_error = _outcome(read_csv_text, text, schema, primary_key)
        assert actual_error == expected_error
        if expected is not None:
            _assert_same_table(actual, expected)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(*_KINDS.values()), max_size=12))
    def test_inference_matches_oracle(self, values):
        def outcome(infer):
            try:
                return infer(values, "c")
            except SchemaError as exc:
                return str(exc)

        assert outcome(infer_column_dtype) == outcome(_oracle_infer_column_dtype)


class TestPinnedCases:
    """Cases the generator reaches rarely, pinned against the oracle."""

    def _check(self, text, schema=None, primary_key=None):
        expected, expected_error = _outcome(_oracle_read_csv_text, text, schema, primary_key)
        actual, actual_error = _outcome(read_csv_text, text, schema, primary_key)
        assert actual_error == expected_error
        if expected is not None:
            _assert_same_table(actual, expected)
        return actual, actual_error

    def test_big_ints_keep_their_exact_values(self):
        big = 2**53 + 1
        table, error = self._check(f"id,v\na,{big}\nb,-{big * 10**9}\nc,\n")
        assert error is None
        assert table.column("v") == [big, -big * 10**9, None]

    def test_nan_markers_in_a_non_nullable_float_column(self):
        schema = Schema((Column("v", DType.FLOAT, nullable=False),))
        _, error = self._check("v\n1.5\n NaN \n", schema=schema)
        assert error == (SchemaError, "column 'v' is not nullable but got a missing value")
        # "-nan" is no missing marker: it is stored as NaN, as before
        table, error = self._check("v\n1.5\n-nan\n", schema=schema)
        assert error is None and np.isnan(table.numeric_column("v")[1])

    def test_first_invalid_value_in_row_order_is_reported(self):
        schema = Schema.of({"a": DType.INT, "b": DType.BOOL})
        _, error = self._check("a,b\n1,maybe\nx,yes\n2.5,no\n", schema=schema)
        assert error == (SchemaError, "value 'x' is not valid for column 'a' (int)")

    def test_quoted_commas_and_blank_lines(self):
        table, error = self._check('name,pay\n"Doe, J","$1,200.50"\n\n"Roe, K",300\n')
        assert error is None
        assert table.column("name") == ["Doe, J", "Roe, K"]
        assert table.column("pay") == [1200.5, 300.0]

    def test_bool_level_order_follows_the_coerced_values(self):
        table, error = self._check("b\nYes\n t \nno\nTRUE\nF\n")
        assert error is None
        assert table.categorical_codes("b")[1] == (True, False)
        assert table.categorical_codes("b")[0].tolist() == [0, 0, 1, 0, 1]

    def test_padded_missing_markers_in_a_string_column(self):
        table, error = self._check("s\n N/A \nx\n nULL\n x \n")
        assert error is None
        assert table.column("s") == [None, "x", None, " x "]
