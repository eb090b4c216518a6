"""CSV reading and writing for :class:`~repro.relational.table.Table`.

The paper's demo ingests CSV snapshots (Fig. 4, step 1).  This module gives the
reproduction the same front door: :func:`read_csv` loads a file (or any text
stream) with automatic type inference, and :func:`write_csv` serialises a table
back so that examples and the CLI can round-trip data to disk.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Any, Iterable, Sequence, TextIO

import numpy as np

from repro.exceptions import SchemaError
from repro.relational.schema import _MISSING_STRINGS, Column, DType, Schema
from repro.relational.table import Table, _CategoricalData, _NumericData

__all__ = ["read_csv", "read_csv_text", "write_csv", "write_csv_text", "infer_column_dtype"]


_BOOL_WORDS = frozenset({"true", "false", "t", "f", "yes", "no"})


def infer_column_dtype(values: Iterable[str], name: str | None = None) -> DType:
    """Infer the narrowest :class:`DType` for a column of raw CSV strings.

    Empty strings and common missing-value markers are ignored during
    inference.  A column that is entirely missing carries no type evidence and
    is rejected (mirroring table-level inference): silently defaulting it to
    ``STRING`` would mistype sparse numeric columns and surface much later as
    a confusing schema mismatch, e.g. when appending the file to a timeline.
    """
    saw_value = False
    could_be_int = True
    could_be_float = True
    could_be_bool = True
    # each flag holds for every distinct string or for none, so the verdict
    # does not depend on the order of the set; a type once ruled out is not
    # tested again, and once only STRING is left the loop ends
    for raw in set(values):
        text = raw.strip()
        lowered = text.lower()
        if lowered in _MISSING_STRINGS:
            continue
        saw_value = True
        if could_be_bool and lowered not in _BOOL_WORDS:
            could_be_bool = False
        if could_be_float:
            cleaned = text.replace(",", "").replace("$", "")
            try:
                float(cleaned)
            except ValueError:
                could_be_float = False
                could_be_int = False
            else:
                if could_be_int:
                    try:
                        int(cleaned)
                    except ValueError:
                        could_be_int = False
        if not (could_be_bool or could_be_float):
            break
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


def read_csv_text(
    text: str,
    schema: Schema | None = None,
    primary_key: str | None = None,
    delimiter: str = ",",
) -> Table:
    """Parse CSV content from a string; see :func:`read_csv`."""
    return _read(io.StringIO(text), schema=schema, primary_key=primary_key, delimiter=delimiter)


def read_csv(
    path: str | Path,
    schema: Schema | None = None,
    primary_key: str | None = None,
    delimiter: str = ",",
) -> Table:
    """Read a CSV file into a :class:`Table`.

    Parameters
    ----------
    path:
        File to read.  The first row must be a header of column names.
    schema:
        Optional explicit schema.  When omitted, dtypes are inferred from the
        data (ints, then floats, then booleans, falling back to strings).
    primary_key:
        Name of the entity-identifying column, recorded on the schema.
    delimiter:
        Field separator, ``","`` by default.
    """
    with open(path, "r", newline="", encoding="utf-8") as handle:
        return _read(handle, schema=schema, primary_key=primary_key, delimiter=delimiter)


def _read(
    handle: TextIO,
    schema: Schema | None,
    primary_key: str | None,
    delimiter: str,
) -> Table:
    reader = csv.reader(handle, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration as exc:
        raise SchemaError("CSV input is empty (no header row)") from exc
    header = [name.strip() for name in header]
    if any(not name for name in header):
        raise SchemaError("CSV header contains an empty column name")
    # skip physically blank lines (csv.reader yields an empty list for them) but
    # keep rows whose cells are all empty — those are legitimate missing values
    raw_rows = [row for row in reader if row]
    for row in raw_rows:
        if len(row) != len(header):
            raise SchemaError(
                f"CSV row has {len(row)} fields but header has {len(header)}: {row!r}"
            )
    raw_columns: dict[str, Sequence[str]] = dict(zip(header, zip(*raw_rows)))
    if schema is None:
        schema = Schema(
            tuple(
                Column(name, infer_column_dtype(raw_columns.get(name, ()), name))
                for name in header
            ),
            primary_key=primary_key,
        )
    elif primary_key is not None:
        schema = schema.with_primary_key(primary_key)
    return Table(
        schema,
        {column.name: _encode_text(column, raw_columns.get(column.name, ())) for column in schema},
    )


def _encode_text(column: Column, raw_values: Sequence[str]) -> _NumericData | _CategoricalData:
    """The table storage of ``column.coerce_many(raw_values)``.

    Each distinct string is coerced once, in row order, so an invalid value
    is reported as it would be row by row.  Two shortcuts return what
    :meth:`Column.coerce` would.  A numeric string is first given to
    ``float`` (``int`` for an INT column): when that succeeds, the string
    holds no ``,$%`` and both ignore the surrounding whitespace.  A STRING
    value that is no missing marker is kept as it is.  Anything else, a NaN
    included (the missing marker a non-nullable column rejects), goes
    through :meth:`Column.coerce`.  A categorical column is coded straight
    from the strings, its levels in first-seen order of the coerced values.
    """
    distinct: dict[str, Any] = dict.fromkeys(raw_values)
    if column.is_numeric:
        is_int = column.dtype is DType.INT
        parse = int if is_int else float
        for raw in distinct:
            try:
                value = parse(raw)
            except ValueError:
                value = column.coerce(raw)
            else:
                if value != value:
                    value = column.coerce(raw)
            distinct[raw] = value
        return _NumericData.encode(list(map(distinct.__getitem__, raw_values)), is_int)
    is_string = column.dtype is DType.STRING
    levels: dict[Any, int] = {}
    for raw in distinct:
        if is_string and raw.strip().lower() not in _MISSING_STRINGS:
            value = raw
        else:
            value = column.coerce(raw)
        distinct[raw] = -1 if value is None else levels.setdefault(value, len(levels))
    codes = np.fromiter(
        map(distinct.__getitem__, raw_values), dtype=np.intp, count=len(raw_values)
    )
    return _CategoricalData(codes, tuple(levels))


def write_csv_text(table: Table, delimiter: str = ",") -> str:
    """Serialise a table to CSV text (header row included)."""
    buffer = io.StringIO()
    _write(table, buffer, delimiter)
    return buffer.getvalue()


def write_csv(table: Table, path: str | Path, delimiter: str = ",") -> None:
    """Write a table to ``path`` as CSV (header row included)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        _write(table, handle, delimiter)


def _write(table: Table, handle: TextIO, delimiter: str) -> None:
    writer = csv.writer(handle, delimiter=delimiter)
    writer.writerow(table.column_names)
    columns: Sequence[list] = [table.column(name) for name in table.column_names]
    for index in range(table.num_rows):
        writer.writerow(
            ["" if column[index] is None else column[index] for column in columns]
        )
