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
from typing import Iterable, Sequence, TextIO

from repro.exceptions import SchemaError
from repro.relational.schema import Column, DType, Schema
from repro.relational.table import Table

__all__ = ["read_csv", "read_csv_text", "write_csv", "write_csv_text", "infer_column_dtype"]


def infer_column_dtype(values: Iterable[str], name: str | None = None) -> DType:
    """Infer the narrowest :class:`DType` for a column of raw CSV strings.

    Empty strings and common missing-value markers are ignored during
    inference.  A column that is entirely missing carries no type evidence and
    is rejected (mirroring table-level inference): silently defaulting it to
    ``STRING`` would mistype sparse numeric columns and surface much later as
    a confusing schema mismatch, e.g. when appending the file to a timeline.
    """
    missing = {"", "na", "n/a", "nan", "null", "none"}
    saw_value = False
    could_be_int = True
    could_be_float = True
    could_be_bool = True
    # the verdict depends only on which strings occur, so test each once
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
    raw_columns = {
        name: [row[i] for row in raw_rows] for i, name in enumerate(header)
    }
    if schema is None:
        schema = Schema(
            tuple(
                Column(name, infer_column_dtype(raw_columns[name], name)) for name in header
            ),
            primary_key=primary_key,
        )
    elif primary_key is not None:
        schema = schema.with_primary_key(primary_key)
    return Table(
        schema,
        {column.name: _coerce_text(column, raw_columns.get(column.name, [])) for column in schema},
    )


def _coerce_text(column: Column, raw_values: list[str]) -> list:
    """``column.coerce_many(raw_values)``, coercing each distinct string once."""
    # distinct strings in row order, so an invalid value is reported as it
    # would be row by row
    coerced = {raw: column.coerce(raw) for raw in dict.fromkeys(raw_values)}
    return [coerced[raw] for raw in raw_values]


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
