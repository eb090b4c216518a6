"""A small, typed, columnar in-memory table.

The reproduction needs a relational substrate that can hold two snapshots of a
dataset, slice them by predicates, extract numeric matrices for regression and
clustering, and group rows by categorical attributes.  ``pandas`` is not
available in this environment, so :class:`Table` provides exactly that surface
on top of numpy arrays, validated against a
:class:`~repro.relational.schema.Schema`.

Every column is converted once, when the table is built, and never again:

* a numeric column (INT, FLOAT) is one read-only float64 array with NaN for
  missing values; an INT column holding a value beyond ±2**53, which float64
  cannot represent exactly, also keeps its exact ints beside the floats;
* a categorical column (STRING, BOOL) is dictionary-encoded: an int code per
  row indexing a tuple of distinct values (first-seen order when built), with
  ``-1`` for missing.

Row subsets (:meth:`Table.take`, :meth:`Table.mask`) are fancy indexing over
those arrays, and projections, renames and added columns reuse them, so
slicing a table never re-converts a value.  The accessors that hand out Python
values (:meth:`Table.column`, :meth:`Table.row`, :meth:`Table.to_rows`, ...)
decode on demand and return ``int`` for INT, ``float`` for FLOAT, ``bool`` for
BOOL, ``str`` for STRING and ``None`` for missing.

Tables are immutable: every operation returns a new table, and the arrays
behind a table are read-only (also after pickling), which keeps snapshot
comparison honest.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.exceptions import SchemaError
from repro.relational.schema import Column, DType, Schema

__all__ = ["Table"]

Row = dict[str, Any]

#: the largest magnitude below which every int is exactly a float64
_EXACT_FLOAT_INT = 2**53


def _infer_dtype(values: Sequence[Any], name: str | None = None) -> DType:
    """Infer the narrowest :class:`DType` able to hold ``values``.

    A column with no non-missing value carries no type evidence at all, and
    silently defaulting it (historically to ``STRING``) mistypes sparse
    numeric columns — a timeline append would then fail much later, on
    schema-equivalence grounds, against the version that does carry values.
    Such columns are rejected here instead: declare an explicit schema or
    dtype for them.
    """
    seen_float = False
    seen_int = False
    seen_bool = False
    seen_str = False
    seen_any = False
    for value in values:
        if value is None:
            continue
        seen_any = True
        if isinstance(value, bool):
            seen_bool = True
        elif isinstance(value, int):
            seen_int = True
        elif isinstance(value, float):
            seen_float = True
        else:
            seen_str = True
    if not seen_any:
        label = "the values" if name is None else f"column {name!r}"
        raise SchemaError(
            f"cannot infer a dtype for {label}: every value is missing; "
            "declare an explicit schema or dtype"
        )
    if seen_str:
        return DType.STRING
    if seen_float:
        return DType.FLOAT
    if seen_int:
        return DType.INT
    if seen_bool:
        return DType.BOOL
    return DType.STRING


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _NumericData:
    """An INT or FLOAT column: read-only float64 values, NaN for missing.

    ``exact`` is ``None`` unless an INT column holds a value beyond ±2**53;
    it then holds every value (ints and ``None``) in a read-only object array.
    """

    __slots__ = ("floats", "exact", "is_int")

    def __init__(self, floats: np.ndarray, exact: np.ndarray | None, is_int: bool) -> None:
        self.floats = _frozen(floats)
        self.exact = None if exact is None else _frozen(exact)
        self.is_int = is_int

    @classmethod
    def encode(cls, values: Sequence[Any], is_int: bool) -> "_NumericData":
        exact = None
        if is_int and any(
            value is not None and not -_EXACT_FLOAT_INT <= value <= _EXACT_FLOAT_INT
            for value in values
        ):
            exact = np.empty(len(values), dtype=object)
            exact[:] = values
            floats = np.array(
                [np.nan if v is None else _int_to_float(v) for v in values], dtype=float
            )
        else:
            # numpy converts None to NaN, and every int within ±2**53 exactly
            floats = np.array(values, dtype=float)
        return cls(floats, exact, is_int)

    def __reduce__(self):
        # numpy unpickles read-only arrays as writable; the constructor
        # freezes them again
        return (_NumericData, (self.floats, self.exact, self.is_int))

    def __len__(self) -> int:
        return len(self.floats)

    def take(self, index: np.ndarray) -> "_NumericData":
        exact = None if self.exact is None else self.exact[index]
        return _NumericData(self.floats[index], exact, self.is_int)

    def concat(self, other: "_NumericData") -> "_NumericData":
        floats = np.concatenate([self.floats, other.floats])
        exact = None
        if self.exact is not None or other.exact is not None:
            exact = np.empty(len(floats), dtype=object)
            exact[:] = self.tolist() + other.tolist()
        return _NumericData(floats, exact, self.is_int)

    def tolist(self) -> list[Any]:
        if self.exact is not None:
            return self.exact.tolist()
        if self.is_int:
            return [None if value != value else int(value) for value in self.floats.tolist()]
        return [None if value != value else value for value in self.floats.tolist()]

    def item(self, index: int) -> Any:
        if self.exact is not None:
            return self.exact[index]
        value = float(self.floats[index])
        if value != value:
            return None
        return int(value) if self.is_int else value


def _int_to_float(value: int) -> float:
    try:
        return float(value)
    except OverflowError:
        return float("inf") if value > 0 else float("-inf")


class _CategoricalData:
    """A STRING or BOOL column: read-only int codes indexing ``levels``.

    ``levels`` holds each distinct value once; ``-1`` codes a missing value.
    A slice shares its parent's levels, so a level need not occur in it.
    """

    __slots__ = ("codes", "levels", "decoder")

    def __init__(self, codes: np.ndarray, levels: tuple[Any, ...],
                 decoder: np.ndarray | None = None) -> None:
        self.codes = _frozen(codes)
        self.levels = levels
        if decoder is None:
            # levels plus a trailing None, so code -1 decodes to missing
            decoder = np.empty(len(levels) + 1, dtype=object)
            decoder[:-1] = levels
            decoder = _frozen(decoder)
        self.decoder = decoder

    @classmethod
    def encode(cls, values: Sequence[Any]) -> "_CategoricalData":
        index: dict[Any, int] = {}
        codes = np.fromiter(
            (-1 if value is None else index.setdefault(value, len(index)) for value in values),
            dtype=np.intp,
            count=len(values),
        )
        return cls(codes, tuple(index))

    def __reduce__(self):
        return (_CategoricalData, (self.codes, self.levels))

    def __len__(self) -> int:
        return len(self.codes)

    def take(self, index: np.ndarray) -> "_CategoricalData":
        return _CategoricalData(self.codes[index], self.levels, self.decoder)

    def codes_onto(self, levels: tuple[Any, ...]) -> np.ndarray:
        """These codes translated to index ``levels``; absent values get ``-2``."""
        if levels is self.levels or levels == self.levels:
            return self.codes
        position = {value: code for code, value in enumerate(levels)}
        lookup = np.array([position.get(value, -2) for value in self.levels] + [-1], dtype=np.intp)
        return lookup[self.codes]

    def concat(self, other: "_CategoricalData") -> "_CategoricalData":
        levels = self.levels
        if other.levels is not levels and other.levels != levels:
            known = set(levels)
            levels = levels + tuple(value for value in other.levels if value not in known)
        codes = np.concatenate([self.codes, other.codes_onto(levels)])
        return _CategoricalData(codes, levels)

    def tolist(self) -> list[Any]:
        return self.decoder[self.codes].tolist()

    def item(self, index: int) -> Any:
        return self.decoder[self.codes[index]]


_ColumnData = _NumericData | _CategoricalData


def _encode(column: Column, values: Sequence[Any]) -> _ColumnData:
    """Convert already-coerced Python values of ``column`` to array storage."""
    if column.is_numeric:
        return _NumericData.encode(values, column.dtype is DType.INT)
    return _CategoricalData.encode(values)


@dataclass(frozen=True)
class Table:
    """An immutable, schema-validated columnar table.

    Construct tables with :meth:`from_rows` or :meth:`from_columns`; the raw
    constructor expects already-coerced column data (Python sequences, which
    it converts to array storage).
    """

    schema: Schema
    _columns: dict[str, _ColumnData]
    _num_rows: int = field(init=False, repr=False, compare=False)
    _digests: dict[Any, bytes] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if set(self._columns) != set(self.schema.names):
            raise SchemaError(
                f"column data {sorted(self._columns)} does not match schema {self.schema.names}"
            )
        data: dict[str, _ColumnData] = {}
        for column in self.schema:
            values = self._columns[column.name]
            if not isinstance(values, _ColumnData):
                values = _encode(column, values)
            data[column.name] = values
        lengths = {name: len(values) for name, values in data.items()}
        if len(set(lengths.values())) > 1:
            raise SchemaError(f"ragged columns: {lengths}")
        object.__setattr__(self, "_columns", data)
        object.__setattr__(self, "_num_rows", lengths[self.schema.columns[0].name])

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Mapping[str, Any]],
        schema: Schema | None = None,
        primary_key: str | None = None,
    ) -> "Table":
        """Build a table from an iterable of ``{column: value}`` mappings.

        If ``schema`` is omitted it is inferred from the data: column order is
        taken from the first row and dtypes are the narrowest type that fits
        every value.
        """
        materialised = [dict(row) for row in rows]
        if schema is None:
            if not materialised:
                raise SchemaError("cannot infer a schema from zero rows")
            names = list(materialised[0].keys())
            columns = {name: [row.get(name) for row in materialised] for name in names}
            schema = Schema(
                tuple(
                    Column(name, _infer_dtype(values, name))
                    for name, values in columns.items()
                ),
                primary_key=primary_key,
            )
        elif primary_key is not None:
            schema = schema.with_primary_key(primary_key)
        data: dict[str, list[Any]] = {}
        for column in schema:
            data[column.name] = column.coerce_many(
                [row.get(column.name) for row in materialised]
            )
        return cls(schema, data)

    @classmethod
    def from_columns(
        cls,
        columns: Mapping[str, Sequence[Any]],
        schema: Schema | None = None,
        primary_key: str | None = None,
    ) -> "Table":
        """Build a table from a ``{column: values}`` mapping."""
        columns = OrderedDict((name, list(values)) for name, values in columns.items())
        if schema is None:
            schema = Schema(
                tuple(
                    Column(name, _infer_dtype(values, name))
                    for name, values in columns.items()
                ),
                primary_key=primary_key,
            )
        elif primary_key is not None:
            schema = schema.with_primary_key(primary_key)
        data = {column.name: column.coerce_many(columns.get(column.name, [])) for column in schema}
        return cls(schema, data)

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        """A table with the given schema and zero rows."""
        return cls(schema, {name: [] for name in schema.names})

    # -- basic properties -----------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Number of rows."""
        return self._num_rows

    @property
    def num_columns(self) -> int:
        """Number of columns."""
        return len(self.schema)

    @property
    def column_names(self) -> list[str]:
        """Column names in relation order."""
        return self.schema.names

    @property
    def primary_key(self) -> str | None:
        """Name of the primary-key column, if declared."""
        return self.schema.primary_key

    def __len__(self) -> int:
        return self.num_rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.schema.names == other.schema.names and all(
            self.column(name) == other.column(name) for name in self.schema.names
        )

    def __hash__(self) -> int:  # frozen dataclass requires it; identity is fine
        return id(self)

    def __repr__(self) -> str:
        return f"Table({self.num_rows} rows × {self.num_columns} columns: {self.column_names})"

    # -- access ---------------------------------------------------------------

    def column(self, name: str) -> list[Any]:
        """The values of column ``name`` as a new list."""
        self.schema.column(name)
        return self._columns[name].tolist()

    def numeric_column(self, name: str) -> np.ndarray:
        """Column ``name`` as a read-only float array (missing values are NaN).

        The array is the table's own storage, returned without copying.
        """
        data = self._columns.get(name)
        if isinstance(data, _NumericData):
            return data.floats
        column = self.schema.column(name)
        raise SchemaError(f"column {name!r} is {column.dtype.value}, not numeric")

    def numeric_matrix(
        self, names: Sequence[str], rows: np.ndarray | None = None
    ) -> np.ndarray:
        """A float matrix of the given numeric columns, one column per name.

        ``rows`` (a boolean mask or an index array), when given, selects the
        rows to gather from each column: the matrix equals
        ``self.mask(rows).numeric_matrix(names)`` (or ``take``) without
        copying the table.
        """
        if rows is None:
            size = self.num_rows
        elif rows.dtype == bool:
            size = int(np.count_nonzero(rows))
        else:
            size = rows.size
        matrix = np.empty((size, len(names)), dtype=float)
        for position, name in enumerate(names):
            column = self.numeric_column(name)
            matrix[:, position] = column if rows is None else column[rows]
        return matrix

    def content_digest(self, key: Any) -> bytes:
        """A 16-byte BLAKE2b digest of the content in row order, led by ``key``.

        ``repr(key)`` goes first, then each column's name and type, then its
        float64 values or its dictionary levels and codes.  The table never
        changes, so each key's digest is computed once and kept.
        """
        cached = self._digests.get(key)
        if cached is not None:
            return cached
        digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=16)
        for column in self.schema:
            digest.update(repr((column.name, column.dtype.value)).encode("utf-8"))
            data = self._columns[column.name]
            if isinstance(data, _NumericData):
                digest.update(np.asarray(data.floats, dtype="<f8").tobytes())
            else:
                digest.update(repr(data.levels).encode("utf-8"))
                digest.update(np.asarray(data.codes, dtype="<i8").tobytes())
        self._digests[key] = value = digest.digest()
        return value

    def categorical_codes(
        self, name: str, levels: tuple[Any, ...] | None = None
    ) -> tuple[np.ndarray, tuple[Any, ...]]:
        """Dictionary codes of STRING/BOOL column ``name`` and the levels they index.

        Code ``-1`` marks a missing value; the codes array is read-only and
        may include levels absent from this table.  With ``levels`` given, the
        codes are translated to index that tuple instead, and values absent
        from it get code ``-2``.
        """
        column = self.schema.column(name)
        if not column.is_categorical:
            raise SchemaError(f"column {name!r} is {column.dtype.value}, not categorical")
        data = self._columns[name]
        if levels is None:
            return data.codes, data.levels
        return data.codes_onto(levels), levels

    def row(self, index: int) -> Row:
        """Row ``index`` as a ``{column: value}`` dict."""
        if not 0 <= index < self.num_rows:
            raise IndexError(f"row index {index} out of range [0, {self.num_rows})")
        return {name: self._columns[name].item(index) for name in self.schema.names}

    def rows(self) -> Iterator[Row]:
        """Iterate over rows as dicts."""
        names = self.schema.names
        columns = [self._columns[name].tolist() for name in names]
        for values in zip(*columns):
            yield dict(zip(names, values))

    def to_rows(self) -> list[Row]:
        """All rows as a list of dicts."""
        return list(self.rows())

    def head(self, n: int = 5) -> "Table":
        """The first ``n`` rows."""
        return self.take(range(min(n, self.num_rows)))

    def key_values(self) -> list[Any]:
        """The primary-key column values (or row indices when no key is set)."""
        if self.primary_key is None:
            return list(range(self.num_rows))
        return self.column(self.primary_key)

    def unique(self, name: str, rows: np.ndarray | None = None) -> list[Any]:
        """Distinct non-missing values of column ``name`` in first-seen order.

        ``rows`` (a boolean mask or an index array), when given, selects the
        rows to read, as in :meth:`numeric_matrix`.
        """
        data = self._columns[self.schema.column(name).name]
        if rows is not None:
            data = data.take(rows)
        if isinstance(data, _CategoricalData):
            distinct, first = np.unique(data.codes, return_index=True)
            return [data.levels[code] for code in distinct[np.argsort(first)].tolist() if code >= 0]
        seen: dict[Any, None] = {}
        for value in data.tolist():
            if value is not None and value not in seen:
                seen[value] = None
        return list(seen)

    # -- transformation -------------------------------------------------------

    def take(self, indices: Iterable[int] | np.ndarray) -> "Table":
        """A new table containing the rows at ``indices`` (in that order)."""
        if isinstance(indices, np.ndarray):
            index = indices.astype(np.intp, copy=False)
        else:
            index = np.fromiter(indices, dtype=np.intp)
        data = {name: values.take(index) for name, values in self._columns.items()}
        return Table(self.schema, data)

    def mask(self, mask: Sequence[bool] | np.ndarray) -> "Table":
        """A new table with the rows where ``mask`` is true."""
        mask_array = np.asarray(mask, dtype=bool)
        if mask_array.shape != (self.num_rows,):
            raise SchemaError(
                f"mask length {mask_array.shape} does not match {self.num_rows} rows"
            )
        return self.take(np.flatnonzero(mask_array))

    def filter(self, predicate: Callable[[Row], bool]) -> "Table":
        """Rows for which ``predicate(row)`` is true."""
        return self.take(i for i, row in enumerate(self.rows()) if predicate(row))

    def project(self, names: Sequence[str]) -> "Table":
        """Keep only the given columns, in the given order."""
        schema = self.schema.project(names)
        return Table(schema, {name: self._columns[name] for name in schema.names})

    def drop(self, names: Sequence[str]) -> "Table":
        """Remove the given columns."""
        keep = [name for name in self.schema.names if name not in set(names)]
        return self.project(keep)

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """Rename columns according to ``mapping`` (old name -> new name)."""
        columns = tuple(
            Column(mapping.get(c.name, c.name), c.dtype, c.nullable) for c in self.schema
        )
        key = self.schema.primary_key
        schema = Schema(columns, primary_key=mapping.get(key, key) if key else None)
        data = {mapping.get(name, name): values for name, values in self._columns.items()}
        return Table(schema, data)

    def with_column(
        self, name: str, values: Sequence[Any], dtype: DType | None = None
    ) -> "Table":
        """A new table with column ``name`` added or replaced by ``values``."""
        values = list(values)
        if len(values) != self.num_rows:
            raise SchemaError(
                f"new column {name!r} has {len(values)} values for {self.num_rows} rows"
            )
        column = Column(name, dtype if dtype is not None else _infer_dtype(values, name))
        data: dict[str, Any] = dict(self._columns)
        data[name] = column.coerce_many(values)
        return Table(self.schema.with_column(column), data)

    def sort_by(self, name: str, descending: bool = False) -> "Table":
        """Rows sorted by column ``name`` (missing values last, either direction).

        The sort is stable: rows with equal values, and the missing rows, keep
        their relative order.
        """
        values = self.column(name)
        present = [i for i, value in enumerate(values) if value is not None]
        missing = [i for i, value in enumerate(values) if value is None]
        order = sorted(present, key=values.__getitem__, reverse=descending)
        return self.take(order + missing)

    def concat(self, other: "Table") -> "Table":
        """Rows of ``self`` followed by rows of ``other`` (schemas must match)."""
        if not self.schema.equivalent_to(other.schema):
            raise SchemaError("cannot concatenate tables with different schemas")
        data = {
            name: values.concat(other._columns[name]) for name, values in self._columns.items()
        }
        return Table(self.schema, data)

    def group_by(self, names: Sequence[str]) -> dict[tuple[Any, ...], "Table"]:
        """Group rows by the values of ``names``; returns ``{key tuple: sub-table}``."""
        for name in names:
            self.schema.column(name)
        groups: dict[tuple[Any, ...], list[int]] = OrderedDict()
        columns = [self._columns[name].tolist() for name in names]
        for index, key in enumerate(zip(*columns) if columns else [()] * self.num_rows):
            groups.setdefault(key, []).append(index)
        return {key: self.take(indices) for key, indices in groups.items()}

    def join(self, other: "Table", on: str, suffix: str = "_right") -> "Table":
        """Inner equi-join on column ``on``; clashing right columns get ``suffix``.

        The result keeps every column's dtype and the left table's primary
        key, whether or not any row matched.
        """
        self.schema.column(on)
        other.schema.column(on)
        right_index: dict[Any, list[int]] = {}
        for j, value in enumerate(other.column(on)):
            right_index.setdefault(value, []).append(j)
        left_rows: list[int] = []
        right_rows: list[int] = []
        for i, value in enumerate(self.column(on)):
            for j in right_index.get(value, ()):
                left_rows.append(i)
                right_rows.append(j)
        left = self.take(left_rows)
        right = other.take(right_rows)
        columns = list(self.schema.columns)
        data = dict(left._columns)
        for column in other.schema:
            if column.name == on:
                continue
            name = column.name + suffix if column.name in self.schema else column.name
            columns.append(Column(name, column.dtype, column.nullable))
            data[name] = right._columns[column.name]
        return Table(Schema(tuple(columns), primary_key=self.primary_key), data)

    # -- summaries ------------------------------------------------------------

    def describe(self, name: str) -> dict[str, float]:
        """Summary statistics for a numeric column (count, mean, std, min, max)."""
        values = self.numeric_column(name)
        values = values[~np.isnan(values)]
        if values.size == 0:
            return {"count": 0, "mean": float("nan"), "std": float("nan"),
                    "min": float("nan"), "max": float("nan")}
        return {
            "count": int(values.size),
            "mean": float(np.mean(values)),
            "std": float(np.std(values)),
            "min": float(np.min(values)),
            "max": float(np.max(values)),
        }

    def value_counts(self, name: str) -> dict[Any, int]:
        """Occurrence counts of each distinct value of column ``name``."""
        data = self._columns[self.schema.column(name).name]
        counts: dict[Any, int] = OrderedDict()
        for value in data.tolist():
            counts[value] = counts.get(value, 0) + 1
        return counts
