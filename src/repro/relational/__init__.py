"""Lightweight relational substrate: typed tables, CSV I/O, snapshots.

This package is the foundation everything else builds on.  It replaces the
pandas/SQL layer the original prototype would have used with a small, fully
self-contained implementation:

* :class:`~repro.relational.schema.Schema` / :class:`~repro.relational.schema.Column`
  — typed, validated relation schemas.
* :class:`~repro.relational.table.Table` — immutable, array-backed columnar tables with
  selection, projection, grouping, joins and numeric-matrix extraction.
* :mod:`~repro.relational.csv_io` — CSV round-tripping with type inference.
* :class:`~repro.relational.snapshot.SnapshotPair` — validated alignment of two
  dataset versions (the ChARLES input contract).
"""

from repro.relational.csv_io import read_csv, read_csv_text, write_csv, write_csv_text
from repro.relational.schema import Column, DType, Schema
from repro.relational.snapshot import SnapshotPair
from repro.relational.table import Table

__all__ = [
    "Column",
    "DType",
    "Schema",
    "Table",
    "SnapshotPair",
    "read_csv",
    "read_csv_text",
    "write_csv",
    "write_csv_text",
]
