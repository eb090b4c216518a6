"""Encoding of mixed categorical/numeric attributes into feature matrices.

Partition discovery clusters rows over the *condition* attributes, which are
frequently categorical (education, gender, department).  K-means needs a
numeric space, so this module provides one-hot and ordinal encoders for single
columns and :class:`TableEncoder`, which turns any subset of a table's columns
(plus optional extra numeric features such as regression residuals) into a
scaled numeric matrix suitable for clustering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.exceptions import ModelFitError, SchemaError
from repro.ml.scaling import MinMaxScaler
from repro.relational.table import Table

__all__ = ["OneHotEncoder", "OrdinalEncoder", "TableEncoder"]


@dataclass
class OneHotEncoder:
    """One-hot encode a single categorical column.

    Unknown categories at transform time map to the all-zeros vector; missing
    values always map to all zeros.
    """

    categories: list[Any] = field(default_factory=list)
    _index: dict[Any, int] = field(default_factory=dict)
    _fitted: bool = False

    def fit(self, values: Sequence[Any]) -> "OneHotEncoder":
        """Record the distinct categories in first-seen order."""
        self.categories = []
        self._index = {}
        for value in values:
            if value is None or value in self._index:
                continue
            self._index[value] = len(self.categories)
            self.categories.append(value)
        self._fitted = True
        return self

    def transform(self, values: Sequence[Any]) -> np.ndarray:
        """Encode ``values`` to a ``(len(values), n_categories)`` 0/1 matrix."""
        if not self._fitted:
            raise ModelFitError("transform called before fit")
        matrix = np.zeros((len(values), max(1, len(self.categories))), dtype=float)
        for row, value in enumerate(values):
            column = self._index.get(value)
            if column is not None:
                matrix[row, column] = 1.0
        return matrix

    def transform_codes(self, codes: np.ndarray, levels: Sequence[Any]) -> np.ndarray:
        """Encode dictionary ``codes`` indexing ``levels`` (``-1`` = missing).

        The same matrix :meth:`transform` gives for the decoded values, but
        each distinct level is looked up once.
        """
        if not self._fitted:
            raise ModelFitError("transform called before fit")
        matrix = np.zeros((len(codes), max(1, len(self.categories))), dtype=float)
        lookup = np.array([self._index.get(level, -1) for level in levels] + [-1], dtype=np.intp)
        columns = lookup[codes]
        rows = np.flatnonzero(columns >= 0)
        matrix[rows, columns[rows]] = 1.0
        return matrix

    def fit_transform(self, values: Sequence[Any]) -> np.ndarray:
        """Fit and encode in one step."""
        return self.fit(values).transform(values)

    def feature_names(self, column: str) -> list[str]:
        """Names of the produced features, e.g. ``edu=PhD``."""
        if not self.categories:
            return [f"{column}=<none>"]
        return [f"{column}={category}" for category in self.categories]


@dataclass
class OrdinalEncoder:
    """Map categories to consecutive integers (first-seen order).

    Unknown or missing values map to ``-1``.
    """

    categories: list[Any] = field(default_factory=list)
    _index: dict[Any, int] = field(default_factory=dict)
    _fitted: bool = False

    def fit(self, values: Sequence[Any]) -> "OrdinalEncoder":
        """Record the distinct categories in first-seen order."""
        self.categories = []
        self._index = {}
        for value in values:
            if value is None or value in self._index:
                continue
            self._index[value] = len(self.categories)
            self.categories.append(value)
        self._fitted = True
        return self

    def transform(self, values: Sequence[Any]) -> np.ndarray:
        """Encode ``values`` to a float vector of category indices."""
        if not self._fitted:
            raise ModelFitError("transform called before fit")
        return np.array([float(self._index.get(value, -1)) for value in values], dtype=float)

    def fit_transform(self, values: Sequence[Any]) -> np.ndarray:
        """Fit and encode in one step."""
        return self.fit(values).transform(values)

    def decode(self, code: int) -> Any:
        """The category corresponding to ``code`` (inverse of :meth:`transform`)."""
        if 0 <= code < len(self.categories):
            return self.categories[code]
        return None


@dataclass
class TableEncoder:
    """Encode a subset of table columns into a scaled numeric matrix.

    Numeric columns pass through (missing and non-finite values imputed with
    the mean of the finite ones); categorical columns are one-hot encoded.
    The final matrix is min-max scaled so every feature contributes
    comparably to Euclidean distance.  Extra features (e.g. regression
    residuals) can be appended and are scaled the same way.
    """

    columns: list[str]
    scale: bool = True
    _one_hot: dict[str, OneHotEncoder] = field(default_factory=dict)
    _feature_names: list[str] = field(default_factory=list)
    _scaler: MinMaxScaler | None = None
    _fitted: bool = False

    def fit_transform(
        self,
        table: Table,
        extra_features: np.ndarray | None = None,
        extra_names: Sequence[str] = (),
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """Fit the encoders on ``table`` and return the encoded matrix.

        ``rows`` (a boolean mask or an index array), when given, selects the
        rows to encode, as in :meth:`Table.numeric_matrix`.
        """
        blocks: list[np.ndarray] = []
        self._feature_names = []
        self._one_hot = {}
        if rows is not None and rows.dtype == bool:
            rows = np.flatnonzero(rows)
        num_rows = table.num_rows if rows is None else rows.size
        for name in self.columns:
            column = table.schema.column(name)
            if column.is_numeric:
                values = table.numeric_matrix([name], rows)[:, 0]
                # a non-finite value is imputed like a missing one; the mean
                # is nanmean's arithmetic over the finite values
                finite = np.isfinite(values)
                count = int(finite.sum())
                mean = float(np.where(finite, values, 0.0).sum()) / count if count else 0.0
                values = np.where(finite, values, mean)
                blocks.append(values.reshape(-1, 1))
                self._feature_names.append(name)
            else:
                encoder = OneHotEncoder().fit(table.unique(name, rows))
                self._one_hot[name] = encoder
                codes, levels = table.categorical_codes(name)
                codes = codes if rows is None else codes[rows]
                blocks.append(encoder.transform_codes(codes, levels))
                self._feature_names.extend(encoder.feature_names(name))
        if extra_features is not None:
            extra = np.asarray(extra_features, dtype=float)
            if extra.ndim == 1:
                extra = extra.reshape(-1, 1)
            if extra.shape[0] != num_rows:
                raise SchemaError(
                    f"extra features have {extra.shape[0]} rows, table has {num_rows}"
                )
            blocks.append(extra)
            self._feature_names.extend(
                list(extra_names) or [f"extra_{i}" for i in range(extra.shape[1])]
            )
        if not blocks:
            raise ModelFitError("TableEncoder has no columns or extra features to encode")
        matrix = np.hstack(blocks)
        if self.scale:
            self._scaler = MinMaxScaler()
            matrix = self._scaler.fit_transform(matrix)
        self._fitted = True
        return matrix

    @property
    def feature_names(self) -> list[str]:
        """Names of the encoded features, in matrix column order."""
        if not self._fitted:
            raise ModelFitError("feature_names requested before fit_transform")
        return list(self._feature_names)
