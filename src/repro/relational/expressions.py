"""Predicate and expression AST over tables, with a small SQL-like parser.

ChARLES conditions are conjunctions of descriptors such as ``edu = 'PhD'`` or
``exp < 3``.  This module provides the expression machinery those descriptors
compile to: a typed AST (:class:`Expression` subclasses), vectorised evaluation
against a :class:`~repro.relational.table.Table`, and :func:`parse_expression`
for turning strings like ``"edu = 'MS' AND exp >= 3"`` into ASTs (useful for
the CLI and for writing tests and examples close to the paper's notation).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from repro.exceptions import ExpressionError
from repro.relational.table import Table

__all__ = [
    "Expression",
    "ColumnRef",
    "Literal",
    "Comparison",
    "Between",
    "IsIn",
    "And",
    "Or",
    "Not",
    "Arithmetic",
    "parse_expression",
]


class Expression:
    """Base class for all expressions.

    ``evaluate`` returns a numpy array with one entry per table row: boolean
    for predicates, float for arithmetic, object for column references to
    categorical columns.
    """

    def evaluate(self, table: Table) -> np.ndarray:
        raise NotImplementedError

    def mask(self, table: Table) -> np.ndarray:
        """Evaluate as a boolean row mask, validating the result type."""
        result = self.evaluate(table)
        if result.dtype != bool:
            raise ExpressionError(f"expression {self} is not a predicate")
        return result

    def columns(self) -> set[str]:
        """Names of all columns referenced by this expression."""
        return set()

    # boolean combinators, so conditions compose naturally in code
    def __and__(self, other: "Expression") -> "And":
        return And((self, other))

    def __or__(self, other: "Expression") -> "Or":
        return Or((self, other))

    def __invert__(self) -> "Not":
        return Not(self)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A reference to a column by name."""

    name: str

    def evaluate(self, table: Table) -> np.ndarray:
        column = table.schema.column(self.name)
        if column.is_numeric:
            return table.numeric_column(self.name)
        return np.array(table.column(self.name), dtype=object)

    def columns(self) -> set[str]:
        return {self.name}

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value (number, string, bool or None)."""

    value: Any

    def evaluate(self, table: Table) -> np.ndarray:
        value = self.scalar()
        return np.full(table.num_rows, value, dtype=float if isinstance(value, float) else object)

    def scalar(self) -> Any:
        """The value each row evaluates to: numbers (not bools) as ``float``."""
        if isinstance(self.value, bool) or not isinstance(self.value, (int, float)):
            return self.value
        return float(self.value)

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        if isinstance(self.value, float):
            return f"{self.value:g}"
        return str(self.value)


_COMPARATORS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Comparison(Expression):
    """A binary comparison such as ``exp < 3`` or ``edu = 'PhD'``."""

    left: Expression
    op: str
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ExpressionError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, table: Table) -> np.ndarray:
        if self.op in ("=", "!="):
            coded = self._over_codes(table)
            if coded is not None:
                return coded
        left = self.left.evaluate(table)
        right = self.right.evaluate(table)
        if left.dtype == object or right.dtype == object:
            if self.op not in ("=", "!="):
                # fall back to elementwise comparison for ordered strings
                pairs = zip(left.tolist(), right.tolist())
                return np.array(
                    [False if a is None or b is None else _COMPARATORS[self.op](a, b)
                     for a, b in pairs],
                    dtype=bool,
                )
            result = _COMPARATORS[self.op](left, right)
            return np.asarray(result, dtype=bool)
        with np.errstate(invalid="ignore"):
            result = _COMPARATORS[self.op](left, right)
        # missing (or infinite, which counts as missing) numeric values never
        # satisfy a comparison
        return np.asarray(result, dtype=bool) & np.isfinite(left) & np.isfinite(right)

    def _over_codes(self, table: Table) -> np.ndarray | None:
        """``column = literal`` (or ``!=``, either side) on a categorical column.

        Compares each distinct value once and gathers the answers by code;
        returns ``None`` when the operands are not of that shape.
        """
        if isinstance(self.left, ColumnRef) and isinstance(self.right, Literal):
            column, literal, flipped = self.left, self.right, False
        elif isinstance(self.left, Literal) and isinstance(self.right, ColumnRef):
            column, literal, flipped = self.right, self.left, True
        else:
            return None
        if not table.schema.column(column.name).is_categorical:
            return None
        codes, levels = table.categorical_codes(column.name)
        value = literal.scalar()
        compare = _COMPARATORS[self.op]
        answers = [
            bool(compare(value, level) if flipped else compare(level, value))
            for level in (*levels, None)
        ]
        return np.array(answers, dtype=bool)[codes]

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class Between(Expression):
    """An inclusive range predicate ``low <= column <= high``."""

    operand: Expression
    low: float
    high: float

    def evaluate(self, table: Table) -> np.ndarray:
        values = self.operand.evaluate(table).astype(float)
        with np.errstate(invalid="ignore"):
            result = (values >= self.low) & (values <= self.high)
        return np.asarray(result, dtype=bool) & np.isfinite(values)

    def columns(self) -> set[str]:
        return self.operand.columns()

    def __str__(self) -> str:
        return f"{self.operand} BETWEEN {self.low:g} AND {self.high:g}"


@dataclass(frozen=True)
class IsIn(Expression):
    """Set-membership predicate ``column IN (v1, v2, ...)``."""

    operand: Expression
    values: tuple[Any, ...]

    def evaluate(self, table: Table) -> np.ndarray:
        allowed = set(self.values)
        operand = self.operand
        if isinstance(operand, ColumnRef) and table.schema.column(operand.name).is_categorical:
            # test each distinct value once, gather the answers by code
            codes, levels = table.categorical_codes(operand.name)
            answers = [level in allowed for level in (*levels, None)]
            return np.array(answers, dtype=bool)[codes]
        values = operand.evaluate(table)
        return np.array([value in allowed for value in values.tolist()], dtype=bool)

    def columns(self) -> set[str]:
        return self.operand.columns()

    def __str__(self) -> str:
        rendered = ", ".join(
            f"'{v}'" if isinstance(v, str) else str(v) for v in self.values
        )
        return f"{self.operand} IN ({rendered})"


@dataclass(frozen=True)
class And(Expression):
    """Conjunction of predicates."""

    operands: tuple[Expression, ...]

    def evaluate(self, table: Table) -> np.ndarray:
        if not self.operands:
            return np.ones(table.num_rows, dtype=bool)
        result = self.operands[0].mask(table)
        for operand in self.operands[1:]:
            result = result & operand.mask(table)
        return result

    def columns(self) -> set[str]:
        return set().union(*(operand.columns() for operand in self.operands)) if self.operands else set()

    def __str__(self) -> str:
        return " AND ".join(f"({operand})" if isinstance(operand, Or) else str(operand)
                            for operand in self.operands)


@dataclass(frozen=True)
class Or(Expression):
    """Disjunction of predicates."""

    operands: tuple[Expression, ...]

    def evaluate(self, table: Table) -> np.ndarray:
        if not self.operands:
            return np.zeros(table.num_rows, dtype=bool)
        result = self.operands[0].mask(table)
        for operand in self.operands[1:]:
            result = result | operand.mask(table)
        return result

    def columns(self) -> set[str]:
        return set().union(*(operand.columns() for operand in self.operands)) if self.operands else set()

    def __str__(self) -> str:
        return " OR ".join(str(operand) for operand in self.operands)


@dataclass(frozen=True)
class Not(Expression):
    """Negation of a predicate."""

    operand: Expression

    def evaluate(self, table: Table) -> np.ndarray:
        return ~self.operand.mask(table)

    def columns(self) -> set[str]:
        return self.operand.columns()

    def __str__(self) -> str:
        return f"NOT ({self.operand})"


_ARITHMETIC_OPS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
}


@dataclass(frozen=True)
class Arithmetic(Expression):
    """A binary arithmetic expression over numeric operands."""

    left: Expression
    op: str
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _ARITHMETIC_OPS:
            raise ExpressionError(f"unknown arithmetic operator {self.op!r}")

    def evaluate(self, table: Table) -> np.ndarray:
        left = self.left.evaluate(table).astype(float)
        right = self.right.evaluate(table).astype(float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return _ARITHMETIC_OPS[self.op](left, right)

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_PATTERN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>-?\d+(\.\d+)?([eE][+-]?\d+)?)
  | (?P<string>'[^']*'|"[^"]*")
  | (?P<op><=|>=|!=|<>|=|<|>|\+|-|\*|/|\(|\)|,)
  | (?P<quoted_name>`[^`]+`)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"AND", "OR", "NOT", "IN", "BETWEEN", "TRUE", "FALSE", "NULL", "IS"}


@dataclass
class _Token:
    kind: str
    value: str


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_PATTERN.match(text, position)
        if match is None:
            raise ExpressionError(f"cannot tokenize expression at: {text[position:]!r}")
        position = match.end()
        kind = match.lastgroup or ""
        if kind == "ws":
            continue
        value = match.group()
        if kind == "quoted_name":
            tokens.append(_Token("name", value[1:-1]))
            continue
        if kind == "name":
            value = value.strip()
            if value.upper() in _KEYWORDS:
                tokens.append(_Token("keyword", value.upper()))
                continue
        tokens.append(_Token(kind, value))
    return tokens


class _Parser:
    """Recursive-descent parser for the condition grammar.

    Grammar (lowest to highest precedence)::

        or_expr    := and_expr (OR and_expr)*
        and_expr   := not_expr (AND not_expr)*
        not_expr   := NOT not_expr | predicate
        predicate  := additive (cmp additive | BETWEEN number AND number
                      | IN '(' literal (',' literal)* ')')?
        additive   := term (('+'|'-') term)*
        term       := factor (('*'|'/') factor)*
        factor     := number | string | TRUE | FALSE | name | '(' or_expr ')'
    """

    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._index = 0

    def parse(self) -> Expression:
        expression = self._or_expr()
        if self._index != len(self._tokens):
            raise ExpressionError(
                f"unexpected trailing tokens: {[t.value for t in self._tokens[self._index:]]}"
            )
        return expression

    # -- helpers --------------------------------------------------------------

    def _peek(self) -> _Token | None:
        return self._tokens[self._index] if self._index < len(self._tokens) else None

    def _advance(self) -> _Token:
        token = self._peek()
        if token is None:
            raise ExpressionError("unexpected end of expression")
        self._index += 1
        return token

    def _match_keyword(self, *keywords: str) -> bool:
        token = self._peek()
        if token is not None and token.kind == "keyword" and token.value in keywords:
            self._index += 1
            return True
        return False

    def _expect(self, kind: str, value: str | None = None) -> _Token:
        token = self._advance()
        if token.kind != kind or (value is not None and token.value != value):
            raise ExpressionError(f"expected {value or kind}, got {token.value!r}")
        return token

    # -- grammar rules ---------------------------------------------------------

    def _or_expr(self) -> Expression:
        operands = [self._and_expr()]
        while self._match_keyword("OR"):
            operands.append(self._and_expr())
        return operands[0] if len(operands) == 1 else Or(tuple(operands))

    def _and_expr(self) -> Expression:
        operands = [self._not_expr()]
        while self._match_keyword("AND"):
            operands.append(self._not_expr())
        return operands[0] if len(operands) == 1 else And(tuple(operands))

    def _not_expr(self) -> Expression:
        if self._match_keyword("NOT"):
            return Not(self._not_expr())
        return self._predicate()

    def _predicate(self) -> Expression:
        left = self._additive()
        token = self._peek()
        if token is None:
            return left
        if token.kind == "op" and token.value in ("=", "!=", "<>", "<", "<=", ">", ">="):
            self._advance()
            op = "!=" if token.value == "<>" else token.value
            right = self._additive()
            return Comparison(left, op, right)
        if token.kind == "keyword" and token.value == "BETWEEN":
            self._advance()
            low = self._literal_number()
            if not self._match_keyword("AND"):
                raise ExpressionError("BETWEEN requires AND")
            high = self._literal_number()
            return Between(left, low, high)
        if token.kind == "keyword" and token.value == "IN":
            self._advance()
            self._expect("op", "(")
            values = [self._literal_value()]
            while self._peek() is not None and self._peek().value == ",":
                self._advance()
                values.append(self._literal_value())
            self._expect("op", ")")
            return IsIn(left, tuple(values))
        return left

    def _additive(self) -> Expression:
        left = self._term()
        while self._peek() is not None and self._peek().kind == "op" and self._peek().value in ("+", "-"):
            op = self._advance().value
            left = Arithmetic(left, op, self._term())
        return left

    def _term(self) -> Expression:
        left = self._factor()
        while self._peek() is not None and self._peek().kind == "op" and self._peek().value in ("*", "/"):
            op = self._advance().value
            left = Arithmetic(left, op, self._factor())
        return left

    def _factor(self) -> Expression:
        token = self._advance()
        if token.kind == "number":
            text = token.value
            return Literal(float(text) if any(c in text for c in ".eE") else int(text))
        if token.kind == "string":
            return Literal(token.value[1:-1])
        if token.kind == "keyword" and token.value in ("TRUE", "FALSE"):
            return Literal(token.value == "TRUE")
        if token.kind == "keyword" and token.value == "NULL":
            return Literal(None)
        if token.kind == "name":
            return ColumnRef(token.value)
        if token.kind == "op" and token.value == "(":
            inner = self._or_expr()
            self._expect("op", ")")
            return inner
        raise ExpressionError(f"unexpected token {token.value!r}")

    def _literal_number(self) -> float:
        token = self._expect("number")
        return float(token.value)

    def _literal_value(self) -> Any:
        token = self._advance()
        if token.kind == "number":
            text = token.value
            return float(text) if any(c in text for c in ".eE") else int(text)
        if token.kind == "string":
            return token.value[1:-1]
        if token.kind == "keyword" and token.value in ("TRUE", "FALSE"):
            return token.value == "TRUE"
        raise ExpressionError(f"expected a literal, got {token.value!r}")


def parse_expression(text: str) -> Expression:
    """Parse a condition string (e.g. ``"edu = 'MS' AND exp >= 3"``) into an AST.

    Raises
    ------
    ExpressionError
        If the string cannot be tokenized or parsed.
    """
    if not text or not text.strip():
        raise ExpressionError("empty expression")
    return _Parser(_tokenize(text)).parse()
