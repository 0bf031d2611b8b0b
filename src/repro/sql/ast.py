"""Abstract syntax tree of the SQL dialect.

The parser produces these nodes; semantic analysis
(:mod:`repro.sql.analyzer`) annotates expressions in place with their
resolved type (``ty``) and, for column references, their binding
(``resolved`` — a ``(table_alias, column_name)`` pair).

Only the node shapes live here; all behaviour (type checking, evaluation,
compilation) lives in the layers that consume the AST.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sql.types import DataType

__all__ = [
    "Expr",
    "Literal",
    "Parameter",
    "Interval",
    "ColumnRef",
    "Star",
    "Unary",
    "Binary",
    "Between",
    "InList",
    "Like",
    "IsNull",
    "CaseWhen",
    "FuncCall",
    "Cast",
    "SelectItem",
    "TableRef",
    "OrderItem",
    "Select",
    "ColumnDef",
    "CreateTable",
    "CreateIndex",
    "Explain",
    "Insert",
    "Prepare",
    "Execute",
    "Deallocate",
    "Statement",
    "AGGREGATE_FUNCTIONS",
    "walk",
]

AGGREGATE_FUNCTIONS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

@dataclass
class Expr:
    """Base class of all expression nodes."""

    # Annotated by the analyzer.
    ty: DataType | None = field(default=None, init=False, repr=False, compare=False)


@dataclass
class Literal(Expr):
    """A constant: int, float, str, bool, or :class:`datetime.date`."""

    value: object


@dataclass
class Parameter(Expr):
    """A prepared-statement placeholder ``$N`` (1-based).

    Its type is inferred at PREPARE time from the context it appears in
    (the other operand of a comparison/arithmetic expression); a value is
    bound at EXECUTE time without re-planning.
    """

    index: int  # 1-based position, as written: $1, $2, ...


@dataclass
class Interval(Expr):
    """An ``INTERVAL 'n' DAY|MONTH|YEAR`` literal (folded away at analysis)."""

    amount: int
    unit: str  # "DAY" | "MONTH" | "YEAR"


@dataclass
class ColumnRef(Expr):
    """A possibly-qualified column reference ``[table.]column``."""

    table: str | None
    column: str

    # Set by the analyzer: (table_alias, column_name) after resolution.
    resolved: tuple[str, str] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def display(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass
class Star(Expr):
    """``*`` — only valid inside ``COUNT(*)`` or as the whole select list."""

    table: str | None = None


@dataclass
class Unary(Expr):
    """Unary operator: ``-`` (negation) or ``NOT``."""

    op: str
    operand: Expr


@dataclass
class Binary(Expr):
    """Binary operator: arithmetic, comparison, ``AND``/``OR``."""

    op: str
    left: Expr
    right: Expr


@dataclass
class Between(Expr):
    """``expr [NOT] BETWEEN low AND high`` (inclusive both ends)."""

    expr: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass
class InList(Expr):
    """``expr [NOT] IN (item, ...)`` with literal items."""

    expr: Expr
    items: list[Expr]
    negated: bool = False


@dataclass
class Like(Expr):
    """``expr [NOT] LIKE pattern`` with ``%``/``_`` wildcards."""

    expr: Expr
    pattern: Expr
    negated: bool = False


@dataclass
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    expr: Expr
    negated: bool = False


@dataclass
class CaseWhen(Expr):
    """``CASE [operand] WHEN c THEN r ... [ELSE e] END``."""

    operand: Expr | None
    whens: list[tuple[Expr, Expr]]
    else_: Expr | None


@dataclass
class FuncCall(Expr):
    """Function call; aggregates are recognized by name."""

    name: str  # normalized upper-case
    args: list[Expr]
    distinct: bool = False

    @property
    def is_aggregate(self) -> bool:
        return self.name in AGGREGATE_FUNCTIONS


@dataclass
class Cast(Expr):
    """``CAST(expr AS type)``."""

    expr: Expr
    target: DataType


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------

@dataclass
class SelectItem:
    """One entry of the select list."""

    expr: Expr
    alias: str | None = None


@dataclass
class TableRef:
    """A base-table reference in the FROM clause."""

    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        """The name this table is visible under in the query."""
        return self.alias or self.name


@dataclass
class OrderItem:
    """One ``ORDER BY`` key."""

    expr: Expr
    descending: bool = False


@dataclass
class Select:
    """A (single-block) ``SELECT`` statement.

    Explicit ``JOIN ... ON`` syntax is normalized by the parser: joined
    tables are appended to ``tables`` and the join conditions are AND-ed
    into ``where``.  Only inner joins are supported.
    """

    items: list[SelectItem]
    tables: list[TableRef]
    where: Expr | None = None
    group_by: list[Expr] = field(default_factory=list)
    having: Expr | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    offset: int = 0
    distinct: bool = False
    #: Set by the analyzer once names are resolved and types inferred;
    #: planning needs it, and a plan-cache hit never pays for it.
    analyzed: bool = field(default=False, init=False, repr=False,
                           compare=False)


@dataclass
class ColumnDef:
    """One column of a ``CREATE TABLE``."""

    name: str
    ty: DataType
    primary_key: bool = False


@dataclass
class CreateTable:
    name: str
    columns: list[ColumnDef]


@dataclass
class Insert:
    table: str
    columns: list[str] | None
    rows: list[list[Expr]]


@dataclass
class CreateIndex:
    name: str
    table: str
    column: str


@dataclass
class Explain:
    """``EXPLAIN [ANALYZE] <select>``.

    Plain ``EXPLAIN`` renders the plan without running it;
    ``EXPLAIN ANALYZE`` executes the query under tracing and annotates
    the plan with observed per-pipeline/per-tier statistics.
    """

    statement: "Select | Execute"
    analyze: bool = False


@dataclass
class Prepare:
    """``PREPARE name AS <select>`` — plan once, execute many times."""

    name: str
    statement: Select

    # Set by the analyzer: inferred type of $1..$N, in order.
    param_types: list[DataType] | None = field(
        default=None, init=False, repr=False, compare=False
    )


@dataclass
class Execute:
    """``EXECUTE name(arg, ...)`` with literal arguments for ``$N``."""

    name: str
    args: list[Expr] = field(default_factory=list)


@dataclass
class Deallocate:
    """``DEALLOCATE name`` or ``DEALLOCATE ALL``; ``name is None`` = ALL."""

    name: str | None


@dataclass
class Cancel:
    """``CANCEL <query_id>`` — cooperatively abort a running query.

    The target aborts at its next morsel boundary with a structured
    :class:`~repro.errors.QueryCancelled`; query ids are listed by
    ``SHOW QUERIES``.
    """

    query_id: int


@dataclass
class ShowQueries:
    """``SHOW QUERIES`` — the service's in-flight query registry."""


@dataclass
class SetOption:
    """``SET <name> = <value>`` — a session option.

    ``value`` is the literal expression as parsed; ``None`` (from
    ``SET name = DEFAULT``) resets the option.  The only option today
    is ``statement_timeout`` (seconds; 0 disables).
    """

    name: str
    value: "Expr | None"


Statement = (
    Select | CreateTable | Insert | CreateIndex | Explain
    | Prepare | Execute | Deallocate | Cancel | ShowQueries | SetOption
)


def walk(expr: Expr):
    """Yield ``expr`` and all of its sub-expressions, pre-order."""
    yield expr
    if isinstance(expr, Unary):
        yield from walk(expr.operand)
    elif isinstance(expr, Binary):
        yield from walk(expr.left)
        yield from walk(expr.right)
    elif isinstance(expr, Between):
        yield from walk(expr.expr)
        yield from walk(expr.low)
        yield from walk(expr.high)
    elif isinstance(expr, InList):
        yield from walk(expr.expr)
        for item in expr.items:
            yield from walk(item)
    elif isinstance(expr, Like):
        yield from walk(expr.expr)
        yield from walk(expr.pattern)
    elif isinstance(expr, IsNull):
        yield from walk(expr.expr)
    elif isinstance(expr, CaseWhen):
        if expr.operand is not None:
            yield from walk(expr.operand)
        for cond, result in expr.whens:
            yield from walk(cond)
            yield from walk(result)
        if expr.else_ is not None:
            yield from walk(expr.else_)
    elif isinstance(expr, FuncCall):
        for arg in expr.args:
            yield from walk(arg)
    elif isinstance(expr, Cast):
        yield from walk(expr.expr)
