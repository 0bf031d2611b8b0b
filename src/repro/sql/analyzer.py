"""Semantic analysis: name resolution, type checking, constant folding.

:func:`analyze` validates a parsed statement against a catalog and
annotates every expression node in place with its type (``Expr.ty``);
column references additionally get their binding (``ColumnRef.resolved``).
It returns a :class:`Scope` describing the visible tables.

Analysis also performs the rewrites the rest of the system relies on:

* ``date ± INTERVAL`` folding (e.g. ``DATE '1998-12-01' - INTERVAL '90' DAY``),
* ``*`` expansion in the select list,
* operand-form ``CASE x WHEN v ...`` into the searched form,
* literal typing (integers, floats, strings, dates, booleans).

NULL values are not supported by this system (matching the paper's
experiments, which use NOT NULL data throughout); ``IS NULL`` is folded
to a constant and ``NULL`` literals are rejected.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.catalog.schema import TableSchema
from repro.errors import AnalysisError
from repro.sql import ast
from repro.sql import types as T

__all__ = ["Scope", "ParamRegistry", "analyze", "analyze_select", "add_months"]

_COMPARISON_OPS = {"=", "<>", "<", "<=", ">", ">="}
_ARITHMETIC_OPS = {"+", "-", "*", "/", "%"}


def add_months(date: _dt.date, months: int) -> _dt.date:
    """Calendar-aware month arithmetic (day clamped to month end)."""
    month_index = date.year * 12 + (date.month - 1) + months
    year, month = divmod(month_index, 12)
    month += 1
    day = date.day
    while day > 28:
        try:
            return _dt.date(year, month, day)
        except ValueError:
            day -= 1
    return _dt.date(year, month, day)


@dataclass
class ParamRegistry:
    """Types inferred for ``$N`` placeholders while analyzing a PREPARE.

    Each occurrence of a parameter registers the type its context demands;
    occurrences of the same parameter are reconciled via the usual type
    promotion, and :meth:`finalize` enforces that parameters are numbered
    contiguously from ``$1``.
    """

    types: dict[int, T.DataType] = field(default_factory=dict)

    def register(self, index: int, ty: T.DataType) -> T.DataType:
        prev = self.types.get(index)
        if prev is not None:
            try:
                ty = T.common_type(prev, ty)
            except Exception:
                raise AnalysisError(
                    f"conflicting types for parameter ${index}: {prev} vs {ty}"
                ) from None
        self.types[index] = ty
        return ty

    def finalize(self) -> list[T.DataType]:
        if not self.types:
            return []
        highest = max(self.types)
        missing = [i for i in range(1, highest + 1) if i not in self.types]
        if missing:
            gaps = ", ".join(f"${i}" for i in missing)
            raise AnalysisError(
                f"parameters must be numbered contiguously from $1; missing {gaps}"
            )
        return [self.types[i] for i in range(1, highest + 1)]


@dataclass
class Scope:
    """The tables visible to a query block, in FROM order."""

    tables: dict[str, TableSchema] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)

    def add(self, binding: str, schema: TableSchema) -> None:
        if binding in self.tables:
            raise AnalysisError(f"duplicate table binding {binding!r}")
        self.tables[binding] = schema
        self.order.append(binding)

    def resolve_column(self, ref: ast.ColumnRef) -> tuple[str, T.DataType]:
        """Resolve a column reference; returns (binding, type)."""
        if ref.table is not None:
            schema = self.tables.get(ref.table)
            if schema is None:
                raise AnalysisError(f"unknown table {ref.table!r}")
            if ref.column not in schema:
                raise AnalysisError(
                    f"table {ref.table!r} has no column {ref.column!r}"
                )
            return ref.table, schema.column(ref.column).ty
        matches = [
            binding
            for binding, schema in self.tables.items()
            if ref.column in schema
        ]
        if not matches:
            raise AnalysisError(f"unknown column {ref.column!r}")
        if len(matches) > 1:
            raise AnalysisError(
                f"ambiguous column {ref.column!r}: in tables {sorted(matches)}"
            )
        return matches[0], self.tables[matches[0]].column(ref.column).ty


def analyze(stmt: ast.Statement, catalog: Catalog) -> Scope | None:
    """Analyze any statement.  SELECTs return their :class:`Scope`."""
    if isinstance(stmt, ast.Explain):
        return analyze(stmt.statement, catalog)
    if isinstance(stmt, ast.Select):
        return analyze_select(stmt, catalog)
    if isinstance(stmt, ast.CreateTable):
        _analyze_create(stmt, catalog)
        return None
    if isinstance(stmt, ast.Insert):
        _analyze_insert(stmt, catalog)
        return None
    if isinstance(stmt, ast.CreateIndex):
        if stmt.table not in catalog:
            raise AnalysisError(f"unknown table {stmt.table!r}")
        schema = catalog.get(stmt.table).schema
        if stmt.column not in schema:
            raise AnalysisError(
                f"table {stmt.table!r} has no column {stmt.column!r}"
            )
        ty = schema.column(stmt.column).ty
        if ty.is_string:
            raise AnalysisError("string indexes are not supported")
        return None
    if isinstance(stmt, ast.Prepare):
        params = ParamRegistry()
        scope = analyze_select(stmt.statement, catalog, params=params)
        stmt.param_types = params.finalize()
        return scope
    if isinstance(stmt, ast.Execute):
        for arg in stmt.args:
            if not isinstance(arg, (ast.Literal, ast.Unary)):
                raise AnalysisError("EXECUTE arguments must be literals")
        return None
    if isinstance(stmt, ast.Deallocate):
        return None
    if isinstance(stmt, (ast.Cancel, ast.ShowQueries)):
        return None
    if isinstance(stmt, ast.SetOption):
        if stmt.value is not None and not isinstance(
                stmt.value, (ast.Literal, ast.Unary)):
            raise AnalysisError("SET values must be literals")
        return None
    raise AnalysisError(f"cannot analyze {type(stmt).__name__}")


def _analyze_create(stmt: ast.CreateTable, catalog: Catalog) -> None:
    if stmt.name in catalog:
        raise AnalysisError(f"table {stmt.name!r} already exists")
    if not stmt.columns:
        raise AnalysisError("a table needs at least one column")
    seen: set[str] = set()
    for col in stmt.columns:
        if col.name in seen:
            raise AnalysisError(f"duplicate column {col.name!r}")
        seen.add(col.name)


def _analyze_insert(stmt: ast.Insert, catalog: Catalog) -> None:
    table = catalog.get(stmt.table)
    schema: TableSchema = table.schema
    names = stmt.columns or schema.column_names
    for name in names:
        if name not in schema:
            raise AnalysisError(
                f"table {stmt.table!r} has no column {name!r}"
            )
    if stmt.columns is not None and set(names) != set(schema.column_names):
        raise AnalysisError("INSERT must provide every column (no NULL support)")
    for row in stmt.rows:
        if len(row) != len(names):
            raise AnalysisError(
                f"INSERT row has {len(row)} values, expected {len(names)}"
            )
        for value in row:
            if not isinstance(value, (ast.Literal, ast.Unary)):
                raise AnalysisError("INSERT values must be literals")


def analyze_select(
    stmt: ast.Select, catalog: Catalog, params: ParamRegistry | None = None
) -> Scope:
    scope = Scope()
    for ref in stmt.tables:
        if ref.name not in catalog:
            raise AnalysisError(f"unknown table {ref.name!r}")
        table = catalog.get(ref.name)
        scope.add(ref.binding, table.schema)

    analyzer = _ExprAnalyzer(scope, params)

    # Expand ``*`` / ``t.*`` in the select list.
    expanded: list[ast.SelectItem] = []
    for item in stmt.items:
        if isinstance(item.expr, ast.Star):
            bindings = (
                [item.expr.table] if item.expr.table is not None else scope.order
            )
            for binding in bindings:
                schema = scope.tables.get(binding)
                if schema is None:
                    raise AnalysisError(f"unknown table {binding!r}")
                for col in schema:
                    expanded.append(
                        ast.SelectItem(ast.ColumnRef(binding, col.name), col.name)
                    )
        else:
            expanded.append(item)
    stmt.items[:] = expanded

    for item in stmt.items:
        item.expr = analyzer.visit(item.expr)
    if stmt.where is not None:
        stmt.where = analyzer.visit(stmt.where)
        _require_boolean(stmt.where, "WHERE")
    stmt.group_by = [analyzer.visit(e) for e in stmt.group_by]
    if stmt.having is not None:
        stmt.having = analyzer.visit(stmt.having)
        _require_boolean(stmt.having, "HAVING")
    # ORDER BY may reference select-list aliases (standard SQL)
    alias_map = {
        item.alias: item.expr for item in stmt.items if item.alias
    }
    for order in stmt.order_by:
        expr = order.expr
        if isinstance(expr, ast.ColumnRef) and expr.table is None \
                and expr.column in alias_map:
            order.expr = alias_map[expr.column]  # already analyzed
        else:
            order.expr = analyzer.visit(expr)

    _check_aggregation(stmt)
    stmt.analyzed = True
    return scope


def _require_boolean(expr: ast.Expr, clause: str) -> None:
    if not (expr.ty and expr.ty.is_boolean):
        raise AnalysisError(f"{clause} clause must be boolean, got {expr.ty}")


def _expr_key(expr: ast.Expr) -> str:
    """A structural key used to match select/order expressions to GROUP BY."""
    if isinstance(expr, ast.ColumnRef):
        return f"col:{expr.resolved}"
    if isinstance(expr, ast.Literal):
        return f"lit:{expr.value!r}"
    if isinstance(expr, ast.Unary):
        return f"un:{expr.op}({_expr_key(expr.operand)})"
    if isinstance(expr, ast.Binary):
        return f"bin:{expr.op}({_expr_key(expr.left)},{_expr_key(expr.right)})"
    if isinstance(expr, ast.FuncCall):
        args = ",".join(_expr_key(a) for a in expr.args)
        return f"fn:{expr.name}({args})"
    if isinstance(expr, ast.Cast):
        return f"cast:{expr.target}({_expr_key(expr.expr)})"
    if isinstance(expr, ast.Parameter):
        return f"param:{expr.index}"
    return f"id:{id(expr)}"


def _contains_aggregate(expr: ast.Expr) -> bool:
    return any(
        isinstance(e, ast.FuncCall) and e.is_aggregate for e in ast.walk(expr)
    )


def _check_aggregation(stmt: ast.Select) -> None:
    """Validate the interplay of aggregates and GROUP BY."""
    has_aggregates = any(_contains_aggregate(i.expr) for i in stmt.items)
    if stmt.having is not None and not (has_aggregates or stmt.group_by):
        raise AnalysisError("HAVING requires GROUP BY or aggregation")
    if not has_aggregates and not stmt.group_by:
        for item in stmt.items:
            for sub in ast.walk(item.expr):
                if isinstance(sub, ast.FuncCall) and sub.is_aggregate:
                    raise AnalysisError("unreachable")  # pragma: no cover
        return

    group_keys = {_expr_key(e) for e in stmt.group_by}

    def check_grouped(expr: ast.Expr, where: str) -> None:
        """Every path must end in an aggregate, a grouping key, or a literal."""
        if _expr_key(expr) in group_keys:
            return
        if isinstance(expr, ast.FuncCall) and expr.is_aggregate:
            for arg in expr.args:
                if _contains_aggregate(arg):
                    raise AnalysisError("aggregates cannot be nested")
            return
        if isinstance(expr, ast.Literal):
            return
        if isinstance(expr, ast.ColumnRef):
            raise AnalysisError(
                f"column {expr.display!r} in {where} is neither aggregated "
                f"nor in GROUP BY"
            )
        if isinstance(expr, ast.Unary):
            check_grouped(expr.operand, where)
        elif isinstance(expr, ast.Binary):
            check_grouped(expr.left, where)
            check_grouped(expr.right, where)
        elif isinstance(expr, ast.Cast):
            check_grouped(expr.expr, where)
        elif isinstance(expr, ast.CaseWhen):
            for cond, result in expr.whens:
                check_grouped(cond, where)
                check_grouped(result, where)
            if expr.else_ is not None:
                check_grouped(expr.else_, where)
        elif isinstance(expr, ast.FuncCall):
            for arg in expr.args:
                check_grouped(arg, where)
        elif isinstance(expr, (ast.Between, ast.InList, ast.Like)):
            for sub in ast.walk(expr):
                if sub is not expr:
                    check_grouped(sub, where)

    for item in stmt.items:
        check_grouped(item.expr, "SELECT")
    if stmt.having is not None:
        check_grouped(stmt.having, "HAVING")
    for order in stmt.order_by:
        select_keys = {_expr_key(i.expr) for i in stmt.items}
        if _expr_key(order.expr) not in select_keys:
            check_grouped(order.expr, "ORDER BY")


class _ExprAnalyzer:
    """Resolves, types, and rewrites one expression tree."""

    def __init__(self, scope: Scope, params: ParamRegistry | None = None):
        self.scope = scope
        self.params = params

    def visit(self, expr: ast.Expr) -> ast.Expr:
        method = getattr(self, f"_visit_{type(expr).__name__.lower()}", None)
        if method is None:
            raise AnalysisError(f"cannot analyze {type(expr).__name__}")
        return method(expr)

    def _visit_pair(self, a: ast.Expr, b: ast.Expr) -> tuple[ast.Expr, ast.Expr]:
        """Visit two operands; an untyped ``$N`` on one side takes the type
        of the other side (the context-based inference of PREPARE)."""
        a_param = isinstance(a, ast.Parameter)
        b_param = isinstance(b, ast.Parameter)
        if self.params is not None and a_param != b_param:
            if a_param:
                b = self.visit(b)
                self.params.register(a.index, b.ty)
                return self.visit(a), b
            a = self.visit(a)
            self.params.register(b.index, a.ty)
            return a, self.visit(b)
        return self.visit(a), self.visit(b)

    # -- leaves ---------------------------------------------------------------

    def _visit_literal(self, expr: ast.Literal) -> ast.Expr:
        value = expr.value
        if value is None:
            raise AnalysisError("NULL values are not supported")
        if isinstance(value, bool):
            expr.ty = T.BOOLEAN
        elif isinstance(value, int):
            expr.ty = T.INT32 if -(2**31) <= value < 2**31 else T.INT64
        elif isinstance(value, float):
            expr.ty = T.DOUBLE
        elif isinstance(value, _dt.date):
            expr.ty = T.DATE
        elif isinstance(value, str):
            expr.ty = T.char(max(1, len(value.encode("utf-8"))))
        else:
            raise AnalysisError(f"unsupported literal {value!r}")
        return expr

    def _visit_parameter(self, expr: ast.Parameter) -> ast.Expr:
        if self.params is None:
            raise AnalysisError(
                "parameters ($N) are only allowed in PREPARE statements"
            )
        ty = self.params.types.get(expr.index)
        if ty is None:
            raise AnalysisError(
                f"cannot infer the type of parameter ${expr.index}; "
                f"compare it to a column or add an explicit CAST"
            )
        expr.ty = ty
        return expr

    def _visit_interval(self, expr: ast.Interval) -> ast.Expr:
        raise AnalysisError(
            "INTERVAL is only valid in date ± INTERVAL expressions"
        )

    def _visit_star(self, expr: ast.Star) -> ast.Expr:
        raise AnalysisError("* is only valid in COUNT(*) or as the select list")

    def _visit_columnref(self, expr: ast.ColumnRef) -> ast.Expr:
        binding, ty = self.scope.resolve_column(expr)
        expr.resolved = (binding, expr.column)
        expr.ty = ty
        return expr

    # -- operators -------------------------------------------------------------

    def _visit_unary(self, expr: ast.Unary) -> ast.Expr:
        expr.operand = self.visit(expr.operand)
        if expr.op == "NOT":
            if not expr.operand.ty.is_boolean:
                raise AnalysisError(f"NOT requires a boolean, got {expr.operand.ty}")
            expr.ty = T.BOOLEAN
            return expr
        if expr.op == "-":
            if isinstance(expr.operand, ast.Literal) and isinstance(
                expr.operand.value, (int, float)
            ) and not isinstance(expr.operand.value, bool):
                folded = ast.Literal(-expr.operand.value)
                return self._visit_literal(folded)
            if not expr.operand.ty.is_numeric:
                raise AnalysisError(
                    f"unary - requires a numeric, got {expr.operand.ty}"
                )
            expr.ty = expr.operand.ty
            return expr
        raise AnalysisError(f"unknown unary operator {expr.op!r}")

    def _visit_binary(self, expr: ast.Binary) -> ast.Expr:
        # date ± INTERVAL folds before the operands are typed.
        if expr.op in ("+", "-") and isinstance(expr.right, ast.Interval):
            left = self.visit(expr.left)
            if isinstance(left, ast.Literal) and isinstance(left.value, _dt.date):
                return self._visit_literal(
                    ast.Literal(_shift_date(left.value, expr.right, expr.op))
                )
            raise AnalysisError(
                "date ± INTERVAL is only supported on date literals"
            )

        expr.left, expr.right = self._visit_pair(expr.left, expr.right)
        lt, rt = expr.left.ty, expr.right.ty

        if expr.op in ("AND", "OR"):
            if not (lt.is_boolean and rt.is_boolean):
                raise AnalysisError(
                    f"{expr.op} requires booleans, got {lt} and {rt}"
                )
            expr.ty = T.BOOLEAN
            return expr

        if expr.op in _COMPARISON_OPS:
            T.common_type(lt, rt)  # raises on incompatibility
            if lt.is_string and rt.is_string:
                pass  # byte-wise comparison of padded strings
            expr.ty = T.BOOLEAN
            return expr

        if expr.op in _ARITHMETIC_OPS:
            if not (lt.is_numeric and rt.is_numeric):
                raise AnalysisError(
                    f"operator {expr.op!r} requires numerics, got {lt} and {rt}"
                )
            if expr.op == "%":
                if not (lt.is_integer and rt.is_integer):
                    raise AnalysisError("% requires integer operands")
                expr.ty = T.common_type(lt, rt)
                return expr
            common = T.common_type(lt, rt)
            if expr.op == "/" and common.is_decimal:
                common = T.DOUBLE  # decimal division widens to double
            expr.ty = common
            return expr

        raise AnalysisError(f"unknown operator {expr.op!r}")

    def _visit_between(self, expr: ast.Between) -> ast.Expr:
        expr.expr, expr.low = self._visit_pair(expr.expr, expr.low)
        if self.params is not None and isinstance(expr.high, ast.Parameter):
            self.params.register(expr.high.index, expr.expr.ty)
        expr.high = self.visit(expr.high)
        T.common_type(expr.expr.ty, expr.low.ty)
        T.common_type(expr.expr.ty, expr.high.ty)
        expr.ty = T.BOOLEAN
        return expr

    def _visit_inlist(self, expr: ast.InList) -> ast.Expr:
        expr.expr = self.visit(expr.expr)
        if self.params is not None:
            for item in expr.items:
                if isinstance(item, ast.Parameter):
                    self.params.register(item.index, expr.expr.ty)
        expr.items = [self.visit(item) for item in expr.items]
        for item in expr.items:
            T.common_type(expr.expr.ty, item.ty)
        expr.ty = T.BOOLEAN
        return expr

    def _visit_like(self, expr: ast.Like) -> ast.Expr:
        expr.expr = self.visit(expr.expr)
        expr.pattern = self.visit(expr.pattern)
        if not expr.expr.ty.is_string:
            raise AnalysisError(f"LIKE requires a string, got {expr.expr.ty}")
        if not isinstance(expr.pattern, ast.Literal):
            raise AnalysisError("LIKE pattern must be a string literal")
        expr.ty = T.BOOLEAN
        return expr

    def _visit_isnull(self, expr: ast.IsNull) -> ast.Expr:
        # No NULLs in this system: IS NULL is constant false / IS NOT NULL true.
        self.visit(expr.expr)
        return self._visit_literal(ast.Literal(bool(expr.negated)))

    def _visit_casewhen(self, expr: ast.CaseWhen) -> ast.Expr:
        if expr.operand is not None:
            # Rewrite operand form into searched form.
            operand = expr.operand
            expr.whens = [
                (ast.Binary("=", operand, cond), result)
                for cond, result in expr.whens
            ]
            expr.operand = None
        if not expr.whens:
            raise AnalysisError("CASE needs at least one WHEN branch")
        new_whens = []
        result_ty: T.DataType | None = None
        for cond, result in expr.whens:
            cond = self.visit(cond)
            if not cond.ty.is_boolean:
                raise AnalysisError("WHEN condition must be boolean")
            result = self.visit(result)
            result_ty = (
                result.ty if result_ty is None
                else T.common_type(result_ty, result.ty)
            )
            new_whens.append((cond, result))
        expr.whens = new_whens
        if expr.else_ is not None:
            expr.else_ = self.visit(expr.else_)
            result_ty = T.common_type(result_ty, expr.else_.ty)
        else:
            if not result_ty.is_numeric:
                raise AnalysisError(
                    "CASE without ELSE is only supported for numeric results "
                    "(defaults to 0; no NULL support)"
                )
            expr.else_ = ast.Literal(0)
            expr.else_ = self.visit(expr.else_)
            result_ty = T.common_type(result_ty, expr.else_.ty)
        expr.ty = result_ty
        return expr

    def _visit_funccall(self, expr: ast.FuncCall) -> ast.Expr:
        if expr.name in ast.AGGREGATE_FUNCTIONS:
            return self._visit_aggregate(expr)
        if expr.name in ("EXTRACT_YEAR", "EXTRACT_MONTH", "EXTRACT_DAY"):
            if len(expr.args) != 1:
                raise AnalysisError(f"{expr.name} takes one argument")
            expr.args[0] = self.visit(expr.args[0])
            if not expr.args[0].ty.is_date:
                raise AnalysisError(f"{expr.name} requires a DATE argument")
            arg = expr.args[0]
            if isinstance(arg, ast.Literal):
                part = expr.name.split("_")[1].lower()
                return self._visit_literal(
                    ast.Literal(getattr(arg.value, part))
                )
            expr.ty = T.INT32
            return expr
        raise AnalysisError(f"unknown function {expr.name!r}")

    def _visit_aggregate(self, expr: ast.FuncCall) -> ast.Expr:
        if expr.name == "COUNT":
            if len(expr.args) != 1:
                raise AnalysisError("COUNT takes one argument (or *)")
            if isinstance(expr.args[0], ast.Star):
                expr.args[0].ty = T.INT64
            else:
                expr.args[0] = self.visit(expr.args[0])
            if expr.distinct:
                raise AnalysisError("COUNT(DISTINCT ...) is not supported")
            expr.ty = T.INT64
            return expr
        if len(expr.args) != 1:
            raise AnalysisError(f"{expr.name} takes exactly one argument")
        if expr.distinct:
            raise AnalysisError(f"{expr.name}(DISTINCT ...) is not supported")
        expr.args[0] = self.visit(expr.args[0])
        arg_ty = expr.args[0].ty
        if expr.name in ("SUM", "AVG") and not arg_ty.is_numeric:
            raise AnalysisError(f"{expr.name} requires a numeric argument")
        if expr.name in ("MIN", "MAX") and not (
            arg_ty.is_numeric or arg_ty.is_date
        ):
            raise AnalysisError(f"{expr.name} requires a numeric or date argument")
        if expr.name == "AVG":
            expr.ty = T.DOUBLE
        elif expr.name == "SUM":
            if arg_ty.is_integer:
                expr.ty = T.INT64  # widen to avoid overflow
            else:
                expr.ty = arg_ty
        else:  # MIN / MAX
            expr.ty = arg_ty
        return expr

    def _visit_cast(self, expr: ast.Cast) -> ast.Expr:
        # CAST($N AS type) is an explicit type annotation for a parameter.
        if self.params is not None and isinstance(expr.expr, ast.Parameter):
            self.params.register(expr.expr.index, expr.target)
        expr.expr = self.visit(expr.expr)
        src, dst = expr.expr.ty, expr.target
        ok = (
            (src.is_numeric and dst.is_numeric)
            or (src.is_string and dst.is_string)
            or src == dst
        )
        if not ok:
            raise AnalysisError(f"cannot CAST {src} to {dst}")
        expr.ty = dst
        return expr


def _shift_date(date: _dt.date, interval: ast.Interval, op: str) -> _dt.date:
    amount = interval.amount if op == "+" else -interval.amount
    if interval.unit == "DAY":
        return date + _dt.timedelta(days=amount)
    if interval.unit == "MONTH":
        return add_months(date, amount)
    return add_months(date, 12 * amount)
