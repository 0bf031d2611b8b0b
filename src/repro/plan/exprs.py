"""The lowered expression IR every engine executes.

Semantic analysis leaves expressions as an AST over named columns;
*lowering* rewrites them into a small, fully explicit IR over **slots**
(positions in the current operator's input tuple) with all type coercion
spelled out:

* literals are converted to their storage representation (dates to day
  numbers, decimals to scaled integers, strings to padded bytes),
* numeric widening becomes explicit :class:`Promote` nodes,
* DECIMAL arithmetic is desugared into scaled i64 arithmetic
  (``a*b/10**min(s1,s2)`` for multiplication, scale alignment for
  addition/comparison, conversion to DOUBLE for division),
* ``BETWEEN`` and ``IN`` become comparisons and disjunctions,
* ``LIKE`` patterns are classified into prefix/suffix/contains/exact
  matchers (a generic fallback handles the rest).

All four engines — Volcano, vectorized, HyPer-like, and the Wasm
backend — consume exactly this IR, which keeps their results comparable
and their expression semantics identical by construction.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace

from repro.errors import PlanError
from repro.sql import types as T
from repro.sql.types import DataType

__all__ = [
    "LExpr", "Slot", "Const", "Param", "Neg", "Arith", "Compare", "Logic",
    "Not", "Case", "Like", "Extract", "Promote", "Aggregate",
    "AGGREGATES", "AggregateRow", "StateField", "INT_BITS", "wrap_int",
    "walk_lexpr", "slots_used", "params_used", "bind_params",
]


@dataclass
class LExpr:
    """Base class: a lowered expression with its SQL result type."""

    ty: DataType = field(init=False, repr=False)


@dataclass
class Slot(LExpr):
    """Reads position ``index`` of the operator's input tuple."""

    index: int

    def __init__(self, index: int, ty: DataType):
        self.index = index
        self.ty = ty


@dataclass
class Const(LExpr):
    """A literal in storage representation (scaled int, day number, bytes)."""

    value: object

    def __init__(self, value, ty: DataType):
        self.value = value
        self.ty = ty


@dataclass
class Param(LExpr):
    """A prepared-statement parameter ``$index`` with its inferred type.

    ``value`` holds the bound value in storage representation (like
    :class:`Const`); it is (re)assigned by :func:`bind_params` at EXECUTE
    time — the plan itself is immutable apart from this one field, which
    is what lets a cached plan be re-executed without re-lowering.
    """

    index: int  # 1-based, as written in the SQL text

    def __init__(self, index: int, ty: DataType):
        self.index = index
        self.ty = ty
        self.value = None  # unbound until EXECUTE

    @property
    def bound(self) -> bool:
        return self.value is not None


@dataclass
class Neg(LExpr):
    operand: LExpr

    def __init__(self, operand: LExpr):
        self.operand = operand
        self.ty = operand.ty


@dataclass
class Arith(LExpr):
    """Arithmetic on operands of the *same* Wasm category.

    ``op`` is one of ``+ - * / %``.  For DECIMAL-typed nodes the values
    are scaled i64 integers; scale corrections were inserted by lowering.
    """

    op: str
    left: LExpr
    right: LExpr

    def __init__(self, op: str, left: LExpr, right: LExpr, ty: DataType):
        self.op = op
        self.left = left
        self.right = right
        self.ty = ty


@dataclass
class Compare(LExpr):
    """Comparison of same-typed operands; yields BOOLEAN.

    String operands compare byte-wise (NUL padding sorts first, matching
    fixed-width CHAR semantics).
    """

    op: str  # = <> < <= > >=
    left: LExpr
    right: LExpr

    def __init__(self, op: str, left: LExpr, right: LExpr):
        self.op = op
        self.left = left
        self.right = right
        self.ty = T.BOOLEAN


@dataclass
class Logic(LExpr):
    """``AND`` / ``OR``; engines may short-circuit."""

    op: str
    left: LExpr
    right: LExpr

    def __init__(self, op: str, left: LExpr, right: LExpr):
        self.op = op
        self.left = left
        self.right = right
        self.ty = T.BOOLEAN


@dataclass
class Not(LExpr):
    operand: LExpr

    def __init__(self, operand: LExpr):
        self.operand = operand
        self.ty = T.BOOLEAN


@dataclass
class Case(LExpr):
    """Searched CASE; all results share one type, ELSE always present."""

    whens: list[tuple[LExpr, LExpr]]
    else_: LExpr

    def __init__(self, whens, else_: LExpr, ty: DataType):
        self.whens = list(whens)
        self.else_ = else_
        self.ty = ty


@dataclass
class Like(LExpr):
    """A classified LIKE match against a string slot/expression.

    ``kind``: ``exact`` | ``prefix`` | ``suffix`` | ``contains`` |
    ``generic``; ``pattern`` holds raw bytes for the first four kinds and
    the original SQL pattern string for ``generic``.
    """

    kind: str
    operand: LExpr
    pattern: object
    negated: bool = False

    def __init__(self, kind: str, operand: LExpr, pattern, negated=False):
        self.kind = kind
        self.operand = operand
        self.pattern = pattern
        self.negated = negated
        self.ty = T.BOOLEAN


@dataclass
class Extract(LExpr):
    """EXTRACT(YEAR|MONTH|DAY) from a DATE value (day number)."""

    part: str
    operand: LExpr

    def __init__(self, part: str, operand: LExpr):
        self.part = part
        self.operand = operand
        self.ty = T.INT32


@dataclass
class Promote(LExpr):
    """Numeric conversion without scaling: i32->i64, int->f64, f64->i64.

    Decimal rescaling is expressed separately as multiplication by a
    constant, so engines implement Promote as a plain category cast.
    """

    operand: LExpr

    def __init__(self, operand: LExpr, ty: DataType):
        self.operand = operand
        self.ty = ty


@dataclass
class Aggregate:
    """One aggregate computed by an aggregation operator (not an LExpr).

    ``kind``: COUNT (arg None means ``COUNT(*)``), SUM, AVG, MIN, MAX.
    ``arg`` is a lowered expression over the aggregation input; what the
    aggregate computes from it is :attr:`row` of :data:`AGGREGATES`.
    """

    kind: str
    arg: LExpr | None
    ty: DataType

    @property
    def row(self) -> AggregateRow:
        exact = self.arg is None or not self.arg.ty.is_floating
        return AGGREGATES[self.kind, exact]

    @property
    def scale(self) -> int:
        """Decimal scale of the argument (0 unless DECIMAL)."""
        return getattr(self.arg.ty, "scale", 0) if self.arg is not None else 0


# -- aggregate semantics ------------------------------------------------------

#: The width integer arithmetic wraps to, per Wasm value type (decimals
#: compute in i64, dates in i32).
INT_BITS = {"i32": 32, "i64": 64}


def wrap_int(value: int, bits: int = 64) -> int:
    """``value`` as the signed ``bits``-bit integer Wasm arithmetic
    leaves (two's complement)."""
    half = 1 << (bits - 1)
    return ((value + half) & ((half << 1) - 1)) - half


def _wrap_add(a: int, b: int) -> int:
    return wrap_int(a + b)


#: Identities of the compare updates, per Wasm storage type.
_EXTREMES = {
    "min": {"i32": 2**31 - 1, "i64": 2**63 - 1, "f64": float("inf")},
    "max": {"i32": -(2**31), "i64": -(2**63), "f64": float("-inf")},
}


@dataclass(frozen=True)
class StateField:
    """One accumulator of an aggregate's state.

    ``update`` is how a row folds in: ``"add"`` the value, ``"count"``
    one, or ``"min"`` / ``"max"`` by *strict* compare (the value
    replaces the accumulator only if ``value < acc`` / ``value > acc``,
    so a NaN is never selected and of equal values the first stays).
    ``step`` is that fold in Python, ``combine`` merges two partial
    states of the field.  ``suffix`` names the field in a Wasm layout
    (``a{i}{suffix}``).
    """

    update: str
    step: object
    combine: object
    suffix: str = ""

    def acc_type(self, agg: Aggregate) -> DataType:
        """Accumulator type: counts are INT64, the rest the argument's."""
        return T.INT64 if self.update == "count" else agg.arg.ty

    def identity(self, ty: DataType):
        """The state a field starts from (and an empty input leaves)."""
        if self.update in _EXTREMES:
            return _EXTREMES[self.update][ty.wasm_type]
        return 0.0 if ty.is_floating else 0


@dataclass(frozen=True)
class AggregateRow:
    """What one aggregate kind means over exact or floating input.

    ``order_free``: folding any partitioning of the input per partition
    and combining the partials field by field in partition order gives
    the bits of one sequential fold (i64 adds wrap; strict-compare
    min/max keeps the first of equal values either way).  Float adds
    are not associative, so float SUM / AVG are not order-free.

    ``mean`` selects the finalize: ``float(sum) / count / 10**scale``
    (0.0 for an empty input) instead of the lone field's value.  The
    empty-input value of every row is ``finalize`` of the identities.
    """

    fields: tuple[StateField, ...]
    order_free: bool
    mean: bool = False

    def finalize(self, state, scale: int = 0):
        """Accumulators (storage values) -> the aggregate's value.

        The Python engines add exact states unbounded; wrapping here
        gives the i64 result the Wasm adder reaches step by step.
        """
        total = wrap_int(state[0]) if isinstance(state[0], int) else state[0]
        if not self.mean:
            return total
        count = state[1]
        return float(total) / count / 10**scale if count else 0.0


_COUNT = StateField("count", lambda acc, _: acc + 1, _wrap_add)
_EXACT_SUM = StateField("add", operator.add, _wrap_add)
_FLOAT_SUM = StateField("add", operator.add, operator.add)
# a NaN partial never wins a combine, whatever side it arrives on
_MIN = StateField("min", lambda acc, v: v if v < acc else acc,
                  lambda a, b: b if b < a or a != a else a)
_MAX = StateField("max", lambda acc, v: v if v > acc else acc,
                  lambda a, b: b if b > a or a != a else a)


def _mean(total: StateField, order_free: bool) -> AggregateRow:
    return AggregateRow(
        (replace(total, suffix="_sum"), replace(_COUNT, suffix="_cnt")),
        order_free, mean=True,
    )


#: ``(kind, exact) -> AggregateRow``: the one definition of every
#: aggregate, read by codegen, the interpreting engines and the
#: parallel contract and merge.  ``exact`` is False when the argument
#: is a float.
AGGREGATES: dict[tuple[str, bool], AggregateRow] = {
    (kind, exact): row
    for kind, by_exactness in (
        ("COUNT", (AggregateRow((_COUNT,), True),) * 2),
        ("SUM", (AggregateRow((_EXACT_SUM,), True),
                 AggregateRow((_FLOAT_SUM,), False))),
        ("AVG", (_mean(_EXACT_SUM, True), _mean(_FLOAT_SUM, False))),
        ("MIN", (AggregateRow((_MIN,), True),) * 2),
        ("MAX", (AggregateRow((_MAX,), True),) * 2),
    )
    for exact, row in zip((True, False), by_exactness)
}


def walk_lexpr(expr: LExpr):
    """Yield ``expr`` and all sub-expressions, pre-order."""
    yield expr
    if isinstance(expr, (Neg, Not, Promote, Extract, Like)):
        yield from walk_lexpr(expr.operand)
    elif isinstance(expr, (Arith, Compare, Logic)):
        yield from walk_lexpr(expr.left)
        yield from walk_lexpr(expr.right)
    elif isinstance(expr, Case):
        for cond, result in expr.whens:
            yield from walk_lexpr(cond)
            yield from walk_lexpr(result)
        yield from walk_lexpr(expr.else_)


def slots_used(expr: LExpr) -> set[int]:
    """The input-tuple slots an expression reads."""
    return {
        node.index for node in walk_lexpr(expr) if isinstance(node, Slot)
    }


def params_used(expr: LExpr) -> list[Param]:
    """All :class:`Param` nodes in an expression (one per occurrence)."""
    return [node for node in walk_lexpr(expr) if isinstance(node, Param)]


def bind_params(params: list[Param], values: list[object]) -> None:
    """Bind EXECUTE arguments (storage representation) onto Param nodes.

    ``values[i]`` binds every occurrence of ``$(i+1)``; the caller has
    already coerced each value to the parameter's inferred type.
    """
    for node in params:
        if not (1 <= node.index <= len(values)):
            raise PlanError(
                f"parameter ${node.index} has no bound value "
                f"({len(values)} given)"
            )
        node.value = values[node.index - 1]


# ---------------------------------------------------------------------------
# Lowering from the analyzed AST
# ---------------------------------------------------------------------------

def classify_like_pattern(pattern: str) -> tuple[str, object]:
    """Classify a LIKE pattern into a matcher kind (see :class:`Like`)."""
    body = pattern
    if "_" in body:
        return "generic", pattern
    parts = body.split("%")
    stripped = [p for p in parts if p]
    if len(stripped) > 1:
        return "generic", pattern
    literal = (stripped[0] if stripped else "").encode("utf-8")
    starts = body.startswith("%")
    ends = body.endswith("%")
    if "%" not in body:
        return "exact", literal
    if not starts and ends and len(parts) == 2:
        return "prefix", literal
    if starts and not ends and len(parts) == 2:
        return "suffix", literal
    return "contains", literal


class Lowerer:
    """Rewrites analyzed AST expressions into the lowered IR.

    ``resolver`` maps a resolved column reference ``(binding, column)``
    to its ``(slot index, type)`` in the current operator input.
    """

    def __init__(self, resolver):
        self.resolve = resolver

    # -- coercion helpers ------------------------------------------------------

    def coerce(self, expr: LExpr, target: DataType) -> LExpr:
        """Convert ``expr`` to ``target`` (numeric widening + rescaling).

        Constants fold: the conversion happens at plan time, so engines
        see a single literal in storage representation.
        """
        src = expr.ty
        if src == target:
            return expr
        if isinstance(expr, Const) and src.is_numeric and target.is_numeric:
            python_value = src.from_storage(expr.value)
            return Const(target.to_storage(python_value), target)
        if src.is_string and target.is_string:
            return expr  # padded-bytes comparison handles length mismatch
        if not (src.is_numeric and target.is_numeric):
            if src.is_date and target.is_date:
                return expr
            raise PlanError(f"cannot coerce {src} to {target}")

        if isinstance(target, T.DecimalType):
            scale = target.scale
            if isinstance(src, T.DecimalType):
                delta = scale - src.scale
                if delta == 0:
                    return expr
                if delta > 0:
                    return Arith("*", expr, Const(10**delta, target), target)
                return Arith("/", expr, Const(10**-delta, target), target)
            if src.is_integer:
                promoted = Promote(expr, target)
                if scale == 0:
                    return promoted
                return Arith(
                    "*", promoted, Const(10**scale, target), target
                )
            raise PlanError(f"cannot coerce {src} to {target}")

        if target.is_floating:
            if isinstance(src, T.DecimalType):
                as_double = Promote(expr, target)
                if src.scale == 0:
                    return as_double
                return Arith(
                    "/", as_double, Const(float(src.factor), target), target
                )
            return Promote(expr, target)

        if target == T.INT64 and src.is_integer:
            return Promote(expr, target)
        if target == T.INT32 and src.is_integer:
            return Promote(expr, target)
        if target.is_integer and src.is_floating:
            return Promote(expr, target)  # truncating cast
        raise PlanError(f"cannot coerce {src} to {target}")

    def _binary_coerced(self, left: LExpr, right: LExpr) -> tuple:
        common = T.common_type(left.ty, right.ty)
        return self.coerce(left, common), self.coerce(right, common), common

    # -- dispatch -------------------------------------------------------------

    def lower(self, expr) -> LExpr:
        from repro.sql import ast

        if isinstance(expr, ast.Literal):
            return Const(expr.ty.to_storage(expr.value), expr.ty)
        if isinstance(expr, ast.Parameter):
            return Param(expr.index, expr.ty)
        if isinstance(expr, ast.ColumnRef):
            index, ty = self.resolve(expr.resolved)
            return Slot(index, ty)
        if isinstance(expr, ast.Unary):
            if expr.op == "NOT":
                return Not(self.lower(expr.operand))
            return Neg(self.lower(expr.operand))
        if isinstance(expr, ast.Binary):
            return self._lower_binary(expr)
        if isinstance(expr, ast.Between):
            value = self.lower(expr.expr)
            low = self.lower(expr.low)
            high = self.lower(expr.high)
            lo_l, lo_r, _ = self._binary_coerced(value, low)
            hi_l, hi_r, _ = self._binary_coerced(value, high)
            test = Logic(
                "AND",
                Compare(">=", lo_l, lo_r),
                Compare("<=", hi_l, hi_r),
            )
            return Not(test) if expr.negated else test
        if isinstance(expr, ast.InList):
            value = self.lower(expr.expr)
            test = None
            for item in expr.items:
                left, right, _ = self._binary_coerced(
                    value, self.lower(item)
                )
                eq = Compare("=", left, right)
                test = eq if test is None else Logic("OR", test, eq)
            return Not(test) if expr.negated else test
        if isinstance(expr, ast.Like):
            kind, pattern = classify_like_pattern(expr.pattern.value)
            return Like(kind, self.lower(expr.expr), pattern, expr.negated)
        if isinstance(expr, ast.CaseWhen):
            ty = expr.ty
            whens = [
                (self.lower(cond), self.coerce(self.lower(result), ty))
                for cond, result in expr.whens
            ]
            return Case(whens, self.coerce(self.lower(expr.else_), ty), ty)
        if isinstance(expr, ast.FuncCall):
            if expr.name.startswith("EXTRACT_"):
                part = expr.name.split("_")[1]
                return Extract(part, self.lower(expr.args[0]))
            raise PlanError(
                f"aggregate {expr.name} must be lowered by the aggregation "
                f"operator, not as a scalar expression"
            )
        if isinstance(expr, ast.Cast):
            return self.coerce(self.lower(expr.expr), expr.target)
        raise PlanError(f"cannot lower {type(expr).__name__}")

    def _lower_binary(self, expr) -> LExpr:
        op = expr.op
        if op in ("AND", "OR"):
            return Logic(op, self.lower(expr.left), self.lower(expr.right))

        left = self.lower(expr.left)
        right = self.lower(expr.right)

        if op in ("=", "<>", "<", "<=", ">", ">="):
            left, right, _ = self._binary_coerced(left, right)
            return Compare(op, left, right)

        # arithmetic — expr.ty was computed by the analyzer
        result_ty = expr.ty
        if op == "/" and isinstance(
            T.common_type(left.ty, right.ty), T.DecimalType
        ):
            # decimal division widens to DOUBLE
            return Arith(
                "/", self.coerce(left, T.DOUBLE),
                self.coerce(right, T.DOUBLE), T.DOUBLE
            )
        if isinstance(result_ty, T.DecimalType) and op == "*":
            lhs = self.coerce(left, _as_decimal(left.ty))
            rhs = self.coerce(right, _as_decimal(right.ty))
            s1 = lhs.ty.scale
            s2 = rhs.ty.scale
            product = Arith("*", lhs, rhs, result_ty)
            drop = min(s1, s2)
            if drop == 0:
                return product
            return Arith("/", product, Const(10**drop, result_ty), result_ty)
        left = self.coerce(left, result_ty)
        right = self.coerce(right, result_ty)
        return Arith(op, left, right, result_ty)

    def lower_aggregate(self, call) -> Aggregate:
        """Lower one aggregate FuncCall (args lowered over the child).

        An argument that is summed is widened to its sum type: integers
        to INT64, decimals and doubles as they are.
        """
        from repro.sql import ast

        if isinstance(call.args[0], ast.Star):
            return Aggregate(call.name, None, call.ty)  # COUNT(*)
        arg = self.lower(call.args[0])
        adds = any(f.update == "add"
                   for f in AGGREGATES[call.name, True].fields)
        if adds and arg.ty.is_integer:
            arg = self.coerce(arg, T.INT64)
        return Aggregate(call.name, arg, call.ty)


def _as_decimal(ty: DataType) -> T.DecimalType:
    if isinstance(ty, T.DecimalType):
        return ty
    if ty.is_integer:
        return T.DecimalType(18, 0)
    raise PlanError(f"cannot treat {ty} as decimal")
