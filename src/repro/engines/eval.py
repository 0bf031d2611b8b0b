"""Tuple-at-a-time evaluation of the lowered expression IR.

Used by the Volcano engine (its expression interpreter) and anywhere a
single tuple must be evaluated in Python.  Semantics deliberately match
the Wasm backend: integer ``+ - *`` and negation wrap to the result
type's width, integer division and remainder truncate toward zero and
raise on a zero divisor or ``MIN / -1`` (:func:`int_div`, shared with
the HyPer engine), scaled-integer decimals, byte-wise string
comparison, day-number dates.
"""

from __future__ import annotations

import re

from repro.engines.datecalc import civil_from_days
from repro.errors import EngineError
from repro.plan import exprs as E

__all__ = ["evaluate", "like_matches", "sql_like_regex", "compare_values",
           "int_div", "int_rem"]


def sql_like_regex(pattern: str) -> re.Pattern:
    """Compile a SQL LIKE pattern (``%``/``_``) into a regex."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


def _text(value) -> bytes:
    if isinstance(value, bytes):
        return value.rstrip(b"\x00")
    return bytes(value).rstrip(b"\x00")


def like_matches(kind: str, value: bytes, pattern) -> bool:
    text = _text(value)
    if kind == "exact":
        return text == pattern
    if kind == "prefix":
        return text.startswith(pattern)
    if kind == "suffix":
        return text.endswith(pattern)
    if kind == "contains":
        return pattern in text
    return bool(sql_like_regex(pattern).match(text.decode("utf-8", "replace")))


_CMP = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def compare_values(op: str, a, b) -> bool:
    if isinstance(a, (bytes, bytearray)) or isinstance(b, (bytes, bytearray)):
        a = _text(a)
        b = _text(b)
    return _CMP[op](a, b)


def int_div(a: int, b: int, bits: int = 64) -> int:
    """Wasm's ``div_s``: truncates toward zero; a zero divisor and the
    one overflowing quotient, ``MIN / -1``, raise."""
    if b == 0:
        raise EngineError("integer division by zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        return -q
    if q >> (bits - 1):
        raise EngineError("integer overflow")
    return q


def int_rem(a: int, b: int) -> int:
    """Wasm's ``rem_s``: the sign of the dividend (``MIN % -1`` is 0)."""
    if b == 0:
        raise EngineError("integer division by zero")
    r = abs(a) % abs(b)
    return -r if a < 0 else r


def evaluate(expr: E.LExpr, row: tuple, profile=None):
    """Evaluate ``expr`` against one input tuple (storage-level values)."""
    if profile is not None:
        profile.interp_dispatch += 1

    if isinstance(expr, E.Slot):
        return row[expr.index]
    if isinstance(expr, E.Const):
        return expr.value
    if isinstance(expr, E.Param):
        if expr.value is None:
            raise EngineError(f"parameter ${expr.index} is unbound")
        return expr.value
    if isinstance(expr, E.Arith):
        a = evaluate(expr.left, row, profile)
        b = evaluate(expr.right, row, profile)
        op = expr.op
        if op == "/":
            if expr.ty.is_floating:
                if b == 0.0:
                    return float("inf") if a > 0 else (
                        float("-inf") if a < 0 else float("nan")
                    )
                return a / b
            return int_div(a, b, E.INT_BITS[expr.ty.wasm_type])
        if op == "%":
            return int_rem(a, b)
        if op == "+":
            value = a + b
        elif op == "-":
            value = a - b
        elif op == "*":
            value = a * b
        else:
            raise EngineError(f"unknown arithmetic op {op!r}")
        return value if expr.ty.is_floating else \
            E.wrap_int(value, E.INT_BITS[expr.ty.wasm_type])
    if isinstance(expr, E.Compare):
        a = evaluate(expr.left, row, profile)
        b = evaluate(expr.right, row, profile)
        return compare_values(expr.op, a, b)
    if isinstance(expr, E.Logic):
        a = evaluate(expr.left, row, profile)
        if expr.op == "AND":
            return bool(a) and bool(evaluate(expr.right, row, profile))
        return bool(a) or bool(evaluate(expr.right, row, profile))
    if isinstance(expr, E.Not):
        return not evaluate(expr.operand, row, profile)
    if isinstance(expr, E.Neg):
        value = -evaluate(expr.operand, row, profile)
        return value if expr.ty.is_floating else \
            E.wrap_int(value, E.INT_BITS[expr.ty.wasm_type])
    if isinstance(expr, E.Promote):
        value = evaluate(expr.operand, row, profile)
        if expr.ty.is_floating:
            return float(value)
        return int(value)
    if isinstance(expr, E.Case):
        for cond, result in expr.whens:
            if evaluate(cond, row, profile):
                return evaluate(result, row, profile)
        return evaluate(expr.else_, row, profile)
    if isinstance(expr, E.Like):
        value = evaluate(expr.operand, row, profile)
        matched = like_matches(expr.kind, value, expr.pattern)
        return (not matched) if expr.negated else matched
    if isinstance(expr, E.Extract):
        days = evaluate(expr.operand, row, profile)
        year, month, day = civil_from_days(int(days))
        return {"YEAR": year, "MONTH": month, "DAY": day}[expr.part]
    raise EngineError(f"cannot evaluate {type(expr).__name__}")
