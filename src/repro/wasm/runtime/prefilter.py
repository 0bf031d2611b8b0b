"""TurboFan's filtered-scan split: a NumPy mask picks rows, scalar code runs them.

Every TPC-H pipeline that dominates its query except Q1's has one
generated shape, ``SeqScan -> Filter -> ...``: the canonical counted
loop ::

    i = begin
    block { loop {
        i >= end -> br_if 1
        PREFIX            ;; column loads, the predicate's operands
        condition
        if { THEN }       ;; the rest of the pipeline
        i += 1 ; br 0
    } }

whose filter throws most rows away *after* paying a microsecond or more
of Python bytecode for each.  This pass leaves the loop's code alone and
changes only which rows it is handed.  At compile time
:func:`plan_prefilter` **recognises** the shape and **lowers** the
condition's top-level ``i32.and`` tree to one NumPy expression over
views of the column bytes; per call the bound :class:`PrefilterPlan`
**drives**: it evaluates the mask for ``[begin, end)``, coalesces the
survivors into runs and calls the *unchanged* TurboFan callable as
``scalar(a, b)`` per run, in row order.  The scalar code re-evaluates
the whole predicate for every row it is handed, so the mask only has to
be a **superset** of the rows the predicate keeps — a conjunct the
lowering does not understand is simply left out — and result rows,
float summation order, traps, ``flush_results`` timing and every bounds
check are those of the scalar code.

The soundness rule: *a row may be skipped only if the scalar loop would
have passed over it with no effect and no trap, starting each run from
the state the previous row left, and only on bytes the module cannot
change underneath the mask.*  Every clause is checked:

1. **No effect, no trap** (compile time): PREFIX holds only local
   moves, constants, non-trapping numeric operators, ``global.get`` and
   loads at ``i*c + k`` or at a constant address — no call, store,
   ``global.set``, ``memory.grow``, integer division or float
   truncation — and THEN never leaves the loop early (``return``, a
   branch past its own ``if``).
2. **No state carried in locals** (compile time): every ``scalar(a, b)``
   call re-zeroes the locals and skipped rows run nothing, so ``begin``,
   ``end`` and the induction local are assigned nowhere in the body
   (``begin``/``end`` are not even read there), and any other local the
   loop assigns is assigned again in the same row before that row reads
   it — a structured definite-assignment walk in which only what a
   nested block or loop assigns before its first branch counts
   afterwards, and of an ``if`` nothing.
3. **The bytes hold still and are there** (per call, :func:`_column`):
   every PREFIX load's byte range for ``[begin, end)`` resolves through
   the page table to one contiguous stretch of one buffer, inside the
   buffer, whose view is **read-only** (what
   :meth:`~repro.storage.rewiring.AddressSpace.map_buffer` holds for
   table columns and the constants region).  Anything else — an
   unmapped tail, a module's own writable memory — takes
   ``scalar(begin, end)`` whole, which traps or not exactly as before.
   The host's side of the contract is the one it already keeps: it
   re-wires mappings between pipeline calls, never during one.
4. **Instrumented runs are not transformed**: their profile counts
   every row's instructions (the paper's modeled-ms figures).
5. **It never loses**: survivors fewer than :data:`RUN_GAP` rows apart
   stay in one run, so a dense mask collapses into the one call it would
   have been; ranges under :data:`MIN_ROWS` are not worth a mask at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.observability.metrics import get_registry
from repro.wasm.module import Function, Module
from repro.wasm.runtime import values as V
from repro.wasm.runtime.pycodegen import (
    LOAD_FMT,
    SIMPLE_BINOPS,
    SIMPLE_UNOPS,
    TRAPPING_OPS,
    assigned_locals,
)

__all__ = ["MIN_ROWS", "RUN_GAP", "PrefilterPlan", "plan_prefilter"]

#: Ranges shorter than this run the scalar loop directly: building the
#: views and the mask has a fixed cost of some tens of microseconds.
MIN_ROWS = 64
#: Survivors fewer than this many rows apart share one ``scalar(a, b)``
#: call: a call costs the scalar loop about what passing over two
#: rejected rows does (``benchmarks/bench_prefilter.py`` calibrates this
#: on its periodic masks: an alternating mask stays one run).
RUN_GAP = 3
#: Rows one mask is built over; a longer range (the host's morsels are
#: shorter) is driven block by block, so the arrays stay small.
_BLOCK_ROWS = 1 << 16

_STRUCT_DTYPE = {"<b": "i1", "<B": "u1", "<h": "<i2", "<H": "<u2",
                 "<i": "<i4", "<I": "<u4", "<q": "<i8", "<f": "<f4",
                 "<d": "<f8"}
_LOAD_DTYPE = {op: np.dtype(_STRUCT_DTYPE[fmt])
               for op, fmt in LOAD_FMT.items()}
#: The NumPy type each Wasm value type is computed in (``f32`` is not).
_NP = {"i32": np.int32, "i64": np.int64, "f64": np.float64}
_WRAP = {"i32": V.wrap32, "i64": V.wrap64, "f64": float}
_MASK_GLOBALS = {"np": np, "_i32": np.int32, "_i64": np.int64,
                 "_f64": np.float64, "_u32": np.uint32, "_u64": np.uint64}

_COMPARE = {"eq": "==", "ne": "!=", "lt": "<", "gt": ">", "le": "<=",
            "ge": ">="}
_ARITH = {"add": "+", "sub": "-", "mul": "*"}
_BITWISE = {"and": "&", "or": "|", "xor": "^"}
_CONVERT = {
    "i64.extend_i32_s": "{a}.astype(_i64)",
    "i64.extend_i32_u": "{a}.view(_u32).astype(_i64)",
    "i32.wrap_i64": "{a}.astype(_i32)",
    "f64.convert_i32_s": "{a}.astype(_f64)",
    "f64.convert_i64_s": "{a}.astype(_f64)",
}

_OPAQUE = ("opaque",)
_IV = ("iv",)


class _Refuse(Exception):
    """The function does not have the shape, or breaks rule 1 or 2."""


class _Opaque(Exception):
    """The lowering does not understand this conjunct: leave it out."""


# -- recognise ---------------------------------------------------------------

def plan_prefilter(module: Module, func: Function) -> "PrefilterPlan | None":
    """The split of ``func``'s filtered-scan loop, or ``None`` when the
    function is not exactly that loop, breaks rule 1 or 2, or has no
    conjunct the lowering understands (it then stays plain TurboFan)."""
    ftype = module.types[func.type_index]
    if ftype.params != ("i32", "i32") or ftype.results:
        return None
    match func.body:
        case [("local.get", 0), ("local.set", iv),
              ("block", [], [("loop", [], [
                  ("local.get", i0), ("local.get", 1), ("i32.ge_s",),
                  ("br_if", 1),
                  *prefix,
                  ("if", [], then, []),
                  ("local.get", i1), ("i32.const", 1), ("i32.add",),
                  ("local.set", i2), ("br", 0)])])] \
                if iv > 1 and i0 == i1 == i2 == iv:
            pass
        case _:
            return None
    carried = assigned_locals(prefix) | assigned_locals(then)
    try:
        loads: list[tuple] = []
        condition, assigned = _trace_prefix(func, prefix, iv, carried, loads)
        _check_rows_independent(then, assigned, (0, 1, iv), carried)
        lowering = _Lowering(loads)
        conjuncts = [src for src in map(lowering.truth,
                                        _conjuncts(condition)) if src]
    except _Refuse:
        return None
    if not lowering.varies:
        return None     # nothing the mask could tell rows apart by
    source = " & ".join(conjuncts)
    mask = eval(compile(f"lambda iv, v: {source}",
                        f"<prefilter:{func.name}>", "eval"),
                {**_MASK_GLOBALS, **lowering.constants})
    get_registry().counter(
        "engine_loops_prefiltered_total",
        "Filtered-scan loops TurboFan split into a NumPy selection mask "
        "and the scalar loop over the survivors",
    ).inc()
    return PrefilterPlan(tuple(loads), source, mask, lowering.uses_iv)


def _trace_prefix(func: Function, prefix: list, iv: int,
                  carried: frozenset, loads: list) -> tuple[tuple, frozenset]:
    """Symbolically run the straight-line PREFIX (rule 1): returns the
    condition as an expression tree over constants, the induction
    variable and ``("load", n, type)`` leaves, plus the locals PREFIX
    assigns; each load's ``(dtype, stride, address of row 0)`` is
    appended to ``loads``.  ``carried`` are all the locals the loop
    assigns."""
    stack: list[tuple] = []
    env: dict[int, tuple] = {}
    for instr in prefix:
        op = instr[0]
        if op == "local.get":
            index = instr[1]
            if index == iv:
                stack.append(_IV)
            elif index in env:
                stack.append(env[index])
            elif index < 2 or index in carried:
                # begin/end differ from run to run; a local assigned later
                # in the loop would carry a value from the previous row
                raise _Refuse
            else:   # never assigned: still the zero it was declared with
                ty = func.locals_[index - 2]
                stack.append(("const", ty, 0.0 if ty[0] == "f" else 0))
        elif op == "local.set" or op == "local.tee":
            if instr[1] in (0, 1, iv):
                raise _Refuse
            env[instr[1]] = stack[-1] if op == "local.tee" else stack.pop()
        elif op.endswith(".const"):
            stack.append(("const", op[:3], instr[1]))
        elif op in LOAD_FMT:
            form = _affine(stack.pop())
            if form is None or form[0] < 0:
                raise _Refuse     # not one of the two load forms
            loads.append((_LOAD_DTYPE[op], form[0], form[1] + instr[2]))
            stack.append(("load", len(loads) - 1, op[:3]))
        elif op == "global.get":
            stack.append(_OPAQUE)   # THEN may set it: not row-invariant
        elif op == "select":
            del stack[-3:]
            stack.append(_OPAQUE)
        elif op == "drop":
            stack.pop()
        elif op == "nop":
            pass
        elif op in TRAPPING_OPS:
            raise _Refuse
        elif op in SIMPLE_BINOPS:
            right = stack.pop()
            stack.append((op, stack.pop(), right))
        elif op in SIMPLE_UNOPS:
            stack.append((op, stack.pop()))
        else:   # control flow, call, store, global.set, memory.*, ...
            raise _Refuse
    if len(stack) != 1:
        raise _Refuse
    return stack[0], frozenset(env)


def _affine(expr: tuple) -> tuple[int, int] | None:
    """``(c, k)`` when the i32 address ``expr`` is ``i*c + k``.

    Computed over the integers: i32 ``add``/``sub``/``mul``/``shl`` are
    ring homomorphisms mod 2**32, so the result is congruent to the
    wrapped address, and equal to it once :func:`_column` has checked
    that the whole range lies in ``[0, 2**32)``."""
    op = expr[0]
    if op == "iv":
        return 1, 0
    if op == "const":
        return 0, expr[2]
    if op in ("i32.add", "i32.sub", "i32.mul", "i32.shl"):
        a, b = _affine(expr[1]), _affine(expr[2])
        if a is None or b is None:
            return None
        if op == "i32.add":
            return a[0] + b[0], a[1] + b[1]
        if op == "i32.sub":
            return a[0] - b[0], a[1] - b[1]
        if op == "i32.shl":
            if b[0]:
                return None
            b = 0, 1 << (b[1] & 31)     # a multiplication, from here on
        if a[0] and b[0]:
            return None
        return a[0] * b[1] + b[0] * a[1], a[1] * b[1]
    return None


def _check_rows_independent(body: list, live: frozenset, frozen: tuple,
                            carried: frozenset, depth: int = 0,
                            ) -> tuple[frozenset, bool]:
    """The walk over THEN behind rules 1 and 2.  ``live`` are the locals
    definitely assigned in this row so far, ``frozen`` the ones nothing
    may assign (nor, but for the induction local, read), ``carried``
    all the locals the loop assigns, ``depth`` the structured
    instructions entered inside THEN.  Returns the locals definitely
    assigned where ``body`` falls through, and whether it branches."""
    counted = live      # what still counts after ``body``
    branched = False
    for instr in body:
        op = instr[0]
        if op == "local.get":
            index = instr[1]
            if index in frozen[:2] or (index in carried
                                       and index not in live):
                raise _Refuse
        elif op == "local.set" or op == "local.tee":
            if instr[1] in frozen:
                raise _Refuse
            live = live | {instr[1]}
            if not branched:
                counted = live
        elif op == "block" or op == "loop":
            inner, inner_branched = _check_rows_independent(
                instr[2], live, frozen, carried, depth + 1)
            live = live | inner
            if not branched:
                counted = live
            branched = branched or inner_branched
        elif op == "if":
            for arm in instr[2:4]:      # of an ``if`` nothing counts
                branched = _check_rows_independent(
                    arm, live, frozen, carried, depth + 1)[1] or branched
        elif op == "br" or op == "br_if" or op == "br_table":
            targets = instr[1:] if op != "br_table" \
                else (*instr[1], instr[2])
            if max(targets) > depth:
                raise _Refuse   # past its own ``if``: leaves the loop
            branched = True
        elif op == "return":
            raise _Refuse
    return counted, branched


def _conjuncts(expr: tuple):
    if expr[0] == "i32.and":
        yield from _conjuncts(expr[1])
        yield from _conjuncts(expr[2])
    else:
        yield expr


# -- lower -------------------------------------------------------------------

class _Lowering:
    """Expression trees -> NumPy source.  Values are typed ``i32`` /
    ``i64`` / ``f64`` (NumPy arrays or scalars of exactly that type, so
    integer arithmetic wraps as Wasm's does and float arithmetic is the
    same IEEE operation) or ``b``: an i32 known to be 0/1, kept as a
    boolean until something does arithmetic on it."""

    def __init__(self, loads: list):
        self.loads = loads
        self.constants: dict[str, object] = {}
        self.uses_iv = False
        #: Does any kept conjunct depend on the row?
        self.varies = False

    def truth(self, expr: tuple) -> str | None:
        """``expr != 0`` as a boolean-mask source; ``None`` if opaque."""
        varies, uses_iv, constants = (self.varies, self.uses_iv,
                                      dict(self.constants))
        try:
            src, kind = self.value(expr)
        except _Opaque:     # forget what its understood parts asked for
            self.varies, self.uses_iv, self.constants = (varies, uses_iv,
                                                         constants)
            return None
        return src if kind == "b" else f"({src} != 0)"

    def number(self, expr: tuple) -> str:
        return _number(*self.value(expr))

    def value(self, expr: tuple) -> tuple[str, str]:
        op = expr[0]
        if op == "iv":
            self.uses_iv = self.varies = True
            return "iv", "i32"
        if op == "const":
            if expr[1] not in _NP:
                raise _Opaque
            name = f"k{len(self.constants)}"
            self.constants[name] = _NP[expr[1]](_WRAP[expr[1]](expr[2]))
            return name, expr[1]
        if op == "load":
            dtype, stride, _ = self.loads[expr[1]]
            if expr[2] not in _NP:
                raise _Opaque
            self.varies = self.varies or stride != 0
            src = f"v[{expr[1]}]"
            if dtype != np.dtype(_NP[expr[2]]):
                src += f".astype(_{expr[2]})"
            return src, expr[2]
        ty, _, name = op.partition(".")
        if ty not in _NP:
            raise _Opaque
        if name == "eqz":
            src, kind = self.value(expr[1])
            return (f"np.logical_not({src})" if kind == "b"
                    else f"({src} == 0)"), "b"
        if op in _CONVERT:
            return _CONVERT[op].format(a=self.number(expr[1])), ty
        base, _, sign = name.partition("_")
        if base in _COMPARE and sign in ("", "s", "u"):
            a, b = self.number(expr[1]), self.number(expr[2])
            if sign == "u":
                a, b = (f"{x}.view(_u{ty[1:]})" for x in (a, b))
            return f"({a} {_COMPARE[base]} {b})", "b"
        if name in _BITWISE and ty != "f64":
            (a, ka), (b, kb) = self.value(expr[1]), self.value(expr[2])
            if ka == kb == "b":
                return f"({a} {_BITWISE[name]} {b})", "b"
            return f"({_number(a, ka)} {_BITWISE[name]} {_number(b, kb)})", ty
        if name in _ARITH or (name == "div" and ty == "f64"):
            a, b = self.number(expr[1]), self.number(expr[2])
            return f"({a} {_ARITH.get(name, '/')} {b})", ty
        raise _Opaque


def _number(src: str, kind: str) -> str:
    return f"{src}.astype(_i32)" if kind == "b" else src


# -- drive -------------------------------------------------------------------

def _column(pages: list, load: tuple, begin: int, rows: int):
    """Rule 3 for one PREFIX load over ``[begin, begin + rows)``: the
    bytes as an ndarray view (a scalar for a constant address), or
    ``None`` unless all of them lie in one contiguous, fully backed
    stretch of one buffer the module cannot write."""
    dtype, stride, base = load
    count = rows if stride else 1
    first = stride * begin + base
    length = stride * (count - 1) + dtype.itemsize
    if first < 0 or first + length > 1 << 32:
        return None
    page, last = first >> 16, (first + length - 1) >> 16
    entry = pages[page] if last < len(pages) else None
    if entry is None:
        return None
    buffer, offset = entry
    if not (isinstance(buffer, memoryview) and buffer.readonly):
        return None
    for step in range(1, last - page + 1):
        entry = pages[page + step]
        if entry is None or entry[0] is not buffer \
                or entry[1] != offset + (step << 16):
            return None
    offset += first & 65535
    if offset + length > len(buffer):
        return None
    view = np.ndarray((count,), dtype, buffer, offset, (stride,))
    return view if stride else view[0]


@dataclass(frozen=True)
class PrefilterPlan:
    """What :func:`plan_prefilter` found: instance-independent, carried
    by the function's :class:`~repro.wasm.runtime.liftoff.
    CompiledFunction` and bound per instance like its code."""

    #: Per PREFIX load: ``(dtype, stride, address of row 0)``; stride 0
    #: is a constant address (a ``$n`` slot), read once per call.
    loads: tuple
    #: The mask as the NumPy expression it was compiled from.
    source: str
    mask: object            # ``mask(iv, views) -> boolean array``
    uses_iv: bool

    def bind(self, scalar, instance):
        """The driver around ``scalar``, the bound TurboFan callable."""
        pages = instance.memory.pages
        stats = instance.stats
        loads, mask, uses_iv = self.loads, self.mask, self.uses_iv

        def prefiltered(begin, end):
            while end - begin > _BLOCK_ROWS:    # bounds the mask's memory
                block(begin, begin + _BLOCK_ROWS)
                begin += _BLOCK_ROWS
            return block(begin, end)

        def block(begin, end):
            rows = end - begin
            if rows < MIN_ROWS:
                return scalar(begin, end)
            views = []
            for load in loads:
                view = _column(pages, load, begin, rows)
                if view is None:
                    return scalar(begin, end)
                views.append(view)
            iv = np.arange(begin, end, dtype=np.int32) if uses_iv else None
            with np.errstate(all="ignore"):
                keep = np.flatnonzero(mask(iv, views))
            stats.prefilter_rows_seen += rows
            if not len(keep):
                return None
            # a run ends where the next survivor is RUN_GAP or more away
            cuts = np.flatnonzero(np.diff(keep) >= RUN_GAP)
            starts = keep[np.concatenate(([0], cuts + 1))] + begin
            stops = keep[np.concatenate((cuts, [-1]))] + (begin + 1)
            stats.prefilter_rows_kept += int((stops - starts).sum())
            for a, b in zip(starts.tolist(), stops.tolist()):
                scalar(a, b)
            return None

        prefiltered.scalar = scalar
        return prefiltered
