"""The TurboFan tier: optimizing compilation.

Mirrors V8's TurboFan in role: it spends more time compiling and produces
considerably faster code than Liftoff.  The pipeline:

1. **Tree recovery** — the stack machine is symbolically executed; pure
   operator chains become nested Python expressions instead of list
   push/pop traffic.  Loads, stores, and calls materialize immediately
   (preserving effect order); pure values are spilled to temporaries only
   when a conflicting ``local.set`` or a control-flow boundary requires it.
2. **Constant folding & algebraic simplification** — performed during
   tree building, using the reference interpreter's operator semantics,
   so folding is correct by construction (``x+0``, ``x*1``, ``x*0``,
   comparisons of constants, ...).
3. **Wrap elision (mod-ring reasoning)** — ``add/sub/mul/and/or/xor/shl``
   are ring homomorphisms mod 2**N, so the signed wrap can be postponed
   across chains of them and dropped entirely at consumers that mask
   anyway (memory addresses, stores, unsigned comparisons).
4. **Branch lowering** — a ``br`` whose target is the function becomes
   ``return``; depth-0 branches become plain ``break``/``continue``;
   only genuinely multi-level branches pay for the pending-depth cascade.
5. **Dead code elimination** — unused pure temporaries are deleted
   (fixpoint over the emitted statements).
6. **Filtered-scan split** — a function that is exactly the generated
   ``scan -> filter -> ...`` loop gets a NumPy selection mask in front
   of its (unchanged) code, which then runs only the surviving rows
   (:mod:`repro.wasm.runtime.prefilter`).

The emitted source is compiled with ``compile()``; binding happens per
instance, exactly like the Liftoff tier.
"""

from __future__ import annotations

import re

from repro.errors import CompilationError, Trap
from repro.observability.metrics import get_registry
from repro.wasm.module import Function, Module
from repro.wasm.runtime import values as V
from repro.wasm.runtime.interpreter import _BINOPS as _FOLD_BIN
from repro.wasm.runtime.interpreter import _UNOPS as _FOLD_UN
from repro.wasm.runtime.liftoff import CompiledFunction, _Emitter
from repro.wasm.runtime.prefilter import plan_prefilter
from repro.wasm.runtime.pycodegen import (
    LOAD_FMT,
    RING_OPS_32,
    SIMPLE_BINOPS,
    SIMPLE_UNOPS,
    STORE_FMT,
    TRAPPING_OPS,
    assigned_locals,
)
from repro.wasm.runtime.pycodegen import RING_OPS_64

__all__ = ["TurboFanCompiler"]

_NO_CONST = object()
_MAX_EXPR_LEN = 240  # spill huge expressions to keep lines/evaluation sane

_RING_PYOP = {
    "i32.add": "+", "i32.sub": "-", "i32.mul": "*",
    "i32.and": "&", "i32.or": "|", "i32.xor": "^",
    "i64.add": "+", "i64.sub": "-", "i64.mul": "*",
    "i64.and": "&", "i64.or": "|", "i64.xor": "^",
}
_CMP_PYOP = {
    "eq": "==", "ne": "!=", "lt": "<", "gt": ">", "le": "<=", "ge": ">=",
    "lt_s": "<", "gt_s": ">", "le_s": "<=", "ge_s": ">=",
    "lt_u": "<", "gt_u": ">", "le_u": "<=", "ge_u": ">=",
}


class _Val:
    """One symbolic stack entry: a pure Python expression."""

    __slots__ = ("src", "raw", "ty", "const", "locals_read", "bool_src")

    def __init__(self, src, ty, raw=None, const=_NO_CONST,
                 locals_read=frozenset(), bool_src=None):
        self.src = src
        self.raw = raw if raw is not None else src
        self.ty = ty
        self.const = const
        self.locals_read = locals_read
        self.bool_src = bool_src

    @property
    def is_const(self) -> bool:
        return self.const is not _NO_CONST

    def as_bool(self) -> str:
        return self.bool_src if self.bool_src is not None else self.src


def _const_val(value, ty: str) -> _Val:
    if isinstance(value, float):
        if value != value:  # NaN has no literal syntax
            return _Val("float('nan')", ty, const=value)
        if value == float("inf"):
            return _Val("float('inf')", ty, const=value)
        if value == float("-inf"):
            return _Val("float('-inf')", ty, const=value)
    src = repr(value)
    if value is not None and isinstance(value, (int, float)) and value < 0:
        src = f"({src})"  # negative literals must bind tighter than ops
    return _Val(src, ty, const=value)


def _wrap_src(raw: str, bits: int) -> str:
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    return f"(({raw} + {half} & {mask}) - {half})"


class _Scope:
    """One control frame during compilation."""

    __slots__ = ("kind", "result_temps", "assigned_locals")

    def __init__(self, kind: str, result_temps: list[str],
                 assigned_locals: frozenset):
        self.kind = kind  # "func" | "block" | "loop" | "if"
        self.result_temps = result_temps
        self.assigned_locals = assigned_locals


class TurboFanCompiler:
    """Optimizing compiler for functions of one module."""

    tier_name = "turbofan"

    def __init__(self, module: Module):
        self.module = module

    # ------------------------------------------------------------------ api --

    def compile(self, func: Function, func_index: int,
                instrumented: bool = False) -> CompiledFunction:
        func_type = self.module.types[func.type_index]
        name = func.name or f"f{func_index}"
        entry = f"wf{func_index}"
        self._em = _Emitter()
        self._instrumented = instrumented
        self._pending = 0
        self._site = 0
        self._fname = name
        self._nresults = len(func_type.results)
        self._pure_temps: set[str] = set()
        em = self._em

        params = ", ".join(f"L{i}" for i in range(len(func_type.params)))
        em.emit(f"def {entry}({params}):")
        em.indent += 1
        for i, ty in enumerate(func.locals_):
            index = len(func_type.params) + i
            em.emit(f"L{index} = {'0.0' if ty.startswith('f') else '0'}")
        em.emit("_br = -1")
        em.emit("try:")
        em.indent += 1
        body_start = len(em.lines)

        stack: list[_Val] = []
        scopes = [_Scope("func", [], assigned_locals(func.body))]
        fell_through = self._compile_body(func.body, stack, scopes)
        if fell_through:
            self._flush()
            self._emit_return(stack)
        if len(em.lines) == body_start:
            em.emit("pass")
        em.indent -= 1
        em.emit("except (TypeError, IndexError, _StructError) as _e:")
        em.indent += 1
        em.emit("raise _Trap('out of bounds memory access', repr(_e))")
        em.indent -= 1
        em.emit("except RecursionError:")
        em.indent += 1
        em.emit("raise _Trap('call stack exhausted')")
        em.indent -= 1

        lines = self._common_subexpressions(em.lines)
        lines = self._eliminate_dead_code(lines)
        source = (
            "import struct as _struct\n_StructError = _struct.error\n"
            + "\n".join(lines) + "\n"
        )
        self._verify(source, name)
        try:
            code = compile(source, f"<turbofan:{name}>", "exec")
        except SyntaxError as exc:  # pragma: no cover - compiler bug guard
            raise CompilationError(
                f"turbofan generated bad code for {name}: {exc}\n{source}"
            )
        get_registry().counter(
            "wasm_functions_compiled_total",
            "Wasm functions compiled, by tier",
        ).inc(tier=self.tier_name)
        # instrumented code counts every row's instructions into the
        # profile: its loop is never split
        prefilter = None if instrumented else plan_prefilter(self.module,
                                                             func)
        return CompiledFunction(name, self.tier_name, source, entry, code,
                                prefilter=prefilter)

    # -------------------------------------------------------- emission helpers --

    def _emit(self, text: str) -> None:
        self._em.emit(text)

    def _fresh(self, prefix: str = "t") -> str:
        return self._em.fresh(prefix)

    def _count(self, n: int = 1) -> None:
        if self._instrumented:
            self._pending += n

    def _flush(self) -> None:
        if self._instrumented and self._pending:
            self._emit(f"_P.instructions += {self._pending}")
            self._pending = 0

    def _new_site(self, kind: str) -> str:
        self._site += 1
        return f"{self._fname}:{kind}{self._site}"

    def _materialize(self, val: _Val) -> _Val:
        """Assign a pure value to a temp; returns the temp as a value."""
        if val.is_const or re.fullmatch(r"[Lt]\d+", val.src):
            return val  # already trivially cheap
        temp = self._fresh()
        self._emit(f"{temp} = {val.src}")
        self._pure_temps.add(temp)
        return _Val(temp, val.ty, const=val.const)

    def _materialize_effect(self, val: _Val) -> _Val:
        """Evaluate a possibly-trapping value now; the temp is protected
        from dead code elimination."""
        temp = self._fresh()
        self._emit(f"{temp} = {val.src}")
        return _Val(temp, val.ty)

    def _spill(self, stack: list[_Val], predicate) -> None:
        for i, val in enumerate(stack):
            if predicate(val):
                stack[i] = self._materialize(val)

    def _spill_all(self, stack: list[_Val]) -> None:
        self._spill(stack, lambda v: True)

    def _push(self, stack: list[_Val], val: _Val) -> None:
        if len(val.src) > _MAX_EXPR_LEN and not val.is_const:
            val = self._materialize(val)
        stack.append(val)

    def _emit_return(self, stack: list[_Val]) -> None:
        if self._nresults:
            self._emit(f"return {stack[-1].src}")
        else:
            self._emit("return None")

    # --------------------------------------------------------------- operators --

    def _binop(self, op: str, a: _Val, b: _Val) -> _Val:
        ty = op.split(".", 1)[0]
        result_ty = "i32" if "." in op and op.split(".")[1] in (
            "eq", "ne", "lt", "gt", "le", "ge", "lt_s", "lt_u", "gt_s", "gt_u",
            "le_s", "le_u", "ge_s", "ge_u",
        ) else ty

        # constant folding (using the interpreter's exact semantics)
        if a.is_const and b.is_const:
            try:
                return _const_val(_FOLD_BIN[op](a.const, b.const), result_ty)
            except Trap:
                pass  # fold would trap: keep the runtime expression

        reads = a.locals_read | b.locals_read

        # algebraic identities on pure values — integers only: on floats
        # x+0.0 loses -0.0, and x*0.0 loses NaN/inf/sign (IEEE 754), so
        # like TurboFan we never fold them away
        kind = op.split(".", 1)[1] if "." in op else op
        if ty in ("i32", "i64"):
            if kind == "add" and b.is_const and b.const == 0:
                return a
            if kind == "add" and a.is_const and a.const == 0:
                return b
            if kind == "sub" and b.is_const and b.const == 0:
                return a
            if kind == "mul" and b.is_const and b.const == 1:
                return a
            if kind == "mul" and a.is_const and a.const == 1:
                return b
            if kind == "mul" and (
                (a.is_const and a.const == 0) or (b.is_const and b.const == 0)
            ):
                return _const_val(0, result_ty)

        # mod-ring ops: build the raw (unwrapped) form, wrap lazily
        if op in RING_OPS_32 or op in RING_OPS_64:
            bits = 32 if op in RING_OPS_32 else 64
            if kind == "shl":
                shift = (
                    str(b.const & (bits - 1)) if b.is_const
                    else f"({b.src} & {bits - 1})"
                )
                raw = f"({a.raw} << {shift})"
            else:
                raw = f"({a.raw} {_RING_PYOP[op]} {b.raw})"
            if kind in ("and", "or", "xor") and a.raw == a.src and b.raw == b.src:
                # bitwise ops on already-signed operands stay in range
                return _Val(raw, ty, raw=raw, locals_read=reads)
            return _Val(_wrap_src(raw, bits), ty, raw=raw, locals_read=reads)

        # comparisons get a bool variant for direct use in conditions
        if kind in _CMP_PYOP:
            py = _CMP_PYOP[kind]
            if kind.endswith("_u"):
                mask = 0xFFFFFFFF if ty == "i32" else 0xFFFFFFFFFFFFFFFF
                lhs, rhs = f"({a.raw} & {mask})", f"({b.raw} & {mask})"
            else:
                lhs, rhs = a.src, b.src
            cond = f"{lhs} {py} {rhs}"
            return _Val(f"({cond}) * 1", "i32", locals_read=reads,
                        bool_src=cond)

        src = "(" + SIMPLE_BINOPS[op].format(a=a.src, b=b.src) + ")"
        return _Val(src, result_ty, locals_read=reads)

    def _unop(self, op: str, a: _Val) -> _Val:
        result_ty = (
            "i32" if op in ("i32.eqz", "i64.eqz") or op.startswith("i32.")
            else op.split(".", 1)[0]
        )
        if a.is_const:
            try:
                return _const_val(_FOLD_UN[op](a.const), result_ty)
            except Trap:
                pass
        if op == "i32.eqz" or op == "i64.eqz":
            cond = f"{a.src} == 0"
            return _Val(f"({cond}) * 1", "i32", locals_read=a.locals_read,
                        bool_src=cond)
        if op == "i64.extend_i32_u":
            return _Val(f"({a.raw} & 4294967295)", "i64",
                        raw=f"({a.raw} & 4294967295)",
                        locals_read=a.locals_read)
        src = "(" + SIMPLE_UNOPS[op].format(a=a.src) + ")"
        return _Val(src, result_ty, locals_read=a.locals_read)

    # ------------------------------------------------------------ control flow --

    def _compile_br(self, depth: int, stack: list[_Val],
                    scopes: list[_Scope]) -> None:
        """Emit an unconditional branch.  Caller handles dead code after."""
        self._flush()
        target = scopes[-1 - depth]
        if target.kind == "func":
            self._emit_return(stack)
            return
        if target.kind != "loop":
            for temp, val in zip(target.result_temps,
                                 stack[-len(target.result_temps):]
                                 if target.result_temps else []):
                self._emit(f"{temp} = {val.src}")
        if depth == 0:
            self._emit("continue" if target.kind == "loop" else "break")
        else:
            self._emit(f"_br = {depth}")
            self._emit("break")

    def _compile_body(self, body: list, stack: list[_Val],
                      scopes: list[_Scope]) -> bool:
        """Compile instructions; returns False if the body ended dead."""
        for instr in body:
            op = instr[0]
            self._count()

            if op == "local.get":
                index = instr[1]
                self._push(stack, _Val(f"L{index}", "?",
                                       locals_read=frozenset((index,))))
            elif op == "local.set" or op == "local.tee":
                index = instr[1]
                # values pushed before this write must keep the old local
                if op == "local.tee":
                    for i, val in enumerate(stack[:-1]):
                        if index in val.locals_read:
                            stack[i] = self._materialize(val)
                    top = stack[-1]
                    self._emit(f"L{index} = {top.src}")
                    stack[-1] = _Val(f"L{index}", top.ty,
                                     locals_read=frozenset((index,)))
                else:
                    top = stack.pop()
                    for i, val in enumerate(stack):
                        if index in val.locals_read:
                            stack[i] = self._materialize(val)
                    self._emit(f"L{index} = {top.src}")
            elif op == "global.get":
                temp = self._fresh()
                self._emit(f"{temp} = _G[{instr[1]}]")
                self._push(stack, _Val(temp, "?"))
            elif op == "global.set":
                top = stack.pop()
                self._emit(f"_G[{instr[1]}] = {top.src}")
            elif op == "i32.const" or op == "i64.const":
                self._push(stack, _const_val(int(instr[1]),
                                             op.split(".")[0]))
            elif op == "f32.const":
                self._push(stack, _const_val(V.f32round(float(instr[1])), "f32"))
            elif op == "f64.const":
                self._push(stack, _const_val(float(instr[1]), "f64"))
            elif op in SIMPLE_BINOPS:
                b = stack.pop()
                a = stack.pop()
                result = self._binop(op, a, b)
                if op in TRAPPING_OPS and not result.is_const:
                    # traps must fire at the instruction's position, even
                    # if the value is later discarded — evaluate eagerly
                    # into a temp that DCE will not touch
                    result = self._materialize_effect(result)
                self._push(stack, result)
            elif op in SIMPLE_UNOPS or op == "i32.eqz" or op == "i64.eqz":
                a = stack.pop()
                result = self._unop(op, a)
                if op in TRAPPING_OPS and not result.is_const:
                    result = self._materialize_effect(result)
                self._push(stack, result)
            elif op in LOAD_FMT:
                self._compile_load(op, instr[2], stack)
            elif op in STORE_FMT:
                self._compile_store(op, instr[2], stack)
            elif op == "call":
                self._compile_call(
                    f"_funcs[{instr[1]}]",
                    self.module.func_type_of(instr[1]), stack)
            elif op == "call_indirect":
                elem = stack.pop()
                temp = self._fresh("fi")
                self._flush()
                self._emit(f"{temp} = _tbl({elem.src}, {instr[1]})")
                self._compile_call(f"_funcs[{temp}]",
                                   self.module.types[instr[1]], stack,
                                   indirect=True)
            elif op == "drop":
                stack.pop()
            elif op == "select":
                cond = stack.pop()
                b = stack.pop()
                a = stack.pop()
                if cond.is_const:
                    self._push(stack, a if cond.const else b)
                else:
                    reads = a.locals_read | b.locals_read | cond.locals_read
                    self._push(stack, _Val(
                        f"({a.src} if {cond.as_bool()} else {b.src})",
                        a.ty, locals_read=reads))
            elif op == "nop":
                pass
            elif op == "unreachable":
                self._flush()
                self._emit("_trap('unreachable')")
                return False
            elif op == "memory.size":
                temp = self._fresh()
                self._emit(f"{temp} = _memsize()")
                self._push(stack, _Val(temp, "i32"))
            elif op == "memory.grow":
                top = stack.pop()
                temp = self._fresh()
                self._emit(f"{temp} = _memgrow({top.src})")
                self._push(stack, _Val(temp, "i32"))
            elif op == "br":
                self._compile_br(instr[1], stack, scopes)
                return False
            elif op == "br_if":
                self._compile_br_if(instr[1], stack, scopes)
            elif op == "br_table":
                self._compile_br_table(instr, stack, scopes)
                return False
            elif op == "return":
                self._flush()
                self._emit_return(stack)
                return False
            elif op == "block" or op == "loop" or op == "if":
                self._compile_structured(instr, stack, scopes)
            else:  # pragma: no cover - opcode table is exhaustive
                raise CompilationError(f"turbofan: unhandled op {op!r}")
        return True

    def _compile_load(self, op: str, offset: int, stack: list[_Val]) -> None:
        fmt = LOAD_FMT[op]
        addr = stack.pop()
        addr_src = addr.raw if not offset else f"{addr.raw} + {offset}"
        a = self._fresh("a")
        t = self._fresh()
        self._emit(f"{a} = ({addr_src}) & 4294967295")
        self._emit(f"e = _pages[{a} >> 16]")
        self._emit(f"{t} = _unpack_from({fmt!r}, e[0], e[1] + ({a} & 65535))[0]")
        if self._instrumented:
            self._emit(f"_Pm({self._new_site('m')!r}, {a})")
        ty = op.split(".")[0]
        self._push(stack, _Val(t, ty))

    def _compile_store(self, op: str, offset: int, stack: list[_Val]) -> None:
        fmt, mask = STORE_FMT[op]
        value = stack.pop()
        addr = stack.pop()
        addr_src = addr.raw if not offset else f"{addr.raw} + {offset}"
        a = self._fresh("a")
        self._emit(f"{a} = ({addr_src}) & 4294967295")
        self._emit(f"e = _pages[{a} >> 16]")
        value_src = f"{value.raw} & {mask}" if mask is not None else value.src
        self._emit(f"_pack_into({fmt!r}, e[0], e[1] + ({a} & 65535), {value_src})")
        if self._instrumented:
            self._emit(f"_Pm({self._new_site('m')!r}, {a})")

    def _compile_call(self, target: str, func_type, stack: list[_Val],
                      indirect: bool = False) -> None:
        self._flush()
        n = len(func_type.params)
        args = [stack.pop() for _ in range(n)]
        args.reverse()
        arg_src = ", ".join(a.src for a in args)
        if self._instrumented:
            counter = "indirect_calls" if indirect else "calls"
            self._emit(f"_P.{counter} += 1")
        if func_type.results:
            temp = self._fresh()
            self._emit(f"{temp} = {target}({arg_src})")
            self._push(stack, _Val(temp, func_type.results[0]))
        else:
            self._emit(f"{target}({arg_src})")

    def _compile_br_if(self, depth: int, stack: list[_Val],
                       scopes: list[_Scope]) -> None:
        self._flush()
        cond = stack.pop()
        if cond.is_const:
            if cond.const:
                self._compile_br(depth, stack, scopes)
            return
        target = scopes[-1 - depth]
        # values consumed by the branch must be evaluated before the jump;
        # they also remain for the fallthrough path, so materialize them.
        if target.kind not in ("loop", "func") and target.result_temps:
            n = len(target.result_temps)
            for i in range(len(stack) - n, len(stack)):
                stack[i] = self._materialize(stack[i])
        site = self._new_site("b") if self._instrumented else None
        self._emit(f"if {cond.as_bool()}:")
        self._em.indent += 1
        if site:
            self._emit(f"_Pb({site!r}, True)")
        self._compile_br(depth, stack, scopes)
        self._em.indent -= 1
        if site:
            self._emit("else:")
            self._em.indent += 1
            self._emit(f"_Pb({site!r}, False)")
            self._em.indent -= 1

    def _compile_br_table(self, instr: tuple, stack: list[_Val],
                          scopes: list[_Scope]) -> None:
        self._flush()
        targets, default = instr[1], instr[2]
        index = self._materialize(stack.pop())
        if not targets:
            self._compile_br(default, stack, scopes)
            return
        for i, t in enumerate(targets):
            prefix = "if" if i == 0 else "elif"
            self._emit(f"{prefix} {index.src} == {i}:")
            self._em.indent += 1
            self._compile_br(t, stack, scopes)
            self._em.indent -= 1
        self._emit("else:")
        self._em.indent += 1
        self._compile_br(default, stack, scopes)
        self._em.indent -= 1

    def _compile_structured(self, instr: tuple, stack: list[_Val],
                            scopes: list[_Scope]) -> None:
        kind = instr[0]
        nresults = len(instr[1])
        result_temps = [self._fresh("r") for _ in range(nresults)]

        at_top = scopes[-1].kind == "func"
        if kind == "if":
            cond = stack.pop()
            assigned = assigned_locals(instr[2]) | assigned_locals(instr[3])
        else:
            cond = None
            assigned = assigned_locals(instr[2])
        # values that survive the region must not see its local writes
        self._spill(stack, lambda v: bool(v.locals_read & assigned))
        self._flush()

        if kind == "if":
            scope = _Scope("if", result_temps, assigned)
            if cond is not None and cond.is_const:
                chosen = instr[2] if cond.const else instr[3]
                self._emit("while True:")
                self._em.indent += 1
                inner: list[_Val] = []
                alive = self._compile_body(chosen, inner, scopes + [scope])
                if alive:
                    self._flush()
                    for temp, val in zip(result_temps, inner[-nresults:] if nresults else []):
                        self._emit(f"{temp} = {val.src}")
                self._emit("break")
                self._em.indent -= 1
            else:
                self._emit("while True:")
                self._em.indent += 1
                if self._instrumented:
                    cond = self._materialize(cond)
                    self._emit(
                        f"_Pb({self._new_site('b')!r}, bool({cond.as_bool()}))"
                    )
                self._emit(f"if {cond.as_bool()}:")
                self._em.indent += 1
                self._compile_suite(instr[2], nresults, result_temps,
                                    scopes + [scope])
                self._em.indent -= 1
                self._emit("else:")
                self._em.indent += 1
                self._compile_suite(instr[3], nresults, result_temps,
                                    scopes + [scope])
                self._em.indent -= 1
                self._emit("break")
                self._em.indent -= 1
            self._emit_after_check(at_top)
        elif kind == "block":
            scope = _Scope("block", result_temps, assigned)
            self._emit("while True:")
            self._em.indent += 1
            inner = []
            alive = self._compile_body(instr[2], inner, scopes + [scope])
            if alive:
                self._flush()
                for temp, val in zip(result_temps, inner[-nresults:] if nresults else []):
                    self._emit(f"{temp} = {val.src}")
            self._emit("break")
            self._em.indent -= 1
            self._emit_after_check(at_top)
        else:  # loop
            scope = _Scope("loop", result_temps, assigned)
            self._emit("while True:")  # outer frame (not a label)
            self._em.indent += 1
            self._emit("while True:")  # the loop label: continue restarts
            self._em.indent += 1
            inner = []
            alive = self._compile_body(instr[2], inner, scopes + [scope])
            if alive:
                self._flush()
                for temp, val in zip(result_temps, inner[-nresults:] if nresults else []):
                    self._emit(f"{temp} = {val.src}")
            self._emit("break")
            self._em.indent -= 1
            # inner check: convert a pending depth-0 branch into a restart
            self._emit("if _br >= 0:")
            self._em.indent += 1
            self._emit("if _br == 0:")
            self._em.indent += 1
            self._emit("_br = -1")
            self._emit("continue")
            self._em.indent -= 1
            self._emit("_br -= 1")
            self._em.indent -= 1
            self._emit("break")
            self._em.indent -= 1
            if not at_top:
                # a pending branch keeps unwinding past this loop
                self._emit("if _br >= 0:")
                self._em.indent += 1
                self._emit("break")
                self._em.indent -= 1

        for temp in result_temps:
            stack.append(_Val(temp, "?"))

    def _compile_suite(self, body: list, nresults: int,
                       result_temps: list[str], scopes: list[_Scope]) -> None:
        """Compile one if-branch; guarantees a non-empty Python suite."""
        mark = len(self._em.lines)
        inner: list[_Val] = []
        alive = self._compile_body(body, inner, scopes)
        if alive:
            self._flush()
            for temp, val in zip(result_temps,
                                 inner[-nresults:] if nresults else []):
                self._emit(f"{temp} = {val.src}")
        if len(self._em.lines) == mark:
            self._emit("pass")

    def _emit_after_check(self, at_top: bool = False) -> None:
        """Consume a depth-0 pending branch; propagate deeper ones.

        At function top level a pending branch can never unwind further
        (branches that escape to the function frame were emitted as
        ``return``), so only the consume case is emitted there.
        """
        self._emit("if _br >= 0:")
        self._em.indent += 1
        if at_top:
            self._emit("_br = -1")
        else:
            self._emit("if _br:")
            self._em.indent += 1
            self._emit("_br -= 1")
            self._emit("break")
            self._em.indent -= 1
            self._emit("_br = -1")
        self._em.indent -= 1

    # ----------------------------------------------------------------- passes --

    _ASSIGN_RE = re.compile(r"^\s*(t\d+) = (.+)$")
    _ANY_ASSIGN_RE = re.compile(r"^(\s*)([A-Za-z_]\w*) = (.+)$")
    _CONTROL_RE = re.compile(
        r"^\s*(while |if |elif |else|break|continue|return|try|except|def )"
    )
    _NAME_RE = re.compile(r"\b[A-Za-z_]\w*\b")

    def _common_subexpressions(self, lines: list[str]) -> list[str]:
        """Local CSE: within one straight-line segment, a pure temp whose
        right-hand side was already computed reuses the earlier temp.

        Segments are delimited by control-flow lines (loops, branches,
        returns); an assignment invalidates every cached expression that
        reads the assigned name.  Sound because pure temps have no side
        effects and segments execute linearly.
        """
        available: dict[str, str] = {}   # rhs -> temp holding it
        out: list[str] = []
        for line in lines:
            if self._CONTROL_RE.match(line):
                available.clear()
                out.append(line)
                continue
            match = self._ANY_ASSIGN_RE.match(line)
            if not match:
                out.append(line)
                continue
            indent, name, rhs = match.groups()
            if name in self._pure_temps:
                known = available.get(rhs)
                if known is not None and known != name:
                    out.append(f"{indent}{name} = {known}")
                    continue
                available[rhs] = name
            # the assignment kills every cached expression reading `name`
            for cached_rhs in [
                r for r in available
                if name in self._NAME_RE.findall(r)
            ]:
                del available[cached_rhs]
            out.append(line)
        return out

    def _verify(self, source: str, name: str) -> None:
        """Re-parse the emitted code: an IR sanity check between passes,
        as optimizing compilers run after each transformation."""
        from repro.pyast import checked_parse

        try:
            checked_parse(source)
        except SyntaxError as exc:  # pragma: no cover - compiler bug guard
            raise CompilationError(
                f"turbofan pass broke function {name}: {exc}"
            )

    def _eliminate_dead_code(self, lines: list[str]) -> list[str]:
        """Remove assignments to pure temps that are never read (fixpoint)."""
        lines = list(lines)
        while True:
            uses: dict[str, int] = {}
            for line in lines:
                for name in re.findall(r"\bt\d+\b", line):
                    uses[name] = uses.get(name, 0) + 1
            removed = False
            kept: list[str] = []
            for line in lines:
                match = self._ASSIGN_RE.match(line)
                if match:
                    name = match.group(1)
                    if name in self._pure_temps and uses.get(name, 0) <= 1:
                        removed = True
                        continue
                kept.append(line)
            lines = kept
            if not removed:
                return lines
