"""The Liftoff tier: fast single-pass baseline compilation.

Mirrors V8's Liftoff in role and design: one pass over the function body,
no analysis, no optimization.  The operand stack is emulated with a real
Python list; every operator becomes a pop/compute/push sequence calling
out-of-line helpers.  Compilation is as fast as it gets; the produced
code runs, but slower than the TurboFan tier's output — exactly the
trade-off the adaptive engine exploits.

Control flow is compiled with the *branch cascade*: every structured
instruction becomes a ``while True:`` frame, and a ``br d`` sets a
pending-depth counter and breaks outward one frame at a time.  Loops use
a two-frame form whose inner check converts a depth-0 branch into a
``continue``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CompilationError
from repro.observability.metrics import get_registry
from repro.wasm.module import Function, Module
from repro.wasm.runtime import values as V
from repro.wasm.runtime.pycodegen import (
    LOAD_FMT,
    SIMPLE_BINOPS,
    SIMPLE_UNOPS,
    STORE_FMT,
    make_namespace,
)

__all__ = ["LiftoffCompiler", "CompiledFunction"]


def _float_src(value: float) -> str:
    """Python source for a float constant; ``repr`` of non-finite
    values (``inf``, ``nan``) is not valid source."""
    if value != value:
        return "float('nan')"
    if value in (float("inf"), float("-inf")):
        return f"float('{value}')"
    return repr(value)


@dataclass
class CompiledFunction:
    """The output of a tier compiler for one function."""

    name: str
    tier: str
    source: str
    entry: str
    code: object = field(repr=False, default=None)  # compiled code object
    #: TurboFan's split of the function's filtered-scan loop (a
    #: :class:`~repro.wasm.runtime.prefilter.PrefilterPlan`), if it is one.
    prefilter: object = None

    def bind(self, instance, profile=None):
        """Instantiate the code against one instance; returns a callable
        (for a prefiltered loop, the driver around it: the plain callable
        is its ``.scalar``)."""
        namespace = make_namespace(instance, profile)
        exec(self.code, namespace)
        fn = namespace[self.entry]
        if self.prefilter is not None:
            fn = self.prefilter.bind(fn, instance)
        fn.tier = self.tier
        fn.compiled = self
        return fn


class _Emitter:
    """Indented line emission with unique-name counters."""

    def __init__(self):
        self.lines: list[str] = []
        self.indent = 0
        self._counter = 0

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class LiftoffCompiler:
    """Compiles functions of one module, one at a time."""

    tier_name = "liftoff"

    def __init__(self, module: Module):
        self.module = module

    def compile(self, func: Function, func_index: int,
                instrumented: bool = False) -> CompiledFunction:
        func_type = self.module.types[func.type_index]
        name = func.name or f"f{func_index}"
        entry = f"wf{func_index}"
        em = _Emitter()
        self._instrumented = instrumented
        self._pending = 0
        self._site = 0
        self._fname = name

        params = ", ".join(f"L{i}" for i in range(len(func_type.params)))
        em.emit(f"def {entry}({params}):")
        em.indent += 1
        for i, ty in enumerate(func.locals_):
            index = len(func_type.params) + i
            em.emit(f"L{index} = {'0.0' if ty.startswith('f') else '0'}")
        em.emit("st = []")
        em.emit("_br = -1")
        em.emit("try:")
        em.indent += 1
        em.emit("while True:")
        em.indent += 1
        self._compile_body(em, func.body, frames=[("func", None, len(func_type.results))])
        self._flush(em)
        em.emit("break")
        em.indent -= 1
        if func_type.results:
            em.emit("return st[-1]")
        else:
            em.emit("return None")
        em.indent -= 1
        em.emit("except (TypeError, IndexError, _StructError) as _e:")
        em.indent += 1
        em.emit("raise _Trap('out of bounds memory access', repr(_e))")
        em.indent -= 1
        em.emit("except RecursionError:")
        em.indent += 1
        em.emit("raise _Trap('call stack exhausted')")
        em.indent -= 1

        source = "import struct as _struct\n_StructError = _struct.error\n" + em.source()
        try:
            code = compile(source, f"<liftoff:{name}>", "exec")
        except SyntaxError as exc:  # pragma: no cover - compiler bug guard
            raise CompilationError(f"liftoff generated bad code for {name}: {exc}\n{source}")
        get_registry().counter(
            "wasm_functions_compiled_total",
            "Wasm functions compiled, by tier",
        ).inc(tier=self.tier_name)
        return CompiledFunction(name, self.tier_name, source, entry, code)

    # -- instrumentation ------------------------------------------------------

    def _count(self, n: int = 1) -> None:
        if self._instrumented:
            self._pending += n

    def _flush(self, em: _Emitter) -> None:
        if self._instrumented and self._pending:
            em.emit(f"_P.instructions += {self._pending}")
            self._pending = 0

    def _new_site(self, kind: str) -> str:
        self._site += 1
        return f"{self._fname}:{kind}{self._site}"

    # -- body compilation --------------------------------------------------------

    def _compile_body(self, em: _Emitter, body: list, frames: list) -> None:
        """frames: innermost-last list of (kind, height_var, nresults)."""
        for instr in body:
            op = instr[0]
            self._count()

            if op == "local.get":
                em.emit(f"st.append(L{instr[1]})")
            elif op == "local.set":
                em.emit(f"L{instr[1]} = st.pop()")
            elif op == "local.tee":
                em.emit(f"L{instr[1]} = st[-1]")
            elif op == "global.get":
                em.emit(f"st.append(_G[{instr[1]}])")
            elif op == "global.set":
                em.emit(f"_G[{instr[1]}] = st.pop()")
            elif op == "i32.const" or op == "i64.const":
                em.emit(f"st.append({int(instr[1])})")
            elif op == "f32.const":
                em.emit(f"st.append({_float_src(V.f32round(float(instr[1])))})")
            elif op == "f64.const":
                em.emit(f"st.append({_float_src(float(instr[1]))})")
            elif op in SIMPLE_BINOPS:
                em.emit("b = st.pop(); a = st.pop()")
                expr = SIMPLE_BINOPS[op].format(a="a", b="b")
                em.emit(f"st.append({expr})")
            elif op in SIMPLE_UNOPS:
                expr = SIMPLE_UNOPS[op].format(a="st.pop()")
                em.emit(f"st.append({expr})")
            elif op in LOAD_FMT:
                self._compile_load(em, op, instr[2])
            elif op in STORE_FMT:
                self._compile_store(em, op, instr[2])
            elif op == "block" or op == "loop":
                self._flush(em)
                self._compile_block(em, instr, frames)
            elif op == "if":
                self._flush(em)
                self._compile_if(em, instr, frames)
            elif op == "br":
                self._compile_br(em, instr[1], frames)
            elif op == "br_if":
                self._flush(em)
                em.emit("if st.pop():")
                em.indent += 1
                if self._instrumented:
                    site = self._new_site("b")
                    em.emit(f"_Pb({site!r}, True)")
                self._compile_br(em, instr[1], frames)
                em.indent -= 1
                if self._instrumented:
                    em.emit("else:")
                    em.indent += 1
                    em.emit(f"_Pb({site!r}, False)")
                    em.indent -= 1
            elif op == "br_table":
                self._flush(em)
                targets, default = instr[1], instr[2]
                em.emit("a = st.pop()")
                if targets:
                    tup = ", ".join(str(t) for t in targets)
                    em.emit(
                        f"_br = ({tup},)[a] if 0 <= a < {len(targets)} "
                        f"else {default}"
                    )
                else:
                    em.emit(f"_br = {default}")
                em.emit("break")
            elif op == "return":
                self._flush(em)
                nresults = frames[0][2]  # the function frame's result count
                em.emit("return st[-1]" if nresults else "return None")
            elif op == "call":
                self._flush(em)
                self._compile_call(em, f"_funcs[{instr[1]}]",
                                   self.module.func_type_of(instr[1]))
            elif op == "call_indirect":
                self._flush(em)
                em.emit(f"a = _tbl(st.pop(), {instr[1]})")
                self._compile_call(em, "_funcs[a]",
                                   self.module.types[instr[1]],
                                   indirect=True)
            elif op == "drop":
                em.emit("st.pop()")
            elif op == "select":
                em.emit("c = st.pop(); b = st.pop(); a = st.pop()")
                em.emit("st.append(a if c else b)")
            elif op == "unreachable":
                self._flush(em)
                em.emit("_trap('unreachable')")
            elif op == "nop":
                em.emit("pass")
            elif op == "memory.size":
                em.emit("st.append(_memsize())")
            elif op == "memory.grow":
                em.emit("st.append(_memgrow(st.pop()))")
            else:  # pragma: no cover - opcode table is exhaustive
                raise CompilationError(f"liftoff: unhandled op {op!r}")

    def _compile_load(self, em: _Emitter, op: str, offset: int) -> None:
        fmt = LOAD_FMT[op]
        base = "st.pop()" if not offset else f"st.pop() + {offset}"
        em.emit(f"a = ({base}) & 4294967295")
        em.emit("e = _pages[a >> 16]")
        em.emit(f"st.append(_unpack_from({fmt!r}, e[0], e[1] + (a & 65535))[0])")
        if self._instrumented:
            em.emit(f"_Pm({self._new_site('m')!r}, a)")

    def _compile_store(self, em: _Emitter, op: str, offset: int) -> None:
        fmt, mask = STORE_FMT[op]
        em.emit("v = st.pop()")
        base = "st.pop()" if not offset else f"st.pop() + {offset}"
        em.emit(f"a = ({base}) & 4294967295")
        em.emit("e = _pages[a >> 16]")
        value = f"v & {mask}" if mask is not None else "v"
        em.emit(f"_pack_into({fmt!r}, e[0], e[1] + (a & 65535), {value})")
        if self._instrumented:
            em.emit(f"_Pm({self._new_site('m')!r}, a)")

    def _compile_call(self, em: _Emitter, target: str, func_type,
                      indirect: bool = False) -> None:
        n = len(func_type.params)
        if n:
            names = [f"a{i}" for i in range(n)]
            # pop in reverse: last argument is on top
            em.emit("; ".join(f"{nm} = st.pop()" for nm in reversed(names)))
            args = ", ".join(names)
        else:
            args = ""
        if self._instrumented:
            counter = "indirect_calls" if indirect else "calls"
            em.emit(f"_P.{counter} += 1")
        if func_type.results:
            em.emit(f"st.append({target}({args}))")
        else:
            em.emit(f"{target}({args})")

    def _compile_br(self, em: _Emitter, depth: int, frames: list) -> None:
        self._flush(em)
        em.emit(f"_br = {depth}")
        em.emit("break")

    def _compile_block(self, em: _Emitter, instr: tuple, frames: list) -> None:
        kind = instr[0]
        nresults = len(instr[1])
        height = em.fresh("h")
        em.emit(f"{height} = len(st)")
        if kind == "loop":
            em.emit("while True:")  # outer frame (not a label)
            em.indent += 1
            em.emit("while True:")  # the loop label
            em.indent += 1
            self._compile_body(em, instr[2],
                               frames + [("loop", height, nresults)])
            self._flush(em)
            em.emit("break")
            em.indent -= 1
            # inner check: a depth-0 branch restarts the loop
            em.emit("if _br >= 0:")
            em.indent += 1
            em.emit("if _br == 0:")
            em.indent += 1
            em.emit("_br = -1")
            em.emit(f"del st[{height}:]")
            em.emit("continue")
            em.indent -= 1
            em.emit("_br -= 1")
            em.indent -= 1
            em.emit("break")
            em.indent -= 1
            # after-loop: propagate without consuming
            em.emit("if _br >= 0:")
            em.indent += 1
            em.emit("break")
            em.indent -= 1
        else:  # block
            em.emit("while True:")
            em.indent += 1
            self._compile_body(em, instr[2],
                               frames + [("block", height, nresults)])
            self._flush(em)
            em.emit("break")
            em.indent -= 1
            self._emit_block_check(em, height, nresults)

    def _compile_if(self, em: _Emitter, instr: tuple, frames: list) -> None:
        nresults = len(instr[1])
        height = em.fresh("h")
        em.emit("c = st.pop()")
        if self._instrumented:
            em.emit(f"_Pb({self._new_site('b')!r}, bool(c))")
        em.emit(f"{height} = len(st)")
        em.emit("while True:")
        em.indent += 1
        em.emit("if c:")
        em.indent += 1
        self._compile_body(em, instr[2], frames + [("block", height, nresults)])
        self._flush(em)
        if not instr[2]:
            em.emit("pass")
        em.indent -= 1
        em.emit("else:")
        em.indent += 1
        self._compile_body(em, instr[3], frames + [("block", height, nresults)])
        self._flush(em)
        if not instr[3]:
            em.emit("pass")
        em.indent -= 1
        em.emit("break")
        em.indent -= 1
        self._emit_block_check(em, height, nresults)

    def _emit_block_check(self, em: _Emitter, height: str, nresults: int) -> None:
        """After a block/if frame: consume a depth-0 branch, trim the stack."""
        em.emit("if _br >= 0:")
        em.indent += 1
        em.emit("if _br:")
        em.indent += 1
        em.emit("_br -= 1")
        em.emit("break")
        em.indent -= 1
        em.emit("_br = -1")
        if nresults:
            em.emit(f"if len(st) > {height} + {nresults}:")
            em.indent += 1
            em.emit(f"st[{height}:] = st[-{nresults}:]")
            em.indent -= 1
        else:
            em.emit(f"del st[{height}:]")
        em.indent -= 1
