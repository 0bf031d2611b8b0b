"""O0 and O2 compilation of HIR to Python (the H2/H3 paths).

* **O0** lowers each HIR instruction directly, after the mandatory
  linear-scan register-allocation pass every machine-code backend needs
  (LLVM's ``-O0`` still selects instructions and allocates registers).
* **O2** first runs the optimization pipeline — constant propagation,
  copy propagation, local common-subexpression elimination, dead code
  elimination, a second round of constant propagation (LLVM's pipelines
  iterate), register allocation — and verifies the IR between phases.
  Optimized code runs faster; compilation costs considerably more,
  which is exactly HyPer's trade-off in Figure 10.

Generated functions have the signature ``f(begin, end)`` (pipeline
parameters) and close over ``_cols``, ``_lib``, ``_res`` and the
semantic helpers via their exec namespace.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engines.datecalc import civil_from_days
from repro.engines.eval import like_matches
from repro.engines.hyper import hir
from repro.errors import CompilationError
from repro.plan.exprs import INT_BITS, wrap_int
from repro.pyast import checked_parse

__all__ = ["compile_o0", "compile_o2", "CompiledHir"]

_BIN_TEMPLATE = {
    "+": "{a} + {b}",
    "-": "{a} - {b}",
    "*": "{a} * {b}",
    "%": "_irem({a}, {b})",
    "==": "({a} == {b}) * 1",
    "!=": "({a} != {b}) * 1",
    "<": "({a} < {b}) * 1",
    "<=": "({a} <= {b}) * 1",
    ">": "({a} > {b}) * 1",
    ">=": "({a} >= {b}) * 1",
    "&": "{a} & {b}",
    "|": "{a} | {b}",
}


@dataclass
class CompiledHir:
    """One compiled pipeline function."""

    name: str
    tier: str
    source: str
    code: object

    def bind(self, columns, library, results, profile=None):
        namespace = {
            "_cols": columns,
            "_lib": library,
            "_res": results,
            "_idiv": hir.int_div,
            "_irem": hir.int_rem,
            "_fdiv": hir.float_div,
            "_like": like_matches,
            "_civil": civil_from_days,
            "_P": profile,
        }
        exec(self.code, namespace)
        fn = namespace[self.name]
        fn.tier = self.tier
        return fn


class _Emitter:
    def __init__(self):
        self.lines: list[str] = []
        self.indent = 1

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)


# ---------------------------------------------------------------------------
# register allocation (shared mandatory backend pass)
# ---------------------------------------------------------------------------

def linear_scan_allocate(func: hir.HirFunction) -> dict[int, int]:
    """Linear-scan register allocation: compute live ranges over a
    linearization of the body and assign virtual registers to a compact
    set of slots.  The *mapping* is what the generated code uses; the
    pass's purpose here is the honest compile-time work plus smaller
    generated frames."""
    order: list[tuple] = []

    def linearize(body):
        for instr in body:
            if instr[0] == "loop":
                start = len(order)
                linearize(instr[1])
                # registers used in a loop live across the whole loop
                for pos in range(start, len(order)):
                    order.append(order[pos])
            elif instr[0] == "if":
                order.append(("use", instr[1]))
                linearize(instr[2])
                linearize(instr[3])
            else:
                order.append(instr)

    linearize(func.body)
    first: dict[int, int] = {}
    last: dict[int, int] = {}

    def touch(reg, position):
        first.setdefault(reg, position)
        last[reg] = position

    for position, instr in enumerate(order):
        for reg in _registers_of(instr):
            touch(reg, position)
    for p in range(func.n_params):
        touch(p, 0)

    # classic linear scan over [first, last] intervals
    intervals = sorted(first, key=lambda r: first[r])
    free: list[int] = []
    active: list[tuple[int, int]] = []  # (end, slot)
    mapping: dict[int, int] = {}
    next_slot = 0
    for reg in intervals:
        start = first[reg]
        active = [(end, slot) for end, slot in active
                  if end >= start or free.append(slot)]
        if reg < func.n_params:
            mapping[reg] = reg  # parameters keep their slots
            continue
        if free:
            slot = free.pop()
        else:
            slot = max(next_slot, func.n_params)
            next_slot = slot + 1
        mapping[reg] = slot
        active.append((last[reg], slot))
    return mapping


def _registers_of(instr) -> list[int]:
    op = instr[0]
    if op == "bin":
        return [instr[2], instr[3], instr[4]]
    if op in ("mov", "neg", "not", "len", "cast_int", "cast_float"):
        return [instr[1], instr[2]]
    if op == "const":
        return [instr[1]]
    if op == "loadcol":
        return [instr[1], instr[3]]
    if op == "call":
        regs = list(instr[3])
        if instr[1] is not None:
            regs.append(instr[1])
        return regs
    if op == "getitem":
        return [instr[1], instr[2], instr[3]]
    if op == "setitem":
        return [instr[1], instr[3]]
    if op == "result":
        return list(instr[1])
    if op == "like":
        return [instr[1], instr[2]]
    if op == "extract":
        return [instr[1], instr[2]]
    if op == "use":
        return [instr[1]]
    return []


# ---------------------------------------------------------------------------
# optimization passes (the O2 pipeline)
# ---------------------------------------------------------------------------

def _map_body(body, fn):
    out = []
    for instr in body:
        if instr[0] == "loop":
            out.append(("loop", _map_body(instr[1], fn)))
        elif instr[0] == "if":
            out.append(("if", instr[1], _map_body(instr[2], fn),
                        _map_body(instr[3], fn)))
        else:
            replacement = fn(instr)
            if replacement is not None:
                out.append(replacement)
    return out


def constant_propagation(body: list) -> list:
    """Forward constants through straight-line regions (conservatively
    reset at control flow)."""
    def walk(body):
        known: dict[int, object] = {}
        out = []
        for instr in body:
            op = instr[0]
            if op == "loop":
                known.clear()
                out.append(("loop", walk(instr[1])))
                known.clear()
                continue
            if op == "if":
                known.clear()
                out.append(("if", instr[1], walk(instr[2]), walk(instr[3])))
                continue
            if op == "const":
                known[instr[1]] = instr[2]
                out.append(instr)
                continue
            if op == "mov" and instr[2] in known:
                known[instr[1]] = known[instr[2]]
                out.append(("const", instr[1], known[instr[1]]))
                continue
            if op == "bin":
                _, kind, dst, a, b, ty = instr
                if a in known and b in known and kind in _FOLDABLE:
                    try:
                        value = _FOLDABLE[kind](known[a], known[b], ty)
                        if kind in ("+", "-", "*") and ty in INT_BITS:
                            value = wrap_int(value, INT_BITS[ty])
                        known[dst] = value
                        out.append(("const", dst, value))
                        continue
                    except Exception:
                        pass
                known.pop(dst, None)
                out.append(instr)
                continue
            for reg in _written_by(instr):
                known.pop(reg, None)
            out.append(instr)
        return out

    return walk(body)


_FOLDABLE = {
    "+": lambda a, b, t: a + b,
    "-": lambda a, b, t: a - b,
    "*": lambda a, b, t: a * b,
    "==": lambda a, b, t: (a == b) * 1,
    "!=": lambda a, b, t: (a != b) * 1,
    "<": lambda a, b, t: (a < b) * 1,
    "<=": lambda a, b, t: (a <= b) * 1,
    ">": lambda a, b, t: (a > b) * 1,
    ">=": lambda a, b, t: (a >= b) * 1,
    "&": lambda a, b, t: a & b,
    "|": lambda a, b, t: a | b,
}


def _written_by(instr) -> list[int]:
    op = instr[0]
    if op == "bin":
        return [instr[2]]
    if op in ("const", "mov", "neg", "not", "len", "loadcol",
              "getitem", "like", "extract", "cast_int", "cast_float"):
        return [instr[1]]
    if op == "call" and instr[1] is not None:
        return [instr[1]]
    return []


def copy_propagation(body: list) -> list:
    """Replace uses of ``mov`` copies within straight-line regions."""
    def walk(body):
        alias: dict[int, int] = {}
        out = []

        def resolve(reg):
            while reg in alias:
                reg = alias[reg]
            return reg

        for instr in body:
            op = instr[0]
            if op in ("loop", "if"):
                alias.clear()
                if op == "loop":
                    out.append(("loop", walk(instr[1])))
                else:
                    out.append(("if", instr[1], walk(instr[2]),
                                walk(instr[3])))
                continue
            instr = _substitute_uses(instr, resolve)
            written = _written_by(instr)
            for reg in written:
                alias.pop(reg, None)
                stale = [k for k, v in alias.items() if v == reg]
                for k in stale:
                    del alias[k]
            if op == "mov":
                alias[instr[1]] = instr[2]
            out.append(instr)
        return out

    return walk(body)


def _substitute_uses(instr, resolve):
    op = instr[0]
    if op == "bin":
        return (op, instr[1], instr[2], resolve(instr[3]),
                resolve(instr[4]), instr[5])
    if op in ("mov", "neg", "not", "len", "cast_int", "cast_float"):
        return (op, instr[1], resolve(instr[2]))
    if op == "loadcol":
        return (op, instr[1], instr[2], resolve(instr[3]))
    if op == "call":
        return (op, instr[1], instr[2], [resolve(r) for r in instr[3]])
    if op == "getitem":
        return (op, instr[1], resolve(instr[2]), resolve(instr[3]))
    if op == "setitem":
        return (op, resolve(instr[1]), instr[2], resolve(instr[3]))
    if op == "result":
        return (op, [resolve(r) for r in instr[1]])
    if op == "like":
        return (op, instr[1], resolve(instr[2]), instr[3], instr[4], instr[5])
    if op == "extract":
        return (op, instr[1], resolve(instr[2]), instr[3])
    if op == "if":
        return instr
    return instr


def dead_code_elimination(func: hir.HirFunction, body: list) -> list:
    """Drop pure instructions whose destination is never read."""
    used: set[int] = set()

    def collect(body):
        for instr in body:
            op = instr[0]
            if op == "loop":
                collect(instr[1])
            elif op == "if":
                used.add(instr[1])
                collect(instr[2])
                collect(instr[3])
            else:
                writes = set(_written_by(instr))
                for reg in _registers_of(instr):
                    if reg not in writes or op in ("setitem",):
                        used.add(reg)
                # conservatively: all non-dst registers count as reads
                for reg in _read_by(instr):
                    used.add(reg)

    collect(body)

    _PURE = {"const", "mov", "bin", "neg", "not", "len", "getitem",
             "cast_int", "cast_float", "extract"}

    def sweep(instr):
        if instr[0] in _PURE:
            dsts = _written_by(instr)
            if dsts and all(d not in used for d in dsts):
                return None
        return instr

    return _map_body(body, sweep)


def _read_by(instr) -> list[int]:
    writes = set(_written_by(instr))
    return [r for r in _registers_of(instr) if r not in writes]


def common_subexpressions(body: list) -> list:
    """Local CSE on pure binary operations within straight-line regions."""
    def walk(body):
        available: dict[tuple, int] = {}
        out = []
        for instr in body:
            op = instr[0]
            if op == "loop":
                available.clear()
                out.append(("loop", walk(instr[1])))
                continue
            if op == "if":
                available.clear()
                out.append(("if", instr[1], walk(instr[2]), walk(instr[3])))
                continue
            if op == "bin":
                key = (instr[1], instr[3], instr[4], instr[5])
                prior = available.get(key)
                if prior is not None and prior != instr[2]:
                    out.append(("mov", instr[2], prior))
                    available = {
                        k: v for k, v in available.items() if v != instr[2]
                    }
                    continue
                available = {
                    k: v for k, v in available.items()
                    if v != instr[2] and instr[2] not in (k[1], k[2])
                }
                available[key] = instr[2]
                out.append(instr)
                continue
            for reg in _written_by(instr):
                available = {
                    k: v for k, v in available.items()
                    if v != reg and reg not in (k[1], k[2])
                }
            out.append(instr)
        return out

    return walk(body)


# ---------------------------------------------------------------------------
# Python emission
# ---------------------------------------------------------------------------

def _emit_python(func: hir.HirFunction, body: list, mapping: dict[int, int],
                 tier: str, instrumented: bool) -> CompiledHir:
    em = _Emitter()

    def reg(r):
        return f"r{mapping.get(r, r)}"

    params = ", ".join(reg(i) for i in range(func.n_params))
    name = f"hf_{func.name}"
    header = f"def {name}({params}):"
    pending = [0]

    def flush():
        if instrumented and pending[0]:
            em.emit(f"_P.instructions += {pending[0]}")
            pending[0] = 0

    def emit_body(body, depth):
        for instr in body:
            op = instr[0]
            if instrumented:
                pending[0] += 1
            if op == "loop":
                flush()
                em.emit("while True:")
                em.indent += 1
                emit_body(instr[1], depth + 1)
                flush()
                em.indent -= 1
            elif op == "if":
                flush()
                if instrumented:
                    # HyPer's optimizing codegen emits branch-free
                    # (predicated) selection code — the paper's reading of
                    # its flat Figure-6 curves — so conditionals cost two
                    # extra instructions instead of a predictable branch.
                    em.emit("_P.instructions += 2")
                em.emit(f"if {reg(instr[1])}:")
                em.indent += 1
                emit_body(instr[2], depth)
                flush()
                if not instr[2]:
                    em.emit("pass")
                em.indent -= 1
                if instr[3]:
                    em.emit("else:")
                    em.indent += 1
                    emit_body(instr[3], depth)
                    flush()
                    em.indent -= 1
            elif op == "break":
                flush()
                if instr[1] != 0:
                    raise CompilationError(
                        "HIR generation must not produce multi-level breaks"
                    )
                em.emit("break")
            elif op == "continue":
                flush()
                if instr[1] != 0:
                    raise CompilationError(
                        "HIR generation must not produce multi-level continues"
                    )
                em.emit("continue")
            elif op == "ret":
                flush()
                em.emit("return")
            elif op == "bin":
                _, kind, dst, a, b, ty = instr
                bits = INT_BITS.get(ty, 64)
                if kind == "/":
                    expr = (f"_fdiv({reg(a)}, {reg(b)})" if ty == "f64"
                            else f"_idiv({reg(a)}, {reg(b)}, {bits})")
                else:
                    expr = _BIN_TEMPLATE[kind].format(a=reg(a), b=reg(b))
                    if kind in ("+", "-", "*") and ty in INT_BITS:
                        half = 1 << (bits - 1)
                        expr = f"(({expr}) + {half} & {2 * half - 1}) - {half}"
                em.emit(f"{reg(dst)} = {expr}")
            elif op == "const":
                em.emit(f"{reg(instr[1])} = {instr[2]!r}")
            elif op == "mov":
                em.emit(f"{reg(instr[1])} = {reg(instr[2])}")
            elif op == "loadcol":
                em.emit(
                    f"{reg(instr[1])} = _cols[{instr[2]}][{reg(instr[3])}]"
                )
            elif op == "call":
                args = ", ".join(reg(r) for r in instr[3])
                target = f"_lib.{instr[2]}({args})"
                if instrumented:
                    em.emit("_P.calls += 1")
                if instr[1] is not None:
                    em.emit(f"{reg(instr[1])} = {target}")
                else:
                    em.emit(target)
            elif op == "getitem":
                em.emit(
                    f"{reg(instr[1])} = {reg(instr[2])}[{reg(instr[3])}]"
                )
            elif op == "setitem":
                em.emit(f"{reg(instr[1])}[{instr[2]}] = {reg(instr[3])}")
            elif op == "len":
                em.emit(f"{reg(instr[1])} = len({reg(instr[2])})")
            elif op == "result":
                row = ", ".join(reg(r) for r in instr[1])
                em.emit(f"_res.append(({row},))")
            elif op == "neg":
                em.emit(f"{reg(instr[1])} = -{reg(instr[2])}")
            elif op == "not":
                em.emit(f"{reg(instr[1])} = 0 if {reg(instr[2])} else 1")
            elif op == "like":
                _, dst, a, kind, pattern, negated = instr
                expr = f"_like({kind!r}, {reg(a)}, {pattern!r})"
                if negated:
                    expr = f"(not {expr}) * 1"
                else:
                    expr = f"({expr}) * 1"
                em.emit(f"{reg(dst)} = {expr}")
            elif op == "extract":
                index = {"YEAR": 0, "MONTH": 1, "DAY": 2}[instr[3]]
                em.emit(
                    f"{reg(instr[1])} = _civil({reg(instr[2])})[{index}]"
                )
            elif op == "cast_int":
                em.emit(f"{reg(instr[1])} = int({reg(instr[2])})")
            elif op == "cast_float":
                em.emit(f"{reg(instr[1])} = float({reg(instr[2])})")
            else:  # pragma: no cover - exhaustive
                raise CompilationError(f"cannot emit HIR op {op!r}")

    emit_body(body, 0)
    flush()
    if not em.lines:
        em.emit("pass")
    source = header + "\n" + "\n".join(em.lines) + "\n"
    try:
        code = compile(source, f"<{tier}:{func.name}>", "exec")
    except SyntaxError as exc:  # pragma: no cover - compiler bug guard
        raise CompilationError(f"{tier} emitted bad code: {exc}\n{source}")
    return CompiledHir(name, tier, source, code)


def compile_o0(func: hir.HirFunction, instrumented: bool = False) -> CompiledHir:
    """H2: direct code generation (register allocation only)."""
    mapping = linear_scan_allocate(func)
    return _emit_python(func, func.body, mapping, "O0", instrumented)


def instruction_selection(body: list) -> list[tuple]:
    """Lower HIR to a pseudo machine IR (two-address form with explicit
    moves), the way an LLVM backend's instruction selector does.

    The selected form is *analyzed* (it feeds the scheduler) but the
    final emission still goes through :func:`_emit_python`; the pass
    exists because a machine-code backend cannot skip it, and its cost is
    part of the O2 pipeline the paper measures against.
    """
    selected: list[tuple] = []

    def lower(body):
        for instr in body:
            op = instr[0]
            if op == "loop":
                selected.append(("label",))
                lower(instr[1])
                selected.append(("jump",))
            elif op == "if":
                selected.append(("test", instr[1]))
                lower(instr[2])
                lower(instr[3])
            elif op == "bin":
                # three-address -> two-address: mov dst, a; op dst, b
                selected.append(("mach_mov", instr[2], instr[3]))
                selected.append(("mach_op", instr[1], instr[2], instr[4]))
            elif op == "call":
                for i, arg in enumerate(instr[3]):
                    selected.append(("mach_argmov", i, arg))
                selected.append(("mach_call", instr[2]))
                if instr[1] is not None:
                    selected.append(("mach_mov", instr[1], -1))
            else:
                selected.append(("mach_misc",) + tuple(
                    r for r in _registers_of(instr)
                ))

    lower(body)
    return selected


def list_schedule(selected: list[tuple]) -> int:
    """List scheduling over the selected instructions: compute dependence
    heights register-wise and return the critical-path length.  Pure
    analysis (our 'machine' is Python), but the backend work is real and
    is exactly what makes LLVM-style O2 pipelines slow."""
    ready_at: dict[int, int] = {}
    critical = 0
    for instr in selected:
        regs = [r for r in instr[1:] if isinstance(r, int) and r >= 0]
        start = max((ready_at.get(r, 0) for r in regs), default=0)
        finish = start + 1
        for r in regs[:1]:
            ready_at[r] = finish
        critical = max(critical, finish)
    return critical


def compile_o2(func: hir.HirFunction, instrumented: bool = False) -> CompiledHir:
    """H3: the full optimization pipeline, then code generation.

    Modeled on LLVM's O2: the scalar pass pipeline runs in *iterations*
    (LLVM pipelines revisit functions), followed by the mandatory backend
    phases — instruction selection, list scheduling, register allocation.
    This is still far cheaper than real LLVM (we run ~20 pass
    applications, LLVM runs ~90 heavier ones over SSA), so the paper's
    compile-time *ratios* are a lower bound here; the direction holds.
    """
    body = func.body
    for _iteration in range(3):
        body = constant_propagation(body)
        _verify(func, body)
        body = copy_propagation(body)
        _verify(func, body)
        body = common_subexpressions(body)
        _verify(func, body)
        body = dead_code_elimination(func, body)
        _verify(func, body)
    # backend phases: ISel + scheduling + register allocation
    selected = instruction_selection(body)
    list_schedule(selected)
    mapping = linear_scan_allocate(
        hir.HirFunction(func.name, func.n_params, func.n_registers, body)
    )
    compiled = _emit_python(func, body, mapping, "O2", instrumented)
    checked_parse(compiled.source)  # final verification pass
    return compiled


def _verify(func: hir.HirFunction, body: list) -> None:
    """IR sanity between passes: every read register is in range."""
    def check(body):
        for instr in body:
            if instr[0] == "loop":
                check(instr[1])
            elif instr[0] == "if":
                check(instr[2])
                check(instr[3])
            else:
                for r in _registers_of(instr):
                    if not (0 <= r < func.n_registers):
                        raise CompilationError(
                            f"pass broke {func.name}: register {r}"
                        )

    check(body)
