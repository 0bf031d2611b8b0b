"""HIR: the HyPer engine's LLVM-like register IR, and its bytecode.

The paper's HyPer baseline (Figure 2a, first column) translates the QEP
into LLVM IR; from there three paths exist — a *bytecode generator* +
interpreter (H1), direct non-optimizing machine-code generation (H2,
"O0"), and the full optimization pipeline (H3, "O2").  HIR plays the
LLVM-IR role here:

* an infinite set of typed virtual **registers**,
* three-address instructions (no operand stack),
* structured control regions (``loop`` / ``if`` / ``break`` /
  ``continue``) that flatten to a jump-based **bytecode** for the
  interpreter and compile to Python for O0/O2,
* ``call`` instructions into the **pre-compiled runtime library**
  (hash tables, sort — the type-agnostic interface whose per-element
  call costs the paper analyzes in Listing 3 and Section 5.1).

Instruction tuples::

    ("const",  dst, value)
    ("mov",    dst, src)
    ("bin",    op, dst, a, b, kind)      # + - * / % == != < <= > >= & |
                                         # kind: i32 | i64 (SQL integer
                                         # arithmetic, wraps), int (an
                                         # unbounded counter), f64
    ("neg",    dst, a) / ("not", dst, a) # neg: doubles only
    ("loadcol", dst, col_id, row_reg)    # base-table column access
    ("call",   dst_or_None, name, [args])# runtime library call
    ("getitem", dst, seq, index) / ("setitem", seq, index, value)
    ("len",    dst, seq)
    ("like",   dst, a, kind, pattern, negated)
    ("extract", dst, a, part)
    ("result", [regs])                   # emit one output row
    ("loop",   [body]) / ("if", cond, [then], [else])
    ("break", depth) / ("continue", depth)
    ("ret",)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engines.datecalc import civil_from_days
from repro.engines.eval import int_div, int_rem, like_matches
from repro.plan.exprs import INT_BITS, wrap_int

__all__ = ["HirFunction", "flatten_to_bytecode", "BytecodeInterpreter",
           "int_div", "int_rem", "float_div"]


def float_div(a, b):
    if b == 0.0:
        if a == 0.0:
            return float("nan")
        return float("inf") if a > 0 else float("-inf")
    return a / b


@dataclass
class HirFunction:
    """One pipeline's code: parameters are registers 0..n_params-1."""

    name: str
    n_params: int
    n_registers: int
    body: list = field(default_factory=list)

    def instruction_count(self) -> int:
        def count(body):
            total = 0
            for instr in body:
                total += 1
                if instr[0] == "loop":
                    total += count(instr[1])
                elif instr[0] == "if":
                    total += count(instr[2]) + count(instr[3])
            return total

        return count(self.body)


# ---------------------------------------------------------------------------
# Bytecode: flat, jump-based (the H1 path's interpreter format)
# ---------------------------------------------------------------------------

def flatten_to_bytecode(func: HirFunction) -> list:
    """Structured HIR -> flat bytecode with ``jmp``/``jz`` instructions."""
    code: list = []
    # (loop_start_pc, [break_patch_positions]) per open loop
    loop_stack: list[tuple[int, list[int]]] = []

    def emit_body(body):
        for instr in body:
            kind = instr[0]
            if kind == "loop":
                start = len(code)
                patches: list[int] = []
                loop_stack.append((start, patches))
                emit_body(instr[1])
                code.append(("jmp", start))
                loop_stack.pop()
                end = len(code)
                for pos in patches:
                    code[pos] = (code[pos][0], end)
            elif kind == "if":
                code.append(("jz", instr[1], -1))
                jz_pos = len(code) - 1
                emit_body(instr[2])
                if instr[3]:
                    code.append(("jmp", -1))
                    jmp_pos = len(code) - 1
                    code[jz_pos] = ("jz", instr[1], len(code))
                    emit_body(instr[3])
                    code[jmp_pos] = ("jmp", len(code))
                else:
                    code[jz_pos] = ("jz", instr[1], len(code))
            elif kind == "break":
                start, patches = loop_stack[-1 - instr[1]]
                code.append(("jmp", -1))
                patches.append(len(code) - 1)
            elif kind == "continue":
                start, _ = loop_stack[-1 - instr[1]]
                code.append(("jmp", start))
            else:
                code.append(instr)

    emit_body(func.body)
    code.append(("ret",))
    return code


class BytecodeInterpreter:
    """The H1 path: interpret flattened bytecode, one dispatch per op.

    ``columns`` maps col_id -> Python list; ``library`` provides the
    pre-compiled runtime (hash tables, sort); ``results`` collects output
    rows.  Profiling counts one ``interp_dispatch`` per executed op.
    """

    def __init__(self, columns, library, results, profile=None):
        self.columns = columns
        self.library = library
        self.results = results
        self.profile = profile

    def run(self, bytecode: list, n_registers: int, args: tuple) -> None:
        regs = [None] * n_registers
        regs[: len(args)] = args
        columns = self.columns
        library = self.library
        profile = self.profile
        pc = 0
        dispatched = 0
        while True:
            instr = bytecode[pc]
            pc += 1
            dispatched += 1
            op = instr[0]
            if op == "bin":
                _, kind, dst, a, b, ty = instr
                va, vb = regs[a], regs[b]
                if kind == "+" or kind == "-" or kind == "*":
                    value = va + vb if kind == "+" else \
                        va - vb if kind == "-" else va * vb
                    bits = INT_BITS.get(ty)
                    regs[dst] = value if bits is None \
                        else wrap_int(value, bits)
                elif kind == "/":
                    regs[dst] = float_div(va, vb) if ty == "f64" \
                        else int_div(va, vb, INT_BITS.get(ty, 64))
                elif kind == "%":
                    regs[dst] = int_rem(va, vb)
                elif kind == "==":
                    regs[dst] = 1 if va == vb else 0
                elif kind == "!=":
                    regs[dst] = 1 if va != vb else 0
                elif kind == "<":
                    regs[dst] = 1 if va < vb else 0
                elif kind == "<=":
                    regs[dst] = 1 if va <= vb else 0
                elif kind == ">":
                    regs[dst] = 1 if va > vb else 0
                elif kind == ">=":
                    regs[dst] = 1 if va >= vb else 0
                elif kind == "&":
                    regs[dst] = va & vb
                else:
                    regs[dst] = va | vb
            elif op == "loadcol":
                regs[instr[1]] = columns[instr[2]][regs[instr[3]]]
            elif op == "const":
                regs[instr[1]] = instr[2]
            elif op == "mov":
                regs[instr[1]] = regs[instr[2]]
            elif op == "jz":
                if not regs[instr[1]]:
                    pc = instr[2]
            elif op == "jmp":
                pc = instr[1]
            elif op == "getitem":
                regs[instr[1]] = regs[instr[2]][regs[instr[3]]]
            elif op == "setitem":
                regs[instr[1]][instr[2]] = regs[instr[3]]
            elif op == "len":
                regs[instr[1]] = len(regs[instr[2]])
            elif op == "call":
                _, dst, name, arg_regs = instr
                value = getattr(library, name)(
                    *[regs[r] for r in arg_regs]
                )
                if dst is not None:
                    regs[dst] = value
            elif op == "result":
                self.results.append(tuple(regs[r] for r in instr[1]))
            elif op == "neg":
                regs[instr[1]] = -regs[instr[2]]
            elif op == "not":
                regs[instr[1]] = 0 if regs[instr[2]] else 1
            elif op == "like":
                _, dst, a, kind, pattern, negated = instr
                matched = like_matches(kind, regs[a], pattern)
                regs[dst] = int(matched != negated)
            elif op == "extract":
                year, month, day = civil_from_days(int(regs[instr[2]]))
                regs[instr[1]] = {"YEAR": year, "MONTH": month,
                                  "DAY": day}[instr[3]]
            elif op == "cast_int":
                regs[instr[1]] = int(regs[instr[2]])
            elif op == "cast_float":
                regs[instr[1]] = float(regs[instr[2]])
            elif op == "ret":
                if profile is not None:
                    profile.interp_dispatch += dispatched
                return
            else:  # pragma: no cover - exhaustive
                raise EngineError(f"unknown bytecode op {op!r}")
