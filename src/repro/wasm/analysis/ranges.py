"""Interval abstract interpretation over i32/i64 values.

Forward dataflow over the CFG of :mod:`.cfg`, one :class:`AVal` per
local and per abstract-stack slot.  The domain tracks, per value:

* ``[lo, hi]`` — a signed interval (``None`` bounds for floats and
  values we give up on); a ring op whose result may wrap widens to the
  full type range;
* ``local`` — provenance: this stack value is a copy of local *n*
  (invalidated when the local is written), which lets a branch on
  ``local.get n ... i32.ge_s`` refine local *n* on both edges —
  exactly the shape of the generated scan-loop guard;
* ``cmp`` — for i32 comparison results, the ``(kind, lhs, rhs)``
  operand snapshot that drives the per-edge refinement.

Facts: for every reachable memory access the analysis records the
address operand's :class:`AVal` keyed by preorder instruction offset
(:class:`MemAccessFact`).  The module linter uses them to flag accesses
that are provably out of bounds for every possible memory size.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.wasm.analysis.cfg import CFG, BasicBlock, build_cfg
from repro.wasm.analysis.dataflow import solve_forward
from repro.wasm.module import Function, Module
from repro.wasm.opcodes import OPS
from repro.wasm.runtime.pycodegen import LOAD_FMT, STORE_FMT

__all__ = ["AVal", "MemAccessFact", "RangeResult", "analyze_ranges",
           "ACCESS_SIZE"]

WASM_PAGE = 65536
INT_RANGE = {32: (-(1 << 31), (1 << 31) - 1), 64: (-(1 << 63), (1 << 63) - 1)}

#: Bytes touched by each memory instruction (from its struct format).
ACCESS_SIZE = {op: struct.calcsize(fmt) for op, fmt in LOAD_FMT.items()}
ACCESS_SIZE.update({op: struct.calcsize(fmt)
                    for op, (fmt, _mask) in STORE_FMT.items()})

_LOAD_RESULT_RANGE = {
    "i32.load8_s": (-128, 127), "i32.load8_u": (0, 255),
    "i32.load16_s": (-32768, 32767), "i32.load16_u": (0, 65535),
    "i64.load8_s": (-128, 127), "i64.load8_u": (0, 255),
    "i64.load16_s": (-32768, 32767), "i64.load16_u": (0, 65535),
    "i64.load32_s": INT_RANGE[32], "i64.load32_u": (0, (1 << 32) - 1),
}

_CMP_KINDS = frozenset({
    "eq", "ne", "lt_s", "lt_u", "gt_s", "gt_u", "le_s", "le_u",
    "ge_s", "ge_u",
})
_NEGATE = {
    "eq": "ne", "ne": "eq",
    "lt_s": "ge_s", "ge_s": "lt_s", "gt_s": "le_s", "le_s": "gt_s",
    "lt_u": "ge_u", "ge_u": "lt_u", "gt_u": "le_u", "le_u": "gt_u",
}


def _bits_of(valtype: str) -> int:
    if valtype == "i32":
        return 32
    if valtype == "i64":
        return 64
    return 0


class AVal:
    """One abstract value.  Treat instances as immutable."""

    __slots__ = ("lo", "hi", "bits", "local", "cmp")

    def __init__(self, bits: int, lo: int | None, hi: int | None,
                 local: int | None = None, cmp=None):
        self.bits = bits
        self.lo = lo
        self.hi = hi
        self.local = local
        self.cmp = cmp  # (kind, lhs AVal, rhs AVal) | None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def top(valtype_or_bits) -> "AVal":
        bits = (valtype_or_bits if isinstance(valtype_or_bits, int)
                else _bits_of(valtype_or_bits))
        if bits == 0:
            return AVal(0, None, None)
        lo, hi = INT_RANGE[bits]
        return AVal(bits, lo, hi)

    @staticmethod
    def const(bits: int, value: int) -> "AVal":
        return AVal(bits, value, value)

    def replace(self, **kw) -> "AVal":
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(kw)
        return AVal(**fields)

    # -- lattice -----------------------------------------------------------

    def _key(self):
        cmp = self.cmp
        if cmp is not None:
            cmp = (cmp[0], cmp[1]._key(), cmp[2]._key())
        return (self.bits, self.lo, self.hi, self.local, cmp)

    def __eq__(self, other):
        return isinstance(other, AVal) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        rng = "float" if self.bits == 0 else f"[{self.lo}, {self.hi}]"
        tag = f" =L{self.local}" if self.local is not None else ""
        return f"<AVal i{self.bits} {rng}{tag}>"

    def join(self, other: "AVal") -> "AVal":
        if self.bits != other.bits or self.bits == 0:
            return AVal(0, None, None)
        return AVal(
            self.bits,
            min(self.lo, other.lo), max(self.hi, other.hi),
            local=self.local if self.local == other.local else None,
        )

    def widen(self, newer: "AVal") -> "AVal":
        if self.bits != newer.bits or self.bits == 0:
            return AVal(0, None, None)
        type_lo, type_hi = INT_RANGE[self.bits]
        return AVal(
            self.bits,
            self.lo if newer.lo >= self.lo else type_lo,
            self.hi if newer.hi <= self.hi else type_hi,
            local=self.local if self.local == newer.local else None,
        )

    def strip(self) -> "AVal":
        """Drop the nested ``cmp`` (bounds comparison-snapshot depth)."""
        return self.replace(cmp=None) if self.cmp is not None else self


@dataclass
class MemAccessFact:
    """The address operand of one reachable load/store."""

    op: str
    imm_offset: int
    addr: AVal

    @property
    def access_size(self) -> int:
        return ACCESS_SIZE[self.op]


@dataclass
class RangeResult:
    cfg: CFG
    #: preorder offset -> fact, for every memory access on a reachable path
    facts: dict[int, MemAccessFact]
    #: block index -> (locals, stack) abstract state at block entry
    in_states: dict
    #: preorder offset of every reachable ``if``/``br_if`` -> the joined
    #: abstract value of its condition; a constant interval here means
    #: one arm is dead (the module linter's dead-arm rule)
    branch_conds: dict[int, AVal] = field(default_factory=dict)


class _State:
    """Mutable per-block state: abstract locals + abstract stack."""

    __slots__ = ("locals", "stack")

    def __init__(self, locals_: list[AVal], stack: list[AVal]):
        self.locals = locals_
        self.stack = stack

    def copy(self) -> "_State":
        return _State(list(self.locals), list(self.stack))

    def __eq__(self, other):
        return (isinstance(other, _State)
                and self.locals == other.locals
                and self.stack == other.stack)

    def scrub(self, index: int) -> None:
        """Forget every claim that some value equals local ``index``."""
        for values in (self.locals, self.stack):
            for i, val in enumerate(values):
                changed = val
                if changed.local == index:
                    changed = changed.replace(local=None)
                if changed.cmp is not None and (
                        changed.cmp[1].local == index
                        or changed.cmp[2].local == index):
                    kind, lhs, rhs = changed.cmp
                    if lhs.local == index:
                        lhs = lhs.replace(local=None)
                    if rhs.local == index:
                        rhs = rhs.replace(local=None)
                    changed = changed.replace(cmp=(kind, lhs, rhs))
                if changed is not val:
                    values[i] = changed


def _join_states(a: _State, b: _State) -> _State:
    # Validated code guarantees matching shapes at every join point.
    assert len(a.locals) == len(b.locals) and len(a.stack) == len(b.stack)
    return _State(
        [x.join(y) for x, y in zip(a.locals, b.locals)],
        [x.join(y) for x, y in zip(a.stack, b.stack)],
    )


def _widen_states(old: _State, new: _State) -> _State:
    return _State(
        [x.widen(y) for x, y in zip(old.locals, new.locals)],
        [x.widen(y) for x, y in zip(old.stack, new.stack)],
    )


def _interval_binop(kind: str, bits: int, a: AVal, b: AVal) -> AVal:
    """Ring ops: interval arithmetic with wrap detection."""
    type_lo, type_hi = INT_RANGE[bits]
    lo = hi = None
    if kind == "add":
        lo, hi = a.lo + b.lo, a.hi + b.hi
    elif kind == "sub":
        lo, hi = a.lo - b.hi, a.hi - b.lo
    elif kind == "mul":
        corners = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
        lo, hi = min(corners), max(corners)
    elif kind == "shl":
        if b.lo == b.hi and 0 <= b.lo < bits:
            lo, hi = a.lo << b.lo, a.hi << b.lo
        else:
            return AVal(bits, type_lo, type_hi)
    if lo < type_lo or hi > type_hi:
        return AVal(bits, type_lo, type_hi)  # may wrap
    return AVal(bits, lo, hi)


def _interval_bitop(kind: str, bits: int, a: AVal, b: AVal) -> AVal:
    if a.lo >= 0 and b.lo >= 0:
        if kind == "and":
            return AVal(bits, 0, min(a.hi, b.hi))
        span = (1 << max(a.hi.bit_length(), b.hi.bit_length())) - 1
        return AVal(bits, 0, span)
    return AVal.top(bits)


def _constrain(kind: str, a: AVal, b: AVal):
    """Bounds implied for ``a`` and ``b`` by ``a <kind> b`` being true.

    Returns ``((a_lo, a_hi), (b_lo, b_hi))`` or ``None`` when the
    comparison kind supports no refinement here.  Unsigned comparisons
    refine only when both sides are known non-negative (where they
    coincide with the signed order).
    """
    if kind.endswith("_u"):
        if a.lo < 0 or b.lo < 0:
            return None
        kind = kind[:-2] + "_s"
    if kind == "lt_s":
        return (a.lo, b.hi - 1), (a.lo + 1, b.hi)
    if kind == "le_s":
        return (a.lo, b.hi), (a.lo, b.hi)
    if kind == "gt_s":
        return (b.lo + 1, a.hi), (b.lo, a.hi - 1)
    if kind == "ge_s":
        return (b.lo, a.hi), (b.lo, a.hi)
    if kind == "eq":
        lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
        return (lo, hi), (lo, hi)
    if kind == "ne":
        a_lo, a_hi, b_lo, b_hi = a.lo, a.hi, b.lo, b.hi
        if b.lo == b.hi:  # endpoint exclusion against a constant
            if a_lo == b.lo:
                a_lo += 1
            if a_hi == b.lo:
                a_hi -= 1
        if a.lo == a.hi:
            if b_lo == a.lo:
                b_lo += 1
            if b_hi == a.lo:
                b_hi -= 1
        return (a_lo, a_hi), (b_lo, b_hi)
    return None


def _decide_cmp(kind: str, a: AVal, b: AVal) -> int | None:
    """Fold ``a <kind> b`` when the intervals decide it, else ``None``.

    The intervals always bound the true runtime value (inexactness only
    widens them to the full type range), so a verdict read off disjoint
    or pinned intervals is sound.  Unsigned kinds fold only when both
    sides are known non-negative (where they match the signed order).
    """
    if not a.bits or a.bits != b.bits:
        return None
    if kind.endswith("_u"):
        if a.lo < 0 or b.lo < 0:
            return None
        kind = kind[:-2] + "_s"
    if kind in ("gt_s", "ge_s"):
        kind = {"gt_s": "lt_s", "ge_s": "le_s"}[kind]
        a, b = b, a
    if kind == "eq" or kind == "ne":
        flip = 0 if kind == "eq" else 1
        if a.lo == a.hi == b.lo == b.hi:
            return 1 ^ flip
        if a.hi < b.lo or a.lo > b.hi:
            return 0 ^ flip
        return None
    if kind == "lt_s":
        if a.hi < b.lo:
            return 1
        if a.lo >= b.hi:
            return 0
        return None
    if kind == "le_s":
        if a.hi <= b.lo:
            return 1
        if a.lo > b.hi:
            return 0
    return None


class RangeAnalysis:
    """Runs the interval analysis for one function."""

    def __init__(self, module: Module, func: Function,
                 cfg: CFG | None = None):
        self.module = module
        self.func = func
        self.cfg = cfg or build_cfg(module, func)
        func_type = module.types[func.type_index]
        self.param_types = list(func_type.params)
        self.local_types = self.param_types + list(func.locals_)
        self.facts: dict[int, MemAccessFact] = {}
        self.branch_conds: dict[int, AVal] = {}
        self._recording = False

    # -- entry state -------------------------------------------------------

    def entry_state(self) -> _State:
        locals_: list[AVal] = []
        for i, ty in enumerate(self.local_types):
            bits = _bits_of(ty)
            if i < len(self.param_types):
                locals_.append(AVal.top(bits))
            else:
                # non-parameter locals are zero-initialized by the spec
                locals_.append(AVal.const(bits, 0) if bits
                               else AVal(0, None, None))
        return _State(locals_, [])

    # -- solving -----------------------------------------------------------

    def run(self) -> RangeResult:
        in_states = solve_forward(
            self.cfg, self.entry_state(),
            transfer=self._transfer_block,
            join=_join_states, widen=_widen_states,
        )
        # one recording pass over the fixpoint states
        self._recording = True
        for index, state in in_states.items():
            self._transfer_block(self.cfg.blocks[index], state)
        self._recording = False
        return RangeResult(self.cfg, self.facts, in_states,
                           self.branch_conds)

    # -- transfer ----------------------------------------------------------

    def _transfer_block(self, block: BasicBlock, state: _State):
        st = state.copy()
        out: list[tuple] = []
        instrs = block.instrs
        for position, (off, instr) in enumerate(instrs):
            last = position == len(instrs) - 1
            op = instr[0]
            if last and op in ("if", "br_if"):
                cond = st.stack.pop()
                self._record_branch(off, cond)
                for edge in block.edges:
                    branch = self._apply_edge(st, edge, cond)
                    out.append((edge, branch))
                return out
            if last and op == "br_table":
                st.stack.pop()
                for edge in block.edges:
                    out.append((edge, self._apply_edge(st, edge, None)))
                return out
            if op == "br" or op == "return" or op == "unreachable":
                break  # edges below carry the state (or there are none)
            self._step(st, off, instr)
        for edge in block.edges:
            out.append((edge, self._apply_edge(st, edge, None)))
        return out

    def _apply_edge(self, state: _State, edge, cond: AVal | None):
        st = state.copy()
        if cond is not None and cond.cmp is not None:
            taken = edge.kind == "taken"
            if edge.kind in ("taken", "fallthrough"):
                if not self._refine(st, cond, taken):
                    return None  # edge infeasible
        if edge.trunc is not None:
            height, arity = edge.trunc
            kept = st.stack[len(st.stack) - arity:] if arity else []
            st.stack = st.stack[:height] + kept
        return st

    def _refine(self, st: _State, cond: AVal, taken: bool) -> bool:
        kind, lhs, rhs = cond.cmp
        if not taken:
            kind = _NEGATE[kind]
        bounds = _constrain(kind, lhs, rhs)
        if bounds is None:
            return True
        for operand, (lo, hi) in zip((lhs, rhs), bounds):
            if operand.local is None:
                continue
            current = st.locals[operand.local]
            if current.bits == 0:
                continue
            new_lo, new_hi = max(current.lo, lo), min(current.hi, hi)
            if new_lo > new_hi:
                return False  # contradiction: edge cannot be taken
            st.locals[operand.local] = current.replace(lo=new_lo, hi=new_hi)
        return True

    # -- single instruction ------------------------------------------------

    def _step(self, st: _State, off: int, instr: tuple) -> None:
        op = instr[0]
        stack = st.stack

        if op == "local.get":
            index = instr[1]
            stack.append(st.locals[index].replace(local=index, cmp=None))
        elif op == "local.set":
            index = instr[1]
            value = stack.pop()
            st.scrub(index)
            st.locals[index] = value.replace(local=None, cmp=None)
        elif op == "local.tee":
            index = instr[1]
            value = stack[-1]
            st.scrub(index)
            st.locals[index] = value.replace(local=None, cmp=None)
            stack[-1] = value.replace(local=index, cmp=None)
        elif op == "global.get":
            stack.append(AVal.top(self.module.globals[instr[1]].valtype))
        elif op == "global.set":
            stack.pop()
        elif op == "i32.const":
            stack.append(AVal.const(32, int(instr[1])))
        elif op == "i64.const":
            stack.append(AVal.const(64, int(instr[1])))
        elif op == "f32.const" or op == "f64.const":
            stack.append(AVal(0, None, None))
        elif op in LOAD_FMT:
            addr = stack.pop()
            self._record(off, op, instr[2], addr)
            stack.append(self._load_result(op))
        elif op in STORE_FMT:
            stack.pop()  # value
            addr = stack.pop()
            self._record(off, op, instr[2], addr)
        elif op == "drop":
            stack.pop()
        elif op == "select":
            cond = stack.pop()
            b = stack.pop()
            a = stack.pop()
            if cond.lo is not None and cond.lo == cond.hi:
                stack.append((a if cond.lo else b).strip())
            else:
                stack.append(a.strip().join(b.strip()))
        elif op == "call":
            func_type = self.module.func_type_of(instr[1])
            del stack[len(stack) - len(func_type.params):]
            for ty in func_type.results:
                stack.append(AVal.top(ty))
        elif op == "call_indirect":
            func_type = self.module.types[instr[1]]
            del stack[len(stack) - len(func_type.params) - 1:]
            for ty in func_type.results:
                stack.append(AVal.top(ty))
        elif op == "memory.size":
            mem = self.module.memories[0]
            upper = mem.maximum if mem.maximum is not None else 65536
            stack.append(AVal(32, mem.minimum, upper))
        elif op == "memory.grow":
            stack.pop()
            stack.append(AVal(32, -1, 65536))
        elif op == "nop":
            pass
        else:
            self._step_numeric(st, op)

    @staticmethod
    def _load_result(op: str) -> AVal:
        bits = _bits_of(op.split(".", 1)[0])
        special = _LOAD_RESULT_RANGE.get(op)
        return (AVal(bits, special[0], special[1]) if special is not None
                else AVal.top(bits))

    def _record(self, off: int, op: str, imm_offset: int,
                addr: AVal) -> None:
        if not self._recording:
            return
        known = self.facts.get(off)
        snapshot = addr.strip().replace(local=None)
        if known is not None:
            snapshot = known.addr.join(snapshot)
        self.facts[off] = MemAccessFact(op, imm_offset, snapshot)

    def _record_branch(self, off: int, cond: AVal) -> None:
        if not self._recording:
            return
        snapshot = cond.strip().replace(local=None)
        known = self.branch_conds.get(off)
        if known is not None:
            snapshot = known.join(snapshot)
        self.branch_conds[off] = snapshot

    # -- numeric operators -------------------------------------------------

    def _step_numeric(self, st: _State, op: str) -> None:
        stack = st.stack
        prefix, _, kind = op.partition(".")
        bits = _bits_of(prefix)

        if kind in _CMP_KINDS and bits:
            b = stack.pop()
            a = stack.pop()
            cmp = None
            if a.bits and a.bits == b.bits:
                cmp = (kind, a.strip(), b.strip())
            verdict = _decide_cmp(kind, a, b)
            lo, hi = (0, 1) if verdict is None else (verdict, verdict)
            stack.append(AVal(32, lo, hi, cmp=cmp))
            return
        if kind == "eqz":
            a = stack.pop()
            cmp = None
            verdict = None
            if a.bits:
                cmp = ("eq", a.strip(), AVal.const(a.bits, 0))
                verdict = _decide_cmp("eq", a, AVal.const(a.bits, 0))
            lo, hi = (0, 1) if verdict is None else (verdict, verdict)
            stack.append(AVal(32, lo, hi, cmp=cmp))
            return
        if bits and kind in ("add", "sub", "mul", "shl"):
            b = stack.pop()
            a = stack.pop()
            stack.append(_interval_binop(kind, bits, a, b))
            return
        if bits and kind in ("and", "or", "xor"):
            b = stack.pop()
            a = stack.pop()
            stack.append(_interval_bitop(kind, bits, a, b))
            return
        if bits and kind in ("shr_s", "shr_u"):
            b = stack.pop()
            a = stack.pop()
            stack.append(self._shift_right(kind, bits, a, b))
            return
        if bits and kind in ("div_u", "rem_u", "div_s", "rem_s"):
            b = stack.pop()
            a = stack.pop()
            stack.append(self._divide(kind, bits, a, b))
            return
        if op == "i32.wrap_i64":
            a = stack.pop()
            lo, hi = INT_RANGE[32]
            if lo <= a.lo and a.hi <= hi:
                stack.append(AVal(32, a.lo, a.hi))
            else:
                stack.append(AVal.top(32))
            return
        if op == "i64.extend_i32_s":
            a = stack.pop()
            stack.append(AVal(64, a.lo, a.hi))
            return
        if op == "i64.extend_i32_u":
            a = stack.pop()
            if a.lo >= 0:
                stack.append(AVal(64, a.lo, a.hi))
            else:
                stack.append(AVal(64, 0, (1 << 32) - 1))
            return
        if kind in ("clz", "ctz", "popcnt"):
            stack.pop()
            stack.append(AVal(bits, 0, bits))
            return

        # generic fallback: stack shape from the opcode table, top values
        info = OPS[op]
        del stack[len(stack) - len(info.params):]
        for ty in info.results:
            stack.append(AVal.top(ty))

    @staticmethod
    def _shift_right(kind: str, bits: int, a: AVal, b: AVal) -> AVal:
        if b.lo == b.hi and 0 <= b.lo < bits:
            shift = b.lo
            if a.lo >= 0:
                return AVal(bits, a.lo >> shift, a.hi >> shift)
            if kind == "shr_u" and shift > 0:
                unsigned_max = (1 << bits) - 1
                return AVal(bits, 0, unsigned_max >> shift)
            if kind == "shr_s":
                return AVal(bits, a.lo >> shift, a.hi >> shift)
        if kind == "shr_u":
            return AVal(bits, *INT_RANGE[bits]) if bits else AVal.top(bits)
        return AVal.top(bits)

    @staticmethod
    def _divide(kind: str, bits: int, a: AVal, b: AVal) -> AVal:
        if kind == "rem_u" and b.lo == b.hi and b.lo > 0:
            return AVal(bits, 0, b.lo - 1)
        if kind == "div_u" and b.lo == b.hi and b.lo > 0 and a.lo >= 0:
            return AVal(bits, a.lo // b.lo, a.hi // b.lo)
        return AVal.top(bits)


def analyze_ranges(module: Module, func: Function,
                   cfg: CFG | None = None) -> RangeResult:
    """Run the interval analysis over one validated function."""
    return RangeAnalysis(module, func, cfg).run()
