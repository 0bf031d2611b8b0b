"""Data-centric translation of physical plans to HIR (HyPer's compiler).

Mirrors the Wasm backend's pipeline-wise code generation, with the
crucial architectural difference the paper analyzes (Listing 3, Section
5.1): complex operators use the **pre-compiled runtime library** through
a type-agnostic interface — one ``call`` per hash-table insert, probe,
and sort comparison — instead of generating specialized inline code.
Scalar expressions, filters, and aggregate arithmetic compile inline,
as HyPer's data-centric codegen does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engines.hyper.hir import HirFunction
from repro.errors import PlanError
from repro.plan import exprs as E
from repro.plan import physical as P
from repro.plan.pipeline import Pipeline, dissect_into_pipelines

__all__ = ["HirProgram", "HirPipeline", "generate_hir"]


@dataclass
class HirPipeline:
    function: HirFunction
    source_kind: str     # "scan" | "indexseek" | "group" | "scalar" | "sort"
    source_name: str     # binding or structure id
    sort_before: int | None = None   # sort id to run first
    is_final: bool = False
    limit_id: int | None = None
    limit_total: int | None = None
    # index seek bounds: (key_column, low, high, low_strict, high_strict)
    seek: tuple | None = None


@dataclass
class HirProgram:
    """Everything the HyPer engine needs to run one query."""

    pipelines: list[HirPipeline]
    columns: list[tuple[str, str]]          # col_id -> (binding, column)
    structures: list[tuple[str, dict]]      # id -> (kind, config)
    output_types: list = field(default_factory=list)


class _FunctionBuilder:
    """Emission helper for one HIR function."""

    def __init__(self, name: str, n_params: int):
        self.name = name
        self.n_params = n_params
        self.n_registers = n_params
        self.body: list = []
        self._stack = [self.body]

    def reg(self) -> int:
        index = self.n_registers
        self.n_registers += 1
        return index

    def emit(self, *instr) -> None:
        self._stack[-1].append(tuple(instr))

    def const(self, value) -> int:
        dst = self.reg()
        self.emit("const", dst, value)
        return dst

    def binop(self, kind: str, a: int, b: int, ty: str = "i64") -> int:
        dst = self.reg()
        self.emit("bin", kind, dst, a, b, ty)
        return dst

    def call(self, name: str, args: list[int], want_result=True):
        dst = self.reg() if want_result else None
        self.emit("call", dst, name, list(args))
        return dst

    # structured regions
    class _Region:
        def __init__(self, builder, instr):
            self.builder = builder
            self.instr = instr

        def __enter__(self):
            self.builder._stack.append(self.instr[1])  # loop body
            return self

        def __exit__(self, *exc):
            self.builder._stack.pop()

    def loop(self):
        instr = ("loop", [])
        self._stack[-1].append(instr)
        return self._Region(self, instr)

    class _IfRegion:
        def __init__(self, builder, instr):
            self.builder = builder
            self.instr = instr

        def __enter__(self):
            self.builder._stack.append(self.instr[2])  # then-branch
            return self

        def __exit__(self, *exc):
            self.builder._stack.pop()

    def if_(self, cond: int):
        instr = ("if", cond, [], [])
        self._stack[-1].append(instr)
        return self._IfRegion(self, instr)

    def finish(self) -> HirFunction:
        return HirFunction(self.name, self.n_params, self.n_registers,
                           self.body)


class _ExprGen:
    """LExpr -> HIR, values in registers."""

    def __init__(self, fb: _FunctionBuilder, slots: list[int]):
        self.fb = fb
        self.slots = slots

    def gen(self, expr: E.LExpr) -> int:
        fb = self.fb
        if isinstance(expr, E.Slot):
            return self.slots[expr.index]
        if isinstance(expr, E.Const):
            value = expr.value
            if isinstance(value, bytes):
                # column values arrive NUL-stripped (NumPy S-dtype lists)
                value = value.rstrip(b"\x00")
            return fb.const(value)
        if isinstance(expr, E.Param):
            if expr.value is None:
                raise PlanError(f"parameter ${expr.index} is unbound")
            value = expr.value
            if isinstance(value, bytes):
                value = value.rstrip(b"\x00")
            return fb.const(value)
        if isinstance(expr, E.Arith):
            a = self.gen(expr.left)
            b = self.gen(expr.right)
            ty = "f64" if expr.ty.is_floating else "i64"
            return fb.binop(expr.op, a, b, ty)
        if isinstance(expr, E.Compare):
            a = self.gen(expr.left)
            b = self.gen(expr.right)
            op = {"=": "==", "<>": "!="}.get(expr.op, expr.op)
            # strings arrive as NUL-stripped bytes from the column lists
            # and as unpadded literals, so plain byte comparison matches
            # the padded semantics of the other engines
            return fb.binop(op, a, b, "i64")
        if isinstance(expr, E.Logic):
            a = self.gen(expr.left)
            b = self.gen(expr.right)
            return fb.binop("&" if expr.op == "AND" else "|", a, b, "i64")
        if isinstance(expr, E.Not):
            dst = fb.reg()
            fb.emit("not", dst, self.gen(expr.operand))
            return dst
        if isinstance(expr, E.Neg):
            dst = fb.reg()
            fb.emit("neg", dst, self.gen(expr.operand))
            return dst
        if isinstance(expr, E.Promote):
            dst = fb.reg()
            kind = "cast_float" if expr.ty.is_floating else "cast_int"
            fb.emit(kind, dst, self.gen(expr.operand))
            return dst
        if isinstance(expr, E.Case):
            dst = fb.reg()
            self._gen_case(expr, list(expr.whens), dst)
            return dst
        if isinstance(expr, E.Like):
            dst = fb.reg()
            fb.emit("like", dst, self.gen(expr.operand), expr.kind,
                    expr.pattern, expr.negated)
            return dst
        if isinstance(expr, E.Extract):
            dst = fb.reg()
            fb.emit("extract", dst, self.gen(expr.operand), expr.part)
            return dst
        raise PlanError(f"hyper cannot compile {type(expr).__name__}")

    def _gen_case(self, expr: E.Case, whens: list, dst: int) -> None:
        fb = self.fb
        if not whens:
            fb.emit("mov", dst, self.gen(expr.else_))
            return
        cond, value = whens[0]
        cond_reg = self.gen(cond)
        instr = ("if", cond_reg, [], [])
        fb._stack[-1].append(instr)
        fb._stack.append(instr[2])
        fb.emit("mov", dst, self.gen(value))
        fb._stack.pop()
        fb._stack.append(instr[3])
        self._gen_case(expr, whens[1:], dst)
        fb._stack.pop()


class _HirGenerator:
    def __init__(self):
        self.columns: list[tuple[str, str]] = []
        self._column_ids: dict[tuple[str, str], int] = {}
        self.structures: list[tuple[str, dict]] = []
        self._structure_ids: dict[int, int] = {}

    def column_id(self, binding: str, column: str) -> int:
        key = (binding, column)
        if key not in self._column_ids:
            self._column_ids[key] = len(self.columns)
            self.columns.append(key)
        return self._column_ids[key]

    def structure_id(self, op, kind: str, config: dict) -> int:
        if id(op) not in self._structure_ids:
            self._structure_ids[id(op)] = len(self.structures)
            self.structures.append((kind, config))
        return self._structure_ids[id(op)]

    # -- pipelines ----------------------------------------------------------

    def generate(self, plan: P.PhysicalOperator) -> HirProgram:
        pipelines = []
        for pipe in dissect_into_pipelines(plan):
            pipelines.append(self._gen_pipeline(pipe))
        return HirProgram(pipelines, self.columns, self.structures,
                          output_types=plan.output_types)

    def _gen_pipeline(self, pipe: Pipeline) -> HirPipeline:
        fb = _FunctionBuilder(f"p{pipe.index}", n_params=2)  # begin, end
        info = HirPipeline(None, "scan", "", is_final=pipe.sink is None)

        def body(slots: list[int]) -> None:
            self._gen_operators(fb, pipe.operators, slots, pipe, info)

        self._gen_source(fb, pipe.source, info, body)
        fb.emit("ret")
        info.function = fb.finish()
        return info

    def _gen_source(self, fb, source, info, body) -> None:
        if isinstance(source, P.IndexSeek):
            info.source_kind = "indexseek"
            info.source_name = source.binding
            info.seek = (source.key_column, source.low, source.high,
                         source.low_strict, source.high_strict)
            rowid_col = self.column_id(
                source.binding, f"__index_rowids__{source.key_column}"
            )
            pos = fb.reg()
            fb.emit("mov", pos, 0)  # pos = begin (parameter register 0)
            with fb.loop():
                done = fb.binop(">=", pos, 1)
                with fb.if_(done):
                    fb.emit("break", 0)
                rowid = fb.reg()
                fb.emit("loadcol", rowid, rowid_col, pos)
                slots = []
                for col in source.output:
                    dst = fb.reg()
                    col_id = self.column_id(*col.ref)
                    fb.emit("loadcol", dst, col_id, rowid)
                    slots.append(dst)
                body(slots)
                one = fb.const(1)
                fb.emit("bin", "+", pos, pos, one, "i64")
            return
        if isinstance(source, P.SeqScan):
            info.source_kind = "scan"
            info.source_name = source.binding
            row = fb.reg()
            fb.emit("mov", row, 0)  # row = begin (parameter register 0)
            with fb.loop():
                done = fb.binop(">=", row, 1)
                with fb.if_(done):
                    fb.emit("break", 0)
                slots = []
                for col in source.output:
                    dst = fb.reg()
                    col_id = self.column_id(*col.ref)
                    fb.emit("loadcol", dst, col_id, row)
                    slots.append(dst)
                body(slots)
                one = fb.const(1)
                fb.emit("bin", "+", row, row, one, "i64")
            return
        if isinstance(source, (P.HashGroupBy, P.ScalarAggregate, P.Sort)):
            kind, fetch = {
                P.HashGroupBy: ("group", "group_entries"),
                P.ScalarAggregate: ("scalar", "agg_entries"),
                P.Sort: ("sort", "sort_rows"),
            }[type(source)]
            sid = self._structure_ids[id(source)]
            info.source_kind = kind
            info.source_name = str(sid)
            if kind == "sort":
                info.sort_before = sid
            sid_reg = fb.const(sid)
            entries = fb.call(fetch, [sid_reg])
            index = fb.reg()
            fb.emit("mov", index, 0)  # index = begin (parameter register 0)
            with fb.loop():
                done = fb.binop(">=", index, 1)
                with fb.if_(done):
                    fb.emit("break", 0)
                row = fb.reg()
                fb.emit("getitem", row, entries, index)
                slots = []
                for j in range(len(source.output)):
                    dst = fb.reg()
                    jr = fb.const(j)
                    fb.emit("getitem", dst, row, jr)
                    slots.append(dst)
                body(slots)
                one = fb.const(1)
                fb.emit("bin", "+", index, index, one, "i64")
            return
        raise PlanError(
            f"hyper cannot source from {type(source).__name__}"
        )

    def _gen_operators(self, fb, ops, slots, pipe, info) -> None:
        if not ops:
            self._gen_sink(fb, pipe.sink, slots, info)
            return
        op, rest = ops[0], ops[1:]

        def continue_with(next_slots):
            self._gen_operators(fb, rest, next_slots, pipe, info)

        if isinstance(op, P.Filter):
            cond = _ExprGen(fb, slots).gen(op.predicate)
            with fb.if_(cond):
                continue_with(slots)
            return
        if isinstance(op, P.Project):
            gen = _ExprGen(fb, slots)
            continue_with([gen.gen(e) for e in op.exprs])
            return
        if isinstance(op, P.HashJoin):
            self._gen_probe(fb, op, slots, continue_with)
            return
        if isinstance(op, P.NestedLoopJoin):
            self._gen_nlj_probe(fb, op, slots, continue_with)
            return
        if isinstance(op, P.Limit):
            lid = self.structure_id(op, "limit", {
                "offset": op.offset, "limit": op.limit,
            })
            info.limit_id = lid
            info.limit_total = ((op.limit or 0) + op.offset
                                if op.limit is not None else None)
            lid_reg = fb.const(lid)
            keep = fb.call("limit_admit", [lid_reg])
            with fb.if_(keep):
                continue_with(slots)
            return
        raise PlanError(f"hyper cannot stream {type(op).__name__}")

    def _gen_probe(self, fb, op: P.HashJoin, slots, continue_with) -> None:
        sid = self.structure_id(op, "join", {
            "n_keys": len(op.build_keys),
            "n_cols": len(op.build.output),
            "estimate": int(op.build.estimated_rows),
        })
        gen = _ExprGen(fb, slots)
        key_regs = [gen.gen(k) for k in op.probe_keys]
        sid_reg = fb.const(sid)
        matches = fb.call("join_probe", [sid_reg] + key_regs)
        count = fb.reg()
        fb.emit("len", count, matches)
        index = fb.reg()
        fb.emit("const", index, 0)
        with fb.loop():
            done = fb.binop(">=", index, count)
            with fb.if_(done):
                fb.emit("break", 0)
            row = fb.reg()
            fb.emit("getitem", row, matches, index)
            build_slots = []
            for j in range(len(op.build.output)):
                dst = fb.reg()
                jr = fb.const(j)
                fb.emit("getitem", dst, row, jr)
                build_slots.append(dst)
            combined = build_slots + slots
            if op.residual is not None:
                cond = _ExprGen(fb, combined).gen(op.residual)
                with fb.if_(cond):
                    continue_with(combined)
            else:
                continue_with(combined)
            one = fb.const(1)
            fb.emit("bin", "+", index, index, one, "i64")

    def _gen_nlj_probe(self, fb, op: P.NestedLoopJoin, slots,
                       continue_with) -> None:
        sid = self.structure_id(op, "nlj", {
            "n_cols": len(op.left.output),
        })
        sid_reg = fb.const(sid)
        rows = fb.call("nlj_rows", [sid_reg])
        count = fb.reg()
        fb.emit("len", count, rows)
        index = fb.reg()
        fb.emit("const", index, 0)
        with fb.loop():
            done = fb.binop(">=", index, count)
            with fb.if_(done):
                fb.emit("break", 0)
            row = fb.reg()
            fb.emit("getitem", row, rows, index)
            left_slots = []
            for j in range(len(op.left.output)):
                dst = fb.reg()
                jr = fb.const(j)
                fb.emit("getitem", dst, row, jr)
                left_slots.append(dst)
            combined = left_slots + slots
            if op.predicate is not None:
                cond = _ExprGen(fb, combined).gen(op.predicate)
                with fb.if_(cond):
                    continue_with(combined)
            else:
                continue_with(combined)
            one = fb.const(1)
            fb.emit("bin", "+", index, index, one, "i64")

    # -- sinks ----------------------------------------------------------------

    def _gen_sink(self, fb, sink, slots, info) -> None:
        if sink is None:
            fb.emit("result", list(slots))
            return
        gen = _ExprGen(fb, slots)
        if isinstance(sink, P.HashJoin):
            sid = self.structure_id(sink, "join", {
                "n_keys": len(sink.build_keys),
                "n_cols": len(sink.build.output),
                "estimate": int(sink.build.estimated_rows),
            })
            key_regs = [gen.gen(k) for k in sink.build_keys]
            sid_reg = fb.const(sid)
            fb.call("join_insert", [sid_reg] + key_regs + list(slots),
                    want_result=False)
            return
        if isinstance(sink, P.HashGroupBy):
            sid = self.structure_id(sink, "group", {
                "aggregates": list(sink.aggregates),
                "estimate": int(sink.estimated_rows),
            })
            key_regs = [gen.gen(k) for k in sink.keys]
            sid_reg = fb.const(sid)
            entry = fb.call("group_upsert", [sid_reg] + key_regs)
            self._gen_agg_updates(fb, sink.aggregates, entry, slots)
            return
        if isinstance(sink, P.ScalarAggregate):
            sid = self.structure_id(sink, "scalar", {
                "aggregates": list(sink.aggregates),
            })
            sid_reg = fb.const(sid)
            entry = fb.call("agg_state", [sid_reg])
            self._gen_agg_updates(fb, sink.aggregates, entry, slots)
            return
        if isinstance(sink, P.Sort):
            sid = self.structure_id(sink, "sort", {
                "descending": [d for _, d in sink.order],
                "n_cols": len(sink.child.output),
            })
            key_regs = [gen.gen(k) for k, _ in sink.order]
            sid_reg = fb.const(sid)
            fb.call("sort_append", [sid_reg] + list(slots) + key_regs,
                    want_result=False)
            return
        if isinstance(sink, P.NestedLoopJoin):
            sid = self.structure_id(sink, "nlj", {
                "n_cols": len(sink.left.output),
            })
            sid_reg = fb.const(sid)
            fb.call("nlj_append", [sid_reg] + list(slots),
                    want_result=False)
            return
        raise PlanError(f"hyper cannot sink into {type(sink).__name__}")

    def _gen_agg_updates(self, fb, aggregates, entry, slots) -> None:
        """Aggregate maintenance compiles inline (only the table access
        went through the library, as in HyPer): one update per state
        field of each aggregate's row."""
        gen = _ExprGen(fb, slots)
        offset = 0
        for agg in aggregates:
            fields = agg.row.fields
            value = None if all(f.update == "count" for f in fields) \
                else gen.gen(agg.arg)
            for f in fields:
                cur = fb.reg()
                fb.emit("getitem", cur, entry, fb.const(offset))
                if f.update in ("min", "max"):
                    cmp = fb.binop("<" if f.update == "min" else ">",
                                   value, cur)
                    with fb.if_(cmp):
                        fb.emit("setitem", entry, offset, value)
                else:
                    ty = "f64" if f.acc_type(agg).is_floating else "i64"
                    step = fb.const(1) if f.update == "count" else value
                    fb.emit("setitem", entry, offset,
                            fb.binop("+", cur, step, ty))
                offset += 1

def generate_hir(plan: P.PhysicalOperator) -> HirProgram:
    """Physical plan -> HIR program (the QEP -> LLVM-IR translation)."""
    return _HirGenerator().generate(plan)
