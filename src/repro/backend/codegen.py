"""Data-centric compilation of physical plans to WebAssembly (Section 4).

Every pipeline of the dissected plan becomes one exported Wasm function
``pipeline_i(begin, end)`` that processes the source rows ``[begin,
end)`` — the *morsel* the host hands it.  Tuples are pushed through the
whole pipeline in registers (Wasm locals); pipeline breakers
materialize into ad-hoc generated hash tables
(:mod:`repro.backend.hashtable`) or sort arrays
(:mod:`repro.backend.sort`).

The result protocol mirrors Figure 5: the final pipeline writes packed
rows into the rewired result window and bumps the exported
``result_count`` global; when the window fills, the generated code calls
the imported ``env.flush_results`` so the host can drain and reset it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from repro.backend.context import (
    CompilerContext,
    MemoryPlan,
    RESULT_REGION_SIZE,
)
from repro.backend.expr import ExprCompiler, SlotValue
from repro.backend.hashtable import GeneratedHashTable
from repro.backend.layout import TupleLayout
from repro.backend.sort import GeneratedSort
from repro.errors import PlanError
from repro.observability.trace import trace_span
from repro.plan import physical as P
from repro.plan import exprs as E
from repro.plan.exprs import Aggregate, Slot, walk_lexpr
from repro.plan.pipeline import Pipeline, dissect_into_pipelines
from repro.sql import types as T
from repro.wasm.builder import FunctionBuilder

__all__ = ["QueryCompiler", "CompiledQuery", "PipelineInfo"]


def _slot_indices(*exprs) -> set[int]:
    """Slot indices referenced by any of ``exprs`` (``None`` entries ok)."""
    used: set[int] = set()
    for expr in exprs:
        if expr is None:
            continue
        for node in walk_lexpr(expr):
            if isinstance(node, Slot):
                used.add(node.index)
    return used


def _conjuncts(expr):
    if isinstance(expr, E.Logic) and expr.op == "AND":
        yield from _conjuncts(expr.left)
        yield from _conjuncts(expr.right)
    else:
        yield expr


def _is_deferrable(conjunct) -> bool:
    """Does ``conjunct`` compile to calls or branches (string compares,
    ``LIKE``, ``EXTRACT``, ``CASE``) that are worth skipping for rows the
    cheap conjuncts reject — and can it be skipped?  A conjunct that may
    trap (integer ``/`` ``%``, float -> integer) is evaluated for every
    row, as it always was: ``y <> 0 AND x / y > 4`` traps on Wasm."""
    costly = False
    for node in walk_lexpr(conjunct):
        if isinstance(node, E.Arith):
            if node.op in "/%" and node.ty.wasm_type != "f64":
                return False
        elif isinstance(node, E.Promote):
            if (node.operand.ty.wasm_type == "f64"
                    and node.ty.wasm_type != "f64"):
                return False
        elif isinstance(node, (E.Like, E.Extract, E.Case)) or (
                isinstance(node, E.Compare) and node.left.ty.is_string):
            costly = True
    return costly


def split_predicate(predicate):
    """A filter predicate's top-level ``AND`` as ``(cheap, costly)``:
    the conjuncts whose code is call-free and branch-free, and the ones
    worth evaluating only for rows that pass those (see
    :func:`_is_deferrable`); either is ``None`` when it would be empty."""
    groups: tuple[list, list] = ([], [])
    for conjunct in _conjuncts(predicate):
        groups[_is_deferrable(conjunct)].append(conjunct)
    return tuple(
        reduce(lambda left, right: E.Logic("AND", left, right), group)
        if group else None for group in groups)


def pipeline_shape(pipe: Pipeline, memory) -> str:
    """The backend-level *operator shape* of one pipeline.

    Operator kind x column types x layout, as a stable string: what the
    generated code is a function of, independent of the data it runs
    over (literals, row counts, addresses).  Two queries with equal
    pipeline shapes compile to structurally identical Wasm, which is
    why the tier-0 stencil cache — keyed by a digest of that code —
    hits across them.  This descriptor is the human-readable face of
    that sharing, surfaced per pipeline in ``EXPLAIN ANALYZE``.
    """
    def one(op, role):
        kind = type(op).__name__
        if isinstance(op, P.SeqScan):
            cols = ",".join(
                f"{name}:{col.ty}"
                for name, col in zip(op.columns, op.output)
            )
            chunked = "chunked" if memory is not None and \
                memory.extent_rows.get(op.binding, 0) < \
                memory.row_counts.get(op.binding, 0) else "whole"
            return f"{kind}({cols};{chunked})"
        if isinstance(op, P.IndexSeek):
            return f"{kind}({op.key_column})"
        types = ",".join(str(c.ty) for c in getattr(op, "output", ()) or ())
        return f"{kind}[{types}]" if types and role != "sink" else kind

    stages = [one(pipe.source, "source")]
    stages += [one(op, "stream") for op in pipe.operators]
    stages.append(one(pipe.sink, "sink") if pipe.sink is not None
                  else "Result")
    return " -> ".join(stages)


@dataclass
class PipelineInfo:
    """What the host driver needs to run one pipeline."""

    index: int
    function: str                 # exported function name
    source_kind: str              # scan | indexseek | hashtable | sort | scalar
    source_name: str              # binding / ht name / sort name
    sort_before: str | None = None  # exported sort driver to call first
    is_final: bool = False
    # sink-side cardinality accounting (for EXPLAIN ANALYZE): the
    # generated structure this pipeline feeds, whose exported
    # ``{sink_name}_count`` global holds the rows it produced.  ``scalar``
    # sinks have no count global (always exactly one state row).
    sink_kind: str | None = None  # hashtable | sort | materialize | scalar
    sink_name: str | None = None
    limit_global: str | None = None   # exported row counter for early stop
    limit_total: int | None = None    # offset + limit
    # index-seek bounds for the host's position lookup:
    # (key_column, low, high, low_strict, high_strict)
    seek: tuple | None = None
    #: The operator-shape descriptor (see :func:`pipeline_shape`).
    shape: str = ""


@dataclass
class CompiledQuery:
    """The output of query compilation, consumed by the Wasm engine."""

    module: object
    pipelines: list[PipelineInfo]
    result_layout: TupleLayout
    result_capacity: int
    output_types: list[T.DataType]
    generic_patterns: list[str]
    memory: MemoryPlan
    # $index -> (slot address, type): where the host writes bound
    # parameter values before each execution (empty for plain queries)
    param_layout: dict[int, tuple] = None


class QueryCompiler:
    """Compiles one physical plan into one Wasm module."""

    def __init__(self, memory: MemoryPlan, short_circuit: bool = False,
                 inline_adhoc: bool = True, predication: bool = False):
        """``inline_adhoc=False`` is the ablation of Section 4.3/5: hash
        table and comparison code stays specialized but is invoked through
        per-access function calls (the pre-compiled-library discipline)
        instead of being inlined at the call site.

        ``predication=True`` compiles selections feeding a scalar
        aggregation *branch-free*: the predicate becomes a 0/1 mask
        multiplied into the aggregate updates (Section 4.2 discusses this
        if-conversion; the paper's mutable does not implement it, and
        HyPer's flat Figure-6 curves are attributed to exactly this)."""
        self.memory = memory
        self.inline_adhoc = inline_adhoc
        self.predication = predication
        self.ctx = CompilerContext("query", memory,
                                   short_circuit=short_circuit,
                                   inline_adhoc=inline_adhoc)
        # per-breaker generated structures
        self._hash_tables: dict[int, GeneratedHashTable] = {}
        self._ht_functions: dict[int, dict[str, int]] = {}
        self._sorts: dict[int, GeneratedSort] = {}
        self._materialized: dict[int, GeneratedSort] = {}
        self._scalar_states: dict[int, tuple] = {}
        self._limit_globals: dict[int, tuple[int, str]] = {}
        self._counter = 0

    # ------------------------------------------------------------------ api --

    def compile(self, plan: P.PhysicalOperator,
                trace=None) -> CompiledQuery:
        pipelines = dissect_into_pipelines(plan)
        for pipe in pipelines:
            self._declare_breakers(pipe)

        result_layout = TupleLayout([
            (f"o{i}", col.ty) for i, col in enumerate(plan.output)
        ])
        result_capacity = max(1, RESULT_REGION_SIZE // result_layout.stride)

        infos = []
        for pipe in pipelines:
            with trace_span(trace, "codegen.pipeline", pipeline=pipe.index):
                infos.append(
                    self._compile_pipeline(pipe, result_layout,
                                           result_capacity)
                )
        module = self.ctx.finish()
        return CompiledQuery(
            module=module,
            pipelines=infos,
            result_layout=result_layout,
            result_capacity=result_capacity,
            output_types=plan.output_types,
            generic_patterns=self.ctx.generic_patterns,
            memory=self.memory,
            param_layout=self.ctx.param_layout,
        )

    # -------------------------------------------------- breaker declarations --

    def _declare_breakers(self, pipe: Pipeline) -> None:
        """Create the generated structures for the pipeline's sink and any
        joins it probes, before function bodies reference them."""
        candidates = [pipe.sink] if pipe.sink is not None else []
        candidates += [op for op in pipe.operators
                       if isinstance(op, (P.HashJoin, P.NestedLoopJoin))]
        candidates.append(pipe.source)
        for op in candidates:
            if op is None or id(op) in self._hash_tables \
                    or id(op) in self._sorts or id(op) in self._scalar_states \
                    or id(op) in self._materialized:
                continue
            if isinstance(op, P.HashJoin):
                self._declare_join_table(op)
            elif isinstance(op, P.HashGroupBy):
                self._declare_group_table(op)
            elif isinstance(op, P.ScalarAggregate):
                self._declare_scalar_state(op)
            elif isinstance(op, P.Sort):
                self._declare_sort(op)
            elif isinstance(op, P.NestedLoopJoin):
                self._declare_materialized(op)

    def _fresh_name(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def _declare_join_table(self, op: P.HashJoin) -> None:
        key_types = [k.ty for k in op.build_keys]
        payload = [
            (f"c{i}", col.ty, None) for i, col in enumerate(op.build.output)
        ]
        ht = GeneratedHashTable(
            self.ctx, self._fresh_name("jht"), key_types, payload,
            estimate=int(op.build.estimated_rows),
        )
        self._hash_tables[id(op)] = ht

    def _declare_group_table(self, op: P.HashGroupBy) -> None:
        key_types = [k.ty for k in op.keys]
        payload = []
        for i, agg in enumerate(op.aggregates):
            payload += _aggregate_payload(i, agg)
        ht = GeneratedHashTable(
            self.ctx, self._fresh_name("ght"), key_types, payload,
            estimate=int(op.estimated_rows),
        )
        self._hash_tables[id(op)] = ht

    def _declare_scalar_state(self, op: P.ScalarAggregate) -> None:
        payload = []
        for i, agg in enumerate(op.aggregates):
            payload += _aggregate_payload(i, agg)
        layout = TupleLayout(
            [(name, ty) for name, ty, _ in payload]
        )
        g_state = self.ctx.mb.add_global(
            "i32", 0, name=self._fresh_name("aggstate")
        )

        def init(fb: FunctionBuilder, layout=layout, g_state=g_state,
                 payload=payload):
            fb.i32(layout.stride).call(self.ctx.alloc_function())
            fb.emit("global.set", g_state)
            state = fb.local("i32", "state")
            fb.emit("global.get", g_state).set(state)
            for name, ty, init_value in payload:
                fld = layout.field(name)
                fb.get(state)
                fb.const(ty.wasm_type, init_value)
                fb.emit(fld.store_op, 0, fld.offset)

        self.ctx.add_init(init)
        self._scalar_states[id(op)] = (g_state, layout, payload)

    def _declare_sort(self, op: P.Sort) -> None:
        row_fields = [
            (f"c{i}", col.ty) for i, col in enumerate(op.child.output)
        ]
        # a sort key that is a plain column reuses the row's field
        key_fields = [
            (f"c{key.index}" if isinstance(key, Slot) else f"s{j}",
             key.ty, descending)
            for j, (key, descending) in enumerate(op.order)
        ]
        sorter = GeneratedSort(
            self.ctx, self._fresh_name("sort"), row_fields, key_fields,
            estimate=int(op.child.estimated_rows),
        )
        self._sorts[id(op)] = sorter

    def _declare_materialized(self, op: P.NestedLoopJoin) -> None:
        row_fields = [
            (f"c{i}", col.ty) for i, col in enumerate(op.left.output)
        ]
        array = GeneratedSort(
            self.ctx, self._fresh_name("mat"), row_fields, [],
            estimate=int(op.left.estimated_rows),
        )
        self._materialized[id(op)] = array

    # ------------------------------------------------------ pipeline bodies --

    def _compile_pipeline(self, pipe: Pipeline, result_layout: TupleLayout,
                          result_capacity: int) -> PipelineInfo:
        fb = self.ctx.mb.function(
            f"pipeline_{pipe.index}",
            params=[("i32", "begin"), ("i32", "end")],
            export=True,
        )
        expr_compiler = ExprCompiler(self.ctx, fb, [])
        info = PipelineInfo(
            index=pipe.index,
            function=f"pipeline_{pipe.index}",
            source_kind="scan",
            source_name="",
            is_final=pipe.sink is None,
            shape=pipeline_shape(pipe, self.memory),
        )
        sink = pipe.sink
        if sink is not None:
            key = id(sink)
            if key in self._hash_tables:
                info.sink_kind = "hashtable"
                info.sink_name = self._hash_tables[key].name
            elif key in self._sorts:
                info.sink_kind = "sort"
                info.sink_name = self._sorts[key].name
            elif key in self._materialized:
                info.sink_kind = "materialize"
                info.sink_name = self._materialized[key].name
            elif key in self._scalar_states:
                info.sink_kind = "scalar"

        def body(slots: list[SlotValue]) -> None:
            expr_compiler.slots = slots
            self._emit_operators(
                fb, expr_compiler, pipe.operators, slots, pipe, info,
                result_layout, result_capacity,
            )

        self._emit_source(fb, expr_compiler, pipe, info, body)
        return info

    # -- sources ----------------------------------------------------------------

    def _emit_source(self, fb: FunctionBuilder, expr_compiler,
                     pipe: Pipeline, info: PipelineInfo,
                     body) -> None:
        source = pipe.source
        if isinstance(source, P.SeqScan):
            info.source_kind = "scan"
            info.source_name = source.binding
            self._declare_extent(fb, source.binding)
            self._emit_scan_loop(fb, source, body)
            return
        if isinstance(source, P.IndexSeek):
            info.source_kind = "indexseek"
            info.source_name = source.binding
            self._declare_extent(fb, source.binding)
            info.seek = (source.key_column, source.low, source.high,
                         source.low_strict, source.high_strict)
            self._emit_index_seek_loop(fb, source, body)
            return
        if isinstance(source, P.HashGroupBy):
            ht = self._hash_tables[id(source)]
            info.source_kind = "hashtable"
            info.source_name = ht.name
            self._emit_group_iteration(fb, source, ht, body)
            return
        if isinstance(source, P.ScalarAggregate):
            info.source_kind = "scalar"
            info.source_name = "state"
            self._emit_scalar_read(fb, source, body)
            return
        if isinstance(source, P.Sort):
            sorter = self._sorts[id(source)]
            info.source_kind = "sort"
            info.source_name = sorter.name
            info.sort_before = f"{sorter.name}_sort"
            keep = self._used_slot_indices(pipe.operators, pipe.sink)
            self._emit_array_iteration(fb, source.child.output, sorter, body,
                                       keep)
            # ensure the sort driver exists
            sorter.sort_driver(expr_compiler)
            return
        raise PlanError(
            f"cannot use {type(source).__name__} as a pipeline source"
        )

    def _declare_extent(self, fb: FunctionBuilder, binding: str) -> None:
        """Declare the host's morsel contract ``0 <= begin, end <= extent``
        on a ``pipeline_i(begin, end)`` — the hint that lets the interval
        analysis bound every row address and lets TurboFan elide the
        per-access bounds checks of the scan loop."""
        extent = self.memory.extent_rows.get(binding)
        if extent is not None:
            fb.param_range(0, 0, extent)
            fb.param_range(1, 0, extent)

    def _declare_load_range(self, fb: FunctionBuilder, binding: str,
                            column: str, load_op: str) -> None:
        """Declare the host's value contract on the column load just
        emitted — the catalog-statistics bounds collected into
        ``MemoryPlan.value_ranges`` by the plan analysis.  Integer loads
        only: float intervals carry no elision value and the interval
        domain is integral."""
        if not load_op.startswith(("i32", "i64")):
            return
        bounds = self.memory.value_ranges.get((binding, column))
        if bounds is not None:
            fb.value_range(*bounds)

    def _emit_scan_loop(self, fb: FunctionBuilder, scan: P.SeqScan,
                        body) -> None:
        """The tight per-morsel scan loop: row in [begin, end)."""
        row = fb.local("i32", "row")
        fb.get(0).set(row)
        with fb.block() as done:
            with fb.loop() as top:
                fb.get(row).get(1).emit("i32.ge_s")
                fb.br_if(done)
                slots = []
                for col in scan.output:
                    binding, column = col.ref
                    base = self.memory.column_address(binding, column)
                    local = fb.local(
                        col.ty.wasm_type if not col.ty.is_string else "i32",
                        f"v_{column}",
                    )
                    if col.ty.is_string:
                        fb.get(row).i32(col.ty.size).emit("i32.mul")
                        fb.i32(base).emit("i32.add").set(local)
                    else:
                        size = col.ty.size
                        fb.get(row).i32(size).emit("i32.mul")
                        load_op = {
                            ("i32", 1): "i32.load8_s",
                            ("i32", 4): "i32.load",
                            ("i64", 8): "i64.load",
                            ("f64", 8): "f64.load",
                        }[(col.ty.wasm_type, size)]
                        fb.emit(load_op, 0, base)
                        self._declare_load_range(fb, binding, column, load_op)
                        fb.set(local)
                    slots.append(SlotValue(local, col.ty))
                body(slots)
                fb.get(row).i32(1).emit("i32.add").set(row)
                fb.br(top)

    def _emit_index_seek_loop(self, fb: FunctionBuilder,
                              seek: P.IndexSeek, body) -> None:
        """Positions [begin, end) walk the rewired index permutation; the
        row id indirection makes every column access a random load — the
        'non-consecutive data structure mapped into the VM' the paper
        left as future work, solved here because the index is two
        contiguous arrays the rewiring layer can alias."""
        rowid_base = self.memory.column_address(
            seek.binding, f"__index_rowids__{seek.key_column}"
        )
        pos = fb.local("i32", "pos")
        rowid = fb.local("i32", "rowid")
        fb.get(0).set(pos)
        with fb.block() as done:
            with fb.loop() as top:
                fb.get(pos).get(1).emit("i32.ge_s")
                fb.br_if(done)
                fb.get(pos).i32(4).emit("i32.mul")
                fb.emit("i32.load", 0, rowid_base)
                self._declare_load_range(
                    fb, seek.binding, f"__index_rowids__{seek.key_column}",
                    "i32.load",
                )
                fb.set(rowid)
                slots = []
                for col in seek.output:
                    binding, column = col.ref
                    base = self.memory.column_address(binding, column)
                    local = fb.local(
                        col.ty.wasm_type if not col.ty.is_string else "i32",
                        f"v_{column}",
                    )
                    if col.ty.is_string:
                        fb.get(rowid).i32(col.ty.size).emit("i32.mul")
                        fb.i32(base).emit("i32.add").set(local)
                    else:
                        size = col.ty.size
                        fb.get(rowid).i32(size).emit("i32.mul")
                        load_op = {
                            ("i32", 1): "i32.load8_s",
                            ("i32", 4): "i32.load",
                            ("i64", 8): "i64.load",
                            ("f64", 8): "f64.load",
                        }[(col.ty.wasm_type, size)]
                        fb.emit(load_op, 0, base)
                        self._declare_load_range(fb, binding, column, load_op)
                        fb.set(local)
                    slots.append(SlotValue(local, col.ty))
                body(slots)
                fb.get(pos).i32(1).emit("i32.add").set(pos)
                fb.br(top)

    def _emit_group_iteration(self, fb: FunctionBuilder, op: P.HashGroupBy,
                              ht: GeneratedHashTable, body) -> None:
        """Iterate the materialized groups: entries [begin, end)."""
        stride = ht.layout.stride
        index = fb.local("i32", "i")
        entry = fb.local("i32", "entry")
        fb.get(0).set(index)
        with fb.block() as done:
            with fb.loop() as top:
                fb.get(index).get(1).emit("i32.ge_s")
                fb.br_if(done)
                fb.emit("global.get", ht.g_entries)
                fb.get(index).i32(stride).emit("i32.mul")
                fb.emit("i32.add").set(entry)
                slots = self._load_group_outputs(fb, op, ht, entry)
                body(slots)
                fb.get(index).i32(1).emit("i32.add").set(index)
                fb.br(top)

    def _load_group_outputs(self, fb: FunctionBuilder, op: P.HashGroupBy,
                            ht: GeneratedHashTable,
                            entry: int) -> list[SlotValue]:
        slots = []
        for i, key in enumerate(op.keys):
            fld = ht.layout.field(f"k{i}")
            if key.ty.is_string:
                local = fb.local("i32", f"gk{i}")
                fb.get(entry).i32(fld.offset).emit("i32.add").set(local)
            else:
                local = fb.local(key.ty.wasm_type, f"gk{i}")
                fb.get(entry).emit(fld.load_op, 0, fld.offset).set(local)
            slots.append(SlotValue(local, key.ty))
        for i, agg in enumerate(op.aggregates):
            slots.append(
                self._load_aggregate_output(fb, ht.layout, entry, i, agg)
            )
        return slots

    def _load_aggregate_output(self, fb: FunctionBuilder,
                               layout: TupleLayout, entry: int, i: int,
                               agg: Aggregate) -> SlotValue:
        row = agg.row
        if not row.mean:
            fld = layout.field(f"a{i}")
            local = fb.local(agg.ty.wasm_type, f"agg{i}")
            fb.get(entry).emit(fld.load_op, 0, fld.offset).set(local)
            return SlotValue(local, agg.ty)
        # float(sum) / count / 10**scale; an empty input (count 0)
        # yields 0.0 in every engine, not NaN
        local = fb.local("f64", f"agg{i}")
        sum_field, cnt_field = (layout.field(f"a{i}{f.suffix}")
                                for f in row.fields)
        fb.get(entry).emit(sum_field.load_op, 0, sum_field.offset)
        if sum_field.ty.wasm_type == "i64":
            fb.emit("f64.convert_i64_s")
        fb.get(entry).emit(cnt_field.load_op, 0, cnt_field.offset)
        fb.emit("f64.convert_i64_s")
        fb.emit("f64.div")
        if agg.scale:
            fb.f64(float(10**agg.scale)).emit("f64.div")
        fb.f64(0.0)
        fb.get(entry).emit(cnt_field.load_op, 0, cnt_field.offset)
        fb.emit("i64.eqz").emit("i32.eqz")
        fb.emit("select")
        fb.set(local)
        return SlotValue(local, T.DOUBLE)

    def _emit_scalar_read(self, fb: FunctionBuilder, op: P.ScalarAggregate,
                          body) -> None:
        g_state, layout, _ = self._scalar_states[id(op)]
        # the host calls pipeline(0, 1): emit the single row unconditionally
        fb.get(0).get(1).emit("i32.lt_s")
        with fb.if_():
            state = fb.local("i32", "state")
            fb.emit("global.get", g_state).set(state)
            slots = [
                self._load_aggregate_output(fb, layout, state, i, agg)
                for i, agg in enumerate(op.aggregates)
            ]
            body(slots)

    def _emit_array_iteration(self, fb: FunctionBuilder, columns,
                              array: GeneratedSort, body,
                              keep: set[int] | None = None) -> None:
        stride = array.layout.stride
        index = fb.local("i32", "i")
        tup = fb.local("i32", "tup")
        fb.get(0).set(index)
        with fb.block() as done:
            with fb.loop() as top:
                fb.get(index).get(1).emit("i32.ge_s")
                fb.br_if(done)
                fb.emit("global.get", array.g_base)
                fb.get(index).i32(stride).emit("i32.mul")
                fb.emit("i32.add").set(tup)
                slots = self._load_array_row(fb, columns, array, tup, keep)
                body(slots)
                fb.get(index).i32(1).emit("i32.add").set(index)
                fb.br(top)

    def _load_array_row(self, fb: FunctionBuilder, columns,
                        array: GeneratedSort, tup: int,
                        keep: set[int] | None = None) -> list[SlotValue]:
        slots = []
        for i, col in enumerate(columns):
            if keep is not None and i not in keep:
                slots.append(SlotValue(-1, col.ty))
                continue
            fld = array.layout.field(f"c{i}")
            if col.ty.is_string:
                local = fb.local("i32", f"m{i}")
                fb.get(tup).i32(fld.offset).emit("i32.add").set(local)
            else:
                local = fb.local(col.ty.wasm_type, f"m{i}")
                fb.get(tup).emit(fld.load_op, 0, fld.offset).set(local)
            slots.append(SlotValue(local, col.ty))
        return slots

    # -- streaming operators --------------------------------------------------------

    def _emit_operators(self, fb, expr_compiler, ops, slots, pipe, info,
                        result_layout, result_capacity) -> None:
        if not ops:
            self._emit_sink(fb, expr_compiler, pipe, info, slots,
                            result_layout, result_capacity)
            return
        op, rest = ops[0], ops[1:]
        expr_compiler.slots = slots

        def continue_with(next_slots):
            self._emit_operators(fb, expr_compiler, rest, next_slots, pipe,
                                 info, result_layout, result_capacity)

        if isinstance(op, P.Filter):
            if (self.predication and not rest
                    and isinstance(pipe.sink, P.ScalarAggregate)):
                # branch-free: evaluate the predicate into a 0/1 mask and
                # fold it into the aggregate updates (no control flow)
                mask = fb.local("i32", "mask")
                expr_compiler.emit_boolean(op.predicate)
                fb.set(mask)
                self._emit_predicated_scalar_sink(
                    fb, expr_compiler, pipe.sink, slots, mask
                )
                return
            cheap, costly = split_predicate(op.predicate)
            if cheap is None or costly is None or self.ctx.short_circuit:
                cheap, costly = op.predicate, None
            expr_compiler.emit_boolean(cheap)
            with fb.if_():
                if costly is None:
                    continue_with(slots)
                    return
                # the call-bearing conjuncts only for rows the others
                # keep: fewer helper calls on every tier, and a call-free
                # loop prefix, which TurboFan's filtered-scan split needs
                expr_compiler.emit_boolean(costly)
                with fb.if_():
                    continue_with(slots)
            return
        if isinstance(op, P.Project):
            new_slots = [
                self._materialize(fb, expr_compiler, expr, slots)
                for expr in op.exprs
            ]
            continue_with(new_slots)
            return
        if isinstance(op, P.HashJoin):
            keep = self._used_slot_indices(rest, pipe.sink)
            if keep is not None:
                keep = keep | _slot_indices(op.residual)
            self._emit_probe(fb, expr_compiler, op, slots, continue_with,
                             keep)
            return
        if isinstance(op, P.NestedLoopJoin):
            keep = self._used_slot_indices(rest, pipe.sink)
            if keep is not None:
                keep = keep | _slot_indices(op.predicate)
            self._emit_nlj_probe(fb, expr_compiler, op, slots, continue_with,
                                 keep)
            return
        if isinstance(op, P.Limit):
            self._emit_limit(fb, op, info, slots, continue_with)
            return
        raise PlanError(
            f"cannot stream {type(op).__name__} through a pipeline"
        )

    def _materialize(self, fb, expr_compiler, expr, slots) -> SlotValue:
        expr_compiler.slots = slots
        if isinstance(expr, Slot):
            return slots[expr.index]  # pass-through needs no code
        wasm = expr.ty.wasm_type if not expr.ty.is_string else "i32"
        local = fb.local(wasm, "e")
        expr_compiler.emit(expr)
        fb.set(local)
        return SlotValue(local, expr.ty)

    def _used_slot_indices(self, ops, sink) -> set[int] | None:
        """Which slots of the current tuple the rest of the pipeline can
        read.  ``None`` means "all of them": the tuple reaches a sink that
        stores whole rows (result write, join build, sort, materialize).
        Join probes use this to skip loading columns nothing consumes."""
        used: set[int] = set()
        for pos, op in enumerate(ops):
            if isinstance(op, P.Filter):
                used |= _slot_indices(op.predicate)
            elif isinstance(op, P.Limit):
                pass
            elif isinstance(op, P.Project):
                # downstream slots index the projected tuple, not this one
                return used | _slot_indices(*op.exprs)
            elif isinstance(op, (P.HashJoin, P.NestedLoopJoin)):
                if isinstance(op, P.HashJoin):
                    used |= _slot_indices(*op.probe_keys)
                    shift, residual = len(op.build.output), op.residual
                else:
                    shift, residual = len(op.left.output), op.predicate
                inner = self._used_slot_indices(ops[pos + 1:], sink)
                if inner is None:
                    return None
                inner = inner | _slot_indices(residual)
                # this tuple occupies combined indices [shift, ...)
                return used | {i - shift for i in inner if i >= shift}
            else:
                return None
        if isinstance(sink, P.ScalarAggregate):
            return used | _slot_indices(*(a.arg for a in sink.aggregates))
        if isinstance(sink, P.HashGroupBy):
            return (used | _slot_indices(*sink.keys)
                    | _slot_indices(*(a.arg for a in sink.aggregates)))
        return None

    def _emit_probe(self, fb, expr_compiler, op: P.HashJoin, slots,
                    continue_with, keep: set[int] | None = None) -> None:
        """Inline hash-join probe: hashing, chain walk, and key equality
        are emitted at the call site (Section 4.3 — no function call per
        hash-table access)."""
        ht = self._hash_tables[id(op)]
        key_slots = [
            self._materialize(fb, expr_compiler, key, slots)
            for key in op.probe_keys
        ]

        if not self.inline_adhoc:
            self._emit_probe_via_calls(fb, expr_compiler, op, ht,
                                       key_slots, slots, continue_with, keep)
            return

        def on_match(entry: int) -> None:
            build_slots = self._load_build_columns(fb, op, ht, entry, keep)
            combined = build_slots + slots
            expr_compiler.slots = combined
            if op.residual is not None:
                expr_compiler.emit_boolean(op.residual)
                with fb.if_():
                    continue_with(combined)
            else:
                continue_with(combined)
            expr_compiler.slots = slots

        ht.emit_probe_loop(fb, expr_compiler,
                           [s.local for s in key_slots], on_match)

    def _emit_probe_via_calls(self, fb, expr_compiler, op, ht, key_slots,
                              slots, continue_with,
                              keep: set[int] | None = None) -> None:
        """Ablation path: one call per lookup and per chain continuation
        (the pre-compiled-library interface of Listing 3)."""
        functions = self._ht_functions.get(id(op))
        if functions is None:
            functions = self._ht_functions[id(op)] = {
                "lookup": ht.lookup_function(expr_compiler),
                "next": ht.next_match_function(expr_compiler),
            }
        entry = fb.local("i32", "match")
        for slot in key_slots:
            fb.get(slot.local)
        fb.call(functions["lookup"]).set(entry)
        with fb.block() as done:
            with fb.loop() as top:
                fb.get(entry).emit("i32.eqz")
                fb.br_if(done)
                build_slots = self._load_build_columns(fb, op, ht, entry,
                                                       keep)
                combined = build_slots + slots
                expr_compiler.slots = combined
                if op.residual is not None:
                    expr_compiler.emit_boolean(op.residual)
                    with fb.if_():
                        continue_with(combined)
                else:
                    continue_with(combined)
                expr_compiler.slots = slots
                fb.get(entry)
                for slot in key_slots:
                    fb.get(slot.local)
                fb.call(functions["next"]).set(entry)
                fb.br(top)

    def _load_build_columns(self, fb, op: P.HashJoin, ht, entry,
                            keep: set[int] | None = None) -> list:
        slots = []
        for i, col in enumerate(op.build.output):
            if keep is not None and i not in keep:
                # nothing downstream reads this column; the -1 sentinel
                # trips validation if that ever stops being true
                slots.append(SlotValue(-1, col.ty))
                continue
            fld = ht.layout.field(f"c{i}")
            if col.ty.is_string:
                local = fb.local("i32", f"b{i}")
                fb.get(entry).i32(fld.offset).emit("i32.add").set(local)
            else:
                local = fb.local(col.ty.wasm_type, f"b{i}")
                fb.get(entry).emit(fld.load_op, 0, fld.offset).set(local)
            slots.append(SlotValue(local, col.ty))
        return slots

    def _emit_nlj_probe(self, fb, expr_compiler, op: P.NestedLoopJoin,
                        slots, continue_with,
                        keep: set[int] | None = None) -> None:
        array = self._materialized[id(op)]
        stride = array.layout.stride
        cursor = fb.local("i32", "cursor")
        end = fb.local("i32", "mat_end")
        fb.emit("global.get", array.g_base).set(cursor)
        fb.get(cursor)
        fb.emit("global.get", array.g_count).i32(stride).emit("i32.mul")
        fb.emit("i32.add").set(end)
        with fb.block() as done:
            with fb.loop() as top:
                fb.get(cursor).get(end).emit("i32.ge_u")
                fb.br_if(done)
                left_slots = self._load_array_row(
                    fb, op.left.output, array, cursor, keep
                )
                combined = left_slots + slots
                expr_compiler.slots = combined
                if op.predicate is not None:
                    expr_compiler.emit_boolean(op.predicate)
                    with fb.if_():
                        continue_with(combined)
                else:
                    continue_with(combined)
                expr_compiler.slots = slots
                fb.get(cursor).i32(stride).emit("i32.add").set(cursor)
                fb.br(top)

    def _emit_limit(self, fb, op: P.Limit, info: PipelineInfo, slots,
                    continue_with) -> None:
        record = self._limit_globals.get(id(op))
        if record is None:
            name = self._fresh_name("limit")
            g = self.ctx.mb.add_global("i32", 0, name=name)
            self.ctx.mb.export(name, "global", g)
            record = (g, name)
            self._limit_globals[id(op)] = record
        g, name = record
        info.limit_global = name
        info.limit_total = (op.limit or 0) + op.offset if op.limit is not None \
            else None
        seen = fb.local("i32", "seen")
        fb.emit("global.get", g).set(seen)
        fb.get(seen).i32(1).emit("i32.add")
        fb.emit("global.set", g)
        # offset <= seen < offset + limit
        fb.get(seen).i32(op.offset).emit("i32.ge_s")
        if op.limit is not None:
            fb.get(seen).i32(op.offset + op.limit).emit("i32.lt_s")
            fb.emit("i32.and")
        with fb.if_():
            continue_with(slots)

    # -- sinks -------------------------------------------------------------------------

    def _emit_predicated_scalar_sink(self, fb, expr_compiler,
                                     sink: P.ScalarAggregate, slots,
                                     mask: int) -> None:
        """Aggregate updates with the selection folded in as data flow
        (see :meth:`_emit_aggregate_updates`): no conditional branch
        exists in the generated code."""
        g_state, layout, _ = self._scalar_states[id(sink)]
        state = fb.local("i32", "state")
        fb.emit("global.get", g_state).set(state)
        self._emit_aggregate_updates(fb, expr_compiler, sink.aggregates,
                                     layout, state, slots, mask)

    def _emit_sink(self, fb, expr_compiler, pipe: Pipeline,
                   info: PipelineInfo, slots, result_layout,
                   result_capacity) -> None:
        sink = pipe.sink
        expr_compiler.slots = slots
        if sink is None:
            self._emit_result_write(fb, expr_compiler, slots, result_layout,
                                    result_capacity)
            return
        if isinstance(sink, P.HashJoin):
            self._emit_build_insert(fb, expr_compiler, sink, slots)
            return
        if isinstance(sink, P.HashGroupBy):
            self._emit_group_update(fb, expr_compiler, sink, slots)
            return
        if isinstance(sink, P.ScalarAggregate):
            g_state, layout, _ = self._scalar_states[id(sink)]
            state = fb.local("i32", "state")
            fb.emit("global.get", g_state).set(state)
            self._emit_aggregate_updates(fb, expr_compiler, sink.aggregates,
                                         layout, state, slots)
            return
        if isinstance(sink, P.Sort):
            self._emit_sort_append(fb, expr_compiler, sink, slots)
            return
        if isinstance(sink, P.NestedLoopJoin):
            self._emit_materialize_append(fb, expr_compiler, sink, slots)
            return
        raise PlanError(f"cannot sink into {type(sink).__name__}")

    def _emit_build_insert(self, fb, expr_compiler, op: P.HashJoin,
                           slots) -> None:
        ht = self._hash_tables[id(op)]
        key_slots = [
            self._materialize(fb, expr_compiler, key, slots)
            for key in op.build_keys
        ]
        if self.inline_adhoc:
            entry = ht.emit_insert_inline(fb, [s.local for s in key_slots])
        else:
            functions = self._ht_functions.setdefault(id(op), {})
            if "insert" not in functions:
                functions["insert"] = ht.insert_function()
            entry = fb.local("i32", "entry")
            for slot in key_slots:
                fb.get(slot.local)
            fb.call(functions["insert"]).set(entry)
        self._store_fields(fb, ht.layout, entry, "c", slots)

    def _store_fields(self, fb, layout: TupleLayout, base_local: int,
                      prefix: str, slots: list[SlotValue]) -> None:
        memcpy = self.ctx.memcpy_function()
        for i, slot in enumerate(slots):
            fld = layout.field(f"{prefix}{i}")
            if slot.ty.is_string:
                fb.get(base_local).i32(fld.offset).emit("i32.add")
                fb.get(slot.local)
                fb.i32(slot.ty.size)
                fb.call(memcpy)
            else:
                fb.get(base_local)
                fb.get(slot.local)
                fb.emit(fld.store_op, 0, fld.offset)

    def _emit_group_update(self, fb, expr_compiler, op: P.HashGroupBy,
                           slots) -> None:
        ht = self._hash_tables[id(op)]
        key_slots = [
            self._materialize(fb, expr_compiler, key, slots)
            for key in op.keys
        ]
        if self.inline_adhoc:
            entry = ht.emit_upsert_inline(fb, expr_compiler,
                                          [s.local for s in key_slots])
        else:
            upsert = self.ctx.helper(
                (id(op), "upsert"),
                lambda ctx: _FunctionIndexWrapper(
                    ht.upsert_function(expr_compiler)
                ),
            )
            entry = fb.local("i32", "entry")
            for slot in key_slots:
                fb.get(slot.local)
            fb.call(upsert).set(entry)
        self._emit_aggregate_updates(fb, expr_compiler, op.aggregates,
                                     ht.layout, entry, slots)

    def _emit_aggregate_updates(self, fb, expr_compiler,
                                aggregates: list[Aggregate],
                                layout: TupleLayout, entry: int,
                                slots, mask: int | None = None) -> None:
        """Fully inlined aggregate maintenance on a materialized entry:
        one read-modify-write per state field of each aggregate's row.

        With a 0/1 ``mask`` local the row's selection is data flow:
        adds take ``value * mask`` (a count ``mask``), a min/max
        candidate is ``mask ? value : current``.
        """
        expr_compiler.slots = slots
        for i, agg in enumerate(aggregates):
            for f in agg.row.fields:
                fld = layout.field(f"a{i}{f.suffix}")
                wasm = fld.ty.wasm_type
                if f.update in ("min", "max"):
                    self._emit_compare_update(fb, expr_compiler, agg.arg,
                                              fld, entry, mask, f.update,
                                              f"v{i}")
                    continue
                fb.get(entry)
                fb.get(entry).emit(fld.load_op, 0, fld.offset)
                if f.update == "count":
                    if mask is None:
                        fb.i64(1)
                    else:
                        fb.get(mask).emit("i64.extend_i32_u")
                else:
                    expr_compiler.emit(agg.arg)
                    if mask is not None:
                        fb.get(mask)
                        if wasm != "i32":
                            fb.emit("f64.convert_i32_u" if wasm == "f64"
                                    else "i64.extend_i32_u")
                        fb.emit(f"{wasm}.mul")
                fb.emit(f"{wasm}.add")
                fb.emit(fld.store_op, 0, fld.offset)

    @staticmethod
    def _emit_compare_update(fb, expr_compiler, arg, fld, entry: int,
                             mask: int | None, update: str,
                             name: str) -> None:
        """``acc = value <op> acc ? value : acc``, branch-free via select
        (cf. Fig. 7d discussion); the strict compare never selects a
        NaN and keeps the first of equal values."""
        wasm = fld.ty.wasm_type
        value = fb.local(wasm, name)
        expr_compiler.emit(arg)
        if mask is not None:
            fb.get(entry).emit(fld.load_op, 0, fld.offset)
            fb.get(mask)
            fb.emit("select")
        fb.set(value)
        fb.get(entry)
        fb.get(value)
        fb.get(entry).emit(fld.load_op, 0, fld.offset)
        fb.get(value)
        fb.get(entry).emit(fld.load_op, 0, fld.offset)
        cmp = "lt" if update == "min" else "gt"
        if wasm != "f64":
            cmp += "_s"
        fb.emit(f"{wasm}.{cmp}")
        fb.emit("select")
        fb.emit(fld.store_op, 0, fld.offset)

    def _emit_sort_append(self, fb, expr_compiler, op: P.Sort,
                          slots) -> None:
        sorter = self._sorts[id(op)]
        dst = sorter.emit_append_slot(fb)
        self._store_fields(fb, sorter.layout, dst, "c", slots)
        # materialize computed sort keys next to the row (plain-column
        # keys already live in the row fields)
        memcpy = self.ctx.memcpy_function()
        for j, (key, _descending) in enumerate(op.order):
            if isinstance(key, Slot):
                continue
            fld = sorter.layout.field(f"s{j}")
            if key.ty.is_string:
                fb.get(dst).i32(fld.offset).emit("i32.add")
                expr_compiler.emit(key)
                fb.i32(key.ty.size)
                fb.call(memcpy)
            else:
                fb.get(dst)
                expr_compiler.emit(key)
                fb.emit(fld.store_op, 0, fld.offset)

    def _emit_materialize_append(self, fb, expr_compiler,
                                 op: P.NestedLoopJoin, slots) -> None:
        array = self._materialized[id(op)]
        dst = array.emit_append_slot(fb)
        self._store_fields(fb, array.layout, dst, "c", slots)

    def _emit_result_write(self, fb, expr_compiler, slots,
                           result_layout: TupleLayout,
                           result_capacity: int) -> None:
        ctx = self.ctx
        # flush when the rewired result window is full (Figure 5)
        fb.emit("global.get", ctx.result_count)
        fb.i32(result_capacity).emit("i32.ge_s")
        with fb.if_():
            fb.call(ctx.flush_results)
        dst = fb.local("i32", "dst")
        fb.emit("global.get", ctx.result_count)
        fb.i32(result_layout.stride).emit("i32.mul")
        fb.i32(self.memory.result_base).emit("i32.add").set(dst)
        self._store_fields(fb, result_layout, dst, "o", slots)
        fb.emit("global.get", ctx.result_count)
        fb.i32(1).emit("i32.add")
        fb.emit("global.set", ctx.result_count)


class _FunctionIndexWrapper:
    """Adapter so ``CompilerContext.helper`` can memoize a function that
    was generated through another component's API."""

    def __init__(self, func_index: int):
        self.func_index = func_index


def _aggregate_payload(i: int, agg: Aggregate) -> list[tuple]:
    """Payload fields (name, type, identity) for one aggregate's state."""
    payload = []
    for f in agg.row.fields:
        ty = f.acc_type(agg)
        payload.append((f"a{i}{f.suffix}", ty, f.identity(ty)))
    return payload
