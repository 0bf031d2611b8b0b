"""The paper's architecture: QEP -> WebAssembly -> adaptive engine.

This is mutable's execution path (Figure 4):

1. the physical plan is dissected into pipelines and **translated to
   WebAssembly** with ad-hoc generated library code
   (:mod:`repro.backend`),
2. the host builds a **rewired address space** (Section 6.1): table
   columns are aliased zero-copy into the module's 32-bit memory, plus a
   constants region, the result window, and a growable heap,
3. the module is handed to the **tiered engine** (stencil, Liftoff and
   TurboFan code with adaptive tier-up — our V8), and
4. execution is **morsel-wise**: the host repeatedly invokes
   ``pipeline_i(begin, end)``, giving the engine call boundaries at
   which it transparently swaps in optimized code.

Results come back through the rewired result window: the generated code
packs rows and bumps ``result_count``; the host drains after each morsel
and inside the ``flush_results`` callback (Section 6.2).
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field

from repro.backend.codegen import CompiledQuery, QueryCompiler
from repro.backend.context import (
    CONST_REGION_SIZE,
    MORSEL_SIZE,
    RESULT_REGION_SIZE,
    MemoryPlan,
)
from repro.catalog.catalog import Catalog
from repro.costmodel import Profile
from repro.engines.base import ExecutionResult, QueryEngine, Stopwatch, Timings
from repro.engines.eval import sql_like_regex
from repro.errors import Trap
from repro.observability.metrics import get_registry
from repro.observability.trace import trace_event, trace_span
from repro.plan import physical as P
from repro.plan.pipeline import dissect_into_pipelines
from repro.robustness.governor import ResourceGovernor
from repro.storage.rewiring import WASM_PAGE_SIZE, AddressSpace
from repro.wasm.runtime import Engine, EngineConfig, LinearMemory
from repro.wasm.runtime.engine import (
    COMPILED_TIERS,
    ENGINE_MODES,
    SEED_COMPILE_RATES,
    TIER_LADDERS,
)

__all__ = ["QueryRun", "WasmEngine", "WasmExecutable"]

#: Heap beyond the pipeline breakers' estimated needs.  Kept small: the
#: whole heap is zero-filled per executable and pinned until the
#: executable is collected, and the generated ``alloc`` extends it
#: through ``memory.grow`` whenever an estimate falls short.
_HEAP_SLACK = 256 * 1024


@dataclass
class WasmExecutable:
    """A compiled, instantiated query, reusable across executions.

    Holds everything the morsel driver needs — the compiled module and
    pipeline metadata, the rewired address space, the engine instance
    with its tier state — so a plan cache can skip translation,
    compilation *and* instantiation on a hit.  One executable must not
    run concurrently with itself (it owns a single address space and
    parameter slots); callers serialize executions per executable.
    """

    compiled: CompiledQuery
    space: AddressSpace
    engine: Engine
    memory: LinearMemory
    instance: object = None       # set right after instantiation
    executions: int = 0
    rows: list = field(default_factory=list)     # drained result rows


@dataclass(slots=True)
class QueryRun:
    """What one execution is given, and what it produced.

    The engine object holds knobs only; what belongs to a single run
    travels in this record, so one engine serves any number of threads
    and the worker processes alike.  A field left at its default arms
    nothing; the measurements come back as ``result.run``.
    """

    # -- given ---------------------------------------------------------------
    #: The :class:`~repro.robustness.resilience.Deadline` carried since
    #: admission (queue wait debits the budget the governor enforces).
    deadline: object = None
    #: A :class:`~repro.robustness.resilience.CancelToken` checked at
    #: every morsel boundary: ``CANCEL`` aborts within one morsel.
    cancel_token: object = None
    #: Called before each morsel; the query service parks threads in its
    #: fair turnstile here so concurrent queries round-robin.
    morsel_hook: object = None
    #: How a parallel run's tasks reach the pool: through that same
    #: turnstile for the service, directly when ``None``.
    dispatcher: object = None
    #: ``(binding, begin, end)``: pipelines scanning that binding execute
    #: only this row range — a parallel worker's partition of the table.
    partition: tuple | None = None
    #: Return storage-representation rows: the parallel driver merges
    #: partitions at the storage level and finalizes exactly once (empty-
    #: partition aggregate sentinels are combined away, never converted).
    raw_rows: bool = False
    #: Storage-representation values of ``$1..$n`` for this execution.
    param_values: list | None = None
    trace: object = None
    profile: Profile | None = None
    #: ``execute`` arms the governor before compiling, so compile time
    #: counts against the budget; ``execute_prepared`` arms one if unset.
    governor: ResourceGovernor | None = None
    # -- produced ------------------------------------------------------------
    timings: Timings = field(default_factory=Timings)
    #: Per pipeline ``{index, function, rows_in, rows_out, morsels,
    #: seconds}``, recorded unconditionally (no trace required): the
    #: feedback store harvests these to compute Q-Errors.
    pipeline_stats: list[dict] = field(default_factory=list)
    morsels_total: int = 0
    rewires: int = 0   # table chunks re-wired into the window (Figure 5)
    #: The executed query's ``PipelineInfo`` list, whose operator-shape
    #: descriptors EXPLAIN ANALYZE prints.
    pipelines: list = field(default_factory=list)
    tier_stats: object = None   # the executed instance's TierStats
    #: What ``Database.run_plan`` compiled because the pool degraded
    #: under a plan left to the workers; the caller's cache keeps it.
    prepared: WasmExecutable | None = None


def _scans_of(plan: P.PhysicalOperator):
    if isinstance(plan, (P.SeqScan, P.IndexSeek)):
        yield plan
    for child in plan.children:
        yield from _scans_of(child)


def _table_scanned_as(binding: str, plan, catalog):
    scan = next(s for s in _scans_of(plan) if s.binding == binding)
    return scan, catalog.get(scan.table_name)


def _breakers_of(plan: P.PhysicalOperator):
    if isinstance(plan, (P.HashJoin, P.HashGroupBy, P.Sort,
                         P.NestedLoopJoin)):
        yield plan
    for child in plan.children:
        yield from _breakers_of(child)


class WasmEngine(QueryEngine):
    """mutable: compile to Wasm, execute adaptively (the paper's system).

    Args:
        mode: engine tiering mode — ``"adaptive"`` (default, the paper's
            architecture), ``"adaptive_stencil"``, ``"liftoff"``,
            ``"turbofan"`` (the enforced-optimization setting of
            Section 8.2), ``"stencil"`` or ``"interpreter"``.
        short_circuit: compile conjunctions with short-circuit branches
            (mutable's default is off; used by the ablation benchmark).
        morsel_size: rows per pipeline invocation.
        timeout_seconds: per-query wall-clock budget, checked at every
            morsel boundary; ``None`` for unlimited.
        max_memory_pages: per-query cap on 64 KiB pages in the rewired
            address space (tables + heap + results); ``None`` unlimited.
        lint: run the static-analysis linter over every generated module —
            ``"off"`` (default), ``"warn"``, or ``"strict"`` (raise
            :class:`~repro.errors.LintError` on any diagnostic).
        fault_injector: a :class:`repro.robustness.FaultInjector`
            threaded through the engine's named fault sites (testing).
    """

    name = "wasm"
    modes = ENGINE_MODES

    def __init__(self, mode: str = "adaptive",
                 short_circuit: bool = False, morsel_size: int = MORSEL_SIZE,
                 inline_adhoc: bool = True, predication: bool = False,
                 table_window_rows: int | None = None,
                 timeout_seconds: float | None = None,
                 max_memory_pages: int | None = None,
                 lint: str = "off", fault_injector=None):
        self.mode = mode
        self.short_circuit = short_circuit
        self.morsel_size = morsel_size
        self.inline_adhoc = inline_adhoc
        self.predication = predication
        self.timeout_seconds = timeout_seconds
        self.max_memory_pages = max_memory_pages
        self.lint = lint
        self.fault_injector = fault_injector
        # Figure 5: tables larger than this window (in rows) are not
        # mapped whole; the host re-wires chunk after chunk into a fixed
        # window while the pipeline runs (rewire_next_chunk).  None maps
        # every table completely (possible whenever it fits in 4 GiB).
        self.table_window_rows = table_window_rows
        # What the most recent execute() measured, for harnesses that
        # hold an engine of their own; nothing in this package reads it.
        self.last_tier_stats = None
        self.last_morsels_total = 0
        self.last_pipeline_stats: list[dict] = []

    @property
    def tier_ladder(self) -> tuple[str, ...]:
        return TIER_LADDERS[self.mode]

    # -- compilation -----------------------------------------------------------

    def compile_query(self, plan: P.PhysicalOperator, catalog: Catalog,
                      timings: Timings,
                      governor: ResourceGovernor | None = None,
                      trace=None,
                      ) -> tuple[CompiledQuery, AddressSpace]:
        with Stopwatch(timings, "translation"), \
                trace_span(trace, "translation", engine=self.name):
            space, memory_plan = self._build_address_space(
                plan, catalog, governor
            )
            compiler = QueryCompiler(memory_plan,
                                     short_circuit=self.short_circuit,
                                     inline_adhoc=self.inline_adhoc,
                                     predication=self.predication)
            compiled = compiler.compile(plan, trace=trace)
        return compiled, space

    def _build_address_space(self, plan: P.PhysicalOperator,
                             catalog: Catalog,
                             governor: ResourceGovernor | None = None):
        """Rewire everything the query needs into one 32-bit space."""
        space = AddressSpace()
        space.governor = governor  # every page reservation is budgeted
        # constants and $n slots are the host's to write, not the module's
        consts_base = space.alloc("consts", CONST_REGION_SIZE,
                                  writable=False)

        column_addresses: dict[tuple[str, str], int] = {}
        row_counts: dict[str, int] = {}
        extent_rows: dict[str, int] = {}
        for scan in _scans_of(plan):
            table = catalog.get(scan.table_name)
            row_counts[scan.binding] = table.row_count
            window = self.table_window_rows
            chunked = (window is not None and table.row_count > window
                       and isinstance(scan, P.SeqScan))
            # one pipeline invocation never sees a row index past the
            # mapped extent: the chunk window when chunked, else the table
            extent_rows[scan.binding] = window if chunked \
                else table.row_count
            for name in scan.columns:
                column = table.column(name)
                if chunked:
                    # map only the window; later chunks are re-wired in
                    buffer = memoryview(column.values[:window]).cast("B")
                elif len(column):
                    buffer = column.buffer()
                else:
                    buffer = bytearray(8)
                addr = space.map_buffer(
                    f"col:{scan.binding}.{name}", buffer
                )
                column_addresses[(scan.binding, name)] = addr
            if isinstance(scan, P.IndexSeek):
                # rewire the index permutation into the module as well —
                # the "non-consecutive structure" the paper deferred
                index = table.index_on(scan.key_column)
                buffer = index.row_id_buffer() if len(index) \
                    else bytearray(8)
                addr = space.map_buffer(
                    f"idx:{scan.binding}.{scan.key_column}", buffer
                )
                pseudo = f"__index_rowids__{scan.key_column}"
                column_addresses[(scan.binding, pseudo)] = addr

        result_base = space.alloc("result", RESULT_REGION_SIZE)

        heap_bytes = _HEAP_SLACK
        for breaker in _breakers_of(plan):
            rows = int(breaker.estimated_rows) + 64
            width = sum(c.ty.size for c in breaker.output) + 32
            heap_bytes += rows * width * 2
        heap_base = space.alloc("heap", heap_bytes)
        heap_end = heap_base + (
            -(-heap_bytes // WASM_PAGE_SIZE) * WASM_PAGE_SIZE
        )

        memory_plan = MemoryPlan(
            consts_base=consts_base,
            result_base=result_base,
            heap_base=heap_base,
            heap_end=heap_end,
            column_addresses=column_addresses,
            row_counts=row_counts,
            extent_rows=extent_rows,
        )
        return space, memory_plan

    # -- execution -----------------------------------------------------------------

    def execute(self, plan: P.PhysicalOperator, catalog: Catalog,
                profile: Profile | None = None,
                trace=None) -> ExecutionResult:
        if isinstance(plan, P.EmptyResult):
            return self.execute_folded(plan, profile, trace)
        run = QueryRun(profile=profile, trace=trace)
        run.governor = self._governor(run)
        executable = self.prepare_executable(plan, catalog, run)
        result = self.execute_prepared(executable, plan, catalog, run)
        self.last_pipeline_stats = run.pipeline_stats
        self.last_tier_stats = run.tier_stats
        self.last_morsels_total = run.morsels_total
        return result

    def _governor(self, run: QueryRun) -> ResourceGovernor:
        """This engine's budgets plus the run's deadline, clock started."""
        governor = ResourceGovernor(self.timeout_seconds,
                                    self.max_memory_pages,
                                    deadline=run.deadline).start()
        governor.trace = run.trace
        return governor

    def prepare_executable(self, plan: P.PhysicalOperator, catalog: Catalog,
                           run: QueryRun | None = None) -> WasmExecutable:
        """Translate, compile, and instantiate — everything up to (but
        not including) running the pipelines.  The returned executable
        can be executed repeatedly via :meth:`execute_prepared`; the plan
        cache stores exactly this object.  Plans folded to
        :class:`~repro.plan.physical.EmptyResult` have nothing to
        compile and return ``None`` — the cache stores the plan alone.
        ``run`` supplies trace, profile, cancel token and (from
        :meth:`execute`) the governor; omitted, nothing is checked."""
        if isinstance(plan, P.EmptyResult):
            return None
        run = run if run is not None else QueryRun()
        governor, trace, timings = run.governor, run.trace, run.timings
        if governor is not None:
            governor.phase = "translation"
        compiled, space = self.compile_query(plan, catalog, timings,
                                             governor, trace)
        if governor is not None:
            governor.check()
            governor.phase = "compile"
        if run.cancel_token is not None:
            run.cancel_token.raise_if_cancelled(phase="translation")
        engine = Engine(EngineConfig(
            mode=self.mode, lint=self.lint,
            fault_injector=self.fault_injector,
        ))
        memory = LinearMemory(space)
        memory.fault_injector = self.fault_injector
        executable = WasmExecutable(
            compiled=compiled, space=space, engine=engine, memory=memory,
        )

        def flush_results():
            self._drain(executable.instance, compiled, executable.rows)

        def like_generic(addr: int, width: int, pattern_id: int) -> int:
            raw = executable.instance.memory.read_bytes(addr, width)
            text = raw.rstrip(b"\x00").decode("utf-8", "replace")
            regex = sql_like_regex(compiled.generic_patterns[pattern_id])
            return 1 if regex.match(text) else 0

        imports = {
            ("env", "flush_results"): flush_results,
            ("env", "like_generic"): like_generic,
        }
        instance = engine.instantiate(
            compiled.module, imports=imports, memory=memory,
            profile=run.profile, trace=trace,
        )
        executable.instance = instance
        # instantiation time counts as compilation (stencil/Liftoff/TurboFan)
        for tier in COMPILED_TIERS:
            timings.add(f"compile_{tier}", instance.stats.seconds[tier])
        if governor is not None:
            governor.check()
        if run.cancel_token is not None:
            run.cancel_token.raise_if_cancelled(phase="compile")
        return executable

    def execute_prepared(self, executable: WasmExecutable,
                         plan: P.PhysicalOperator, catalog: Catalog,
                         run: QueryRun | None = None) -> ExecutionResult:
        """Run (or re-run) an executable.  On re-runs the instance's
        mutable state is reset first; tier state carries over, so a
        cached query keeps its optimized code.  ``run.param_values`` are
        storage-representation values written into the module's
        parameter slots after the reset; ``run`` comes back, with this
        execution's measurements, as ``result.run``."""
        run = run if run is not None else QueryRun()
        trace, timings = run.trace, run.timings
        if run.governor is None:
            run.governor = self._governor(run)
        governor = run.governor
        instance = executable.instance
        # re-attach: page growth during this run charges this run's budget,
        # and tier-ups bought (or faults injected) during it are recorded
        # in this run's trace
        executable.space.governor = governor
        instance.trace = executable.memory.trace = trace
        governor.phase = "execution"
        compiled = executable.compiled
        if executable.executions > 0:
            self._reset_instance(executable)
        executable.executions += 1
        if run.param_values is not None:
            self.bind_wasm_params(executable, run.param_values)
        executable.rows = []
        rows = executable.rows
        stats = run.tier_stats = instance.stats
        run.pipelines = compiled.pipelines
        gate = self._morsel_gate(run)

        compile_before = dict(stats.seconds)
        with Stopwatch(timings, "execution"), \
                trace_span(trace, "execution", engine=self.name):
            instance.invoke("init")
            for pipeline_index, info in enumerate(compiled.pipelines):
                with trace_span(
                    trace, "pipeline", pipeline=pipeline_index,
                    function=info.function,
                    source=f"{info.source_kind}:{info.source_name}",
                ) as span:
                    rows_before = len(rows)
                    pipeline_start = time.perf_counter()
                    rows_in, morsels = self._run_pipeline(
                        executable, info, plan, catalog, pipeline_index,
                        run, gate,
                    )
                    pipeline_seconds = time.perf_counter() - pipeline_start
                    run.morsels_total += morsels
                    if info.is_final:
                        self._drain(instance, compiled, rows)
                    rows_out = self._pipeline_rows_out(
                        instance, info, rows, rows_before
                    )
                    run.pipeline_stats.append({
                        "index": pipeline_index,
                        "function": info.function,
                        "rows_in": rows_in,
                        "rows_out": rows_out,
                        "morsels": morsels,
                        "seconds": pipeline_seconds,
                    })
                    if span is not None:
                        span.attrs["morsels"] = morsels
                        span.attrs["rows_out"] = rows_out
            self._drain(instance, compiled, rows)
        # tier-up compilation that happened during execution is reported
        # as compile time, not execution time (in V8 it runs concurrently),
        # attributed to the tier that did the compiling: a stencil->Liftoff
        # promotion spends Liftoff seconds, a Liftoff->TurboFan one
        # TurboFan seconds
        for tier in COMPILED_TIERS:
            delta = stats.seconds[tier] - compile_before[tier]
            if delta > 0:
                timings.phases["execution"] -= delta
                timings.add(f"compile_{tier}", delta)

        # the tiers functions are promoted to always report; tier-0 only
        # when it was involved, keeping non-stencil traces byte-identical
        # to the pre-stencil engine
        tier_attrs = {
            f"{tier}_functions": stats.functions[tier]
            for tier in COMPILED_TIERS
            if tier in SEED_COMPILE_RATES or stats.functions[tier]
        }
        if "stencil_functions" in tier_attrs:
            tier_attrs.update(
                stencil_cache_hits=stats.stencil_cache_hits,
                stencil_cache_misses=stats.stencil_cache_misses,
            )
        # likewise the filtered-scan split: only where TurboFan made one
        if stats.loops_prefiltered:
            tier_attrs.update(
                loops_prefiltered=stats.loops_prefiltered,
                prefilter_rows_seen=stats.prefilter_rows_seen,
                prefilter_rows_kept=stats.prefilter_rows_kept,
            )
        trace_event(trace, "tier_stats", tier_ups=stats.tier_ups,
                    tier_up_failures=stats.tier_up_failures,
                    **tier_attrs)
        if run.raw_rows:
            result = ExecutionResult(
                column_names=[c.name for c in plan.output],
                column_types=plan.output_types,
                rows=list(rows),
            )
        else:
            result = self.finalize_rows(plan, rows)
        result.engine = self.name
        result.timings = timings
        result.profile = run.profile
        result.trace = trace
        result.run = run
        return result

    def _morsel_gate(self, run: QueryRun):
        """The per-morsel prologue, composed once per run from what is
        armed — cancellation, the governor's clock, the ``trap.morsel``
        fault site, the scheduler's turnstile, in that order — as
        ``gate(pipeline_index, morsel)``; ``None`` when nothing is, so
        an unarmed run pays for no check at all."""
        token, governor = run.cancel_token, run.governor
        injector, hook = self.fault_injector, run.morsel_hook
        checks = [check for armed, check in (
            (token is not None, lambda p, m: token.raise_if_cancelled(
                phase="execution", pipeline_index=p, morsel=m)),
            (governor.timed, lambda p, m: governor.check(
                pipeline_index=p, morsel=m)),
            (injector is not None,
             lambda p, m: injector.check("trap.morsel", run.trace)),
            (hook is not None, lambda p, m: hook()),
        ) if armed]
        if not checks:
            return None

        def gate(pipeline_index, morsel):
            for check in checks:
                check(pipeline_index, morsel)
        return gate

    def _reset_instance(self, executable: WasmExecutable) -> None:
        """Restore a cached instance for the next execution.

        Globals go back to their initializers, constants (and the bytes
        under them) are replayed from the data segments, and the heap
        bound is pinned at the *grown* extent: address-space pages are
        never recycled, so re-growing from the original ``heap_end``
        would leak 64 KiB pages on every cached execution.  The generated
        ``init()`` — re-run by the caller — then re-allocates and
        re-zeroes every scratch structure via the bump allocator.
        """
        instance = executable.instance
        instance.reset_mutable_state()
        # what the prefilter drivers did is per run; what was compiled stays
        instance.stats.prefilter_rows_seen = 0
        instance.stats.prefilter_rows_kept = 0
        extent = executable.space._next_page * WASM_PAGE_SIZE
        self._write_global(instance, "heap_end", extent)
        for seg in instance.module.data:
            instance.memory.write_bytes(seg.offset, seg.payload)

    @staticmethod
    def bind_wasm_params(executable: WasmExecutable, values: list) -> None:
        """Write bound parameter values into the module's fixed slots.

        ``values[i]`` is the storage representation of ``$(i+1)``,
        already coerced to the parameter's inferred type.
        """
        layout = executable.compiled.param_layout or {}
        memory = executable.memory
        for index, (addr, ty) in layout.items():
            value = values[index - 1]
            if ty.is_string:
                raw = value if isinstance(value, bytes) else bytes(value)
                memory.write_bytes(addr, raw.ljust(ty.size, b"\x00")[:ty.size])
            else:
                fmt = {"i32": "<i", "i64": "<q", "f64": "<d"}[ty.wasm_type]
                memory.write_bytes(addr, struct.pack(fmt, value))

    def _pipeline_rows_out(self, instance, info, rows: list,
                           rows_before: int) -> int:
        """Observed output cardinality of one pipeline (EXPLAIN ANALYZE).

        Final pipelines are measured by the rows drained from the result
        window; sink pipelines by the generated structure's exported
        ``{name}_count`` global; scalar-aggregate sinks hold exactly one
        state row.
        """
        if info.is_final:
            return len(rows) - rows_before
        if info.sink_name is not None:
            return self._read_global(instance, f"{info.sink_name}_count")
        if info.sink_kind == "scalar":
            return 1
        return 0

    def _run_pipeline(self, executable: WasmExecutable, info, plan, catalog,
                      pipeline_index: int, run: QueryRun,
                      gate) -> tuple[int, int]:
        """Run one pipeline to completion; returns the input rows it
        was driven over (feedback harvesting) and the morsel count."""
        instance, compiled = executable.instance, executable.compiled
        if info.sort_before is not None:
            instance.invoke(info.sort_before)
        if info.source_kind == "indexseek":
            table = _table_scanned_as(info.source_name, plan, catalog)[1]
            key, low, high, lstrict, hstrict = info.seek
            begin, total = table.index_on(key).positions(
                low, high, lstrict, hstrict
            )
        else:
            total = self._source_rows(instance, compiled, info)
            begin = 0

        if (run.partition is not None and info.source_kind == "scan"
                and info.source_name == run.partition[0]):
            # this worker's slice of the partitioned scan
            _, part_begin, part_end = run.partition
            begin = max(begin, min(part_begin, total))
            total = min(total, part_end)

        rows_in = max(total - begin, 0)

        # a scan mapped through a window narrower than its table is chunked
        window = None
        if info.source_kind == "scan":
            window = compiled.memory.extent_rows[info.source_name]
            if window >= compiled.memory.row_counts[info.source_name]:
                window = None
        if window is None:
            return rows_in, self._drive_morsels(
                executable, info, begin, total, pipeline_index, run, gate)

        # Figure 5: the pipeline sees [0, chunk_rows) of a fixed
        # window; the host re-wires the next chunk between runs
        scan, table = _table_scanned_as(info.source_name, plan, catalog)
        offset = begin
        morsels = 0
        while offset < total:
            chunk_rows = min(window, total - offset)
            if self.fault_injector is not None:
                self.fault_injector.check("rewire.chunk", run.trace)
            for name in scan.columns:
                values = table.column(name).values
                chunk = values[offset:offset + chunk_rows]
                instance.memory.space.remap(
                    f"col:{info.source_name}.{name}",
                    memoryview(chunk).cast("B"),
                )
            run.rewires += 1
            trace_event(run.trace, "rewire.chunk",
                        pipeline=pipeline_index, offset=offset,
                        rows=chunk_rows)
            get_registry().counter(
                "wasm_rewired_chunks_total",
                "Table chunks rewired into the fixed window",
            ).inc()
            morsels += self._drive_morsels(
                executable, info, 0, chunk_rows, pipeline_index, run, gate)
            offset += chunk_rows
        return rows_in, morsels

    def _drive_morsels(self, executable: WasmExecutable, info,
                       begin: int, total: int, pipeline_index: int,
                       run: QueryRun, gate) -> int:
        """Invoke the pipeline morsel by morsel; returns the morsel count."""
        instance, compiled = executable.instance, executable.compiled
        rows, trace = executable.rows, run.trace
        morsel = 0
        morsel_counter = get_registry().counter(
            "wasm_morsels_total", "Morsels executed, by tier"
        )
        while begin < total:
            tier = instance.tier_of(info.function)
            if tier == "stencil":
                # warmup morsels: stencil code starts instantly but runs
                # slower than compiled code, so bound the work done per
                # call — first rows surface sooner AND the tier-up meter
                # gets to compare time spent against compile cost after
                # little work, at the next call boundary
                size = max(self.morsel_size // 16, 256)
            else:
                size = self.morsel_size
            end = min(begin + size, total)
            try:
                if gate is not None:
                    gate(pipeline_index, morsel)
                if trace is None:
                    instance.invoke(info.function, begin, end)
                else:
                    with trace_span(trace, "morsel",
                                    pipeline=pipeline_index, morsel=morsel,
                                    begin=begin, end=end, tier=tier):
                        instance.invoke(info.function, begin, end)
            except Trap as trap:
                # locate the trap for the caller: which phase, which
                # pipeline, which morsel (raw traps carry none of that)
                if trap.phase is None:
                    trap.phase = "execution"
                    trap.pipeline_index = pipeline_index
                    trap.morsel = morsel
                raise
            morsel_counter.inc(tier=tier)
            if info.is_final:
                self._drain(instance, compiled, rows)
                if info.limit_total is not None and self._read_global(
                    instance, info.limit_global
                ) >= info.limit_total:
                    morsel += 1
                    break
            begin = end
            morsel += 1
        return morsel

    def _source_rows(self, instance, compiled: CompiledQuery, info) -> int:
        if info.source_kind == "scan":
            return compiled.memory.row_counts[info.source_name]
        if info.source_kind == "scalar":
            return 1
        # hash-table entries or sort-array rows: read the exported count
        return self._read_global(instance, f"{info.source_name}_count")

    @staticmethod
    def _read_global(instance, export_name: str) -> int:
        export = instance.module.export_by_name(export_name)
        return instance.globals[export.index]

    @staticmethod
    def _write_global(instance, export_name: str, value: int) -> None:
        export = instance.module.export_by_name(export_name)
        instance.globals[export.index] = value

    def _drain(self, instance, compiled: CompiledQuery, rows: list) -> None:
        """Read packed rows out of the rewired result window."""
        count = self._read_global(instance, "result_count")
        if count == 0:
            return
        layout = compiled.result_layout
        base = compiled.memory.result_base
        raw = instance.memory.read_bytes(base, count * layout.stride)
        fields = [layout.field(f"o{i}")
                  for i in range(len(compiled.output_types))]
        formats = []
        for f in fields:
            if f.ty.is_string:
                formats.append(None)
            else:
                formats.append({
                    ("i32", 1): "<b", ("i32", 4): "<i",
                    ("i64", 8): "<q", ("f64", 8): "<d",
                }[(f.ty.wasm_type, f.ty.size)])
        for r in range(count):
            offset = r * layout.stride
            row = []
            for f, fmt in zip(fields, formats):
                if fmt is None:
                    row.append(raw[offset + f.offset:
                                   offset + f.offset + f.ty.size])
                else:
                    row.append(
                        struct.unpack_from(fmt, raw, offset + f.offset)[0]
                    )
            rows.append(tuple(row))
        self._write_global(instance, "result_count", 0)

    # -- introspection helpers (examples, tests) -----------------------------------

    def explain_wasm(self, plan: P.PhysicalOperator, catalog: Catalog) -> str:
        """The generated module as WAT text plus the pipeline summary."""
        from repro.wasm.wat import module_to_wat

        timings = Timings()
        compiled, _ = self.compile_query(plan, catalog, timings)
        lines = [p.describe() for p in dissect_into_pipelines(plan)]
        return "\n".join(lines) + "\n\n" + module_to_wat(compiled.module)
