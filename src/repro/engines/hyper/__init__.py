"""The HyPer baseline: adaptive compilation with an LLVM-like pipeline.

Implements the first column of the paper's Figure 2a — HyPer with
adaptive execution [Kohn et al.]:

* the QEP is translated to HIR (the LLVM-IR role),
* path **H1** generates bytecode and starts *interpreting* immediately,
* path **H3** compiles the full ``O2`` optimization pipeline; in HyPer
  this runs on a background thread while interpretation makes progress —
  here it runs up front but its wall-clock cost is charged as overlap:
  execution interprets morsels until the measured O2 compile time has
  elapsed, then **switches morsel-wise** to optimized code,
* path **H2** (direct ``O0`` compilation) is available as a mode.

Complex operators (hash tables, sorting) call into the **pre-compiled
runtime library** through a type-agnostic interface — one call per
insert/probe and one *comparison callback per sort comparison* — the
costs the paper contrasts with mutable's ad-hoc generated code
(Listing 3, Section 5.1).
"""

from __future__ import annotations

import functools
import time

from repro.catalog.catalog import Catalog
from repro.costmodel import Profile
from repro.engines.aggstate import finalize_states, new_states
from repro.engines.base import ExecutionResult, QueryEngine, Stopwatch, Timings
from repro.engines.hyper.compile import compile_o0, compile_o2
from repro.engines.hyper.hir import BytecodeInterpreter, flatten_to_bytecode
from repro.engines.hyper.irgen import generate_hir
from repro.errors import EngineError
from repro.observability.trace import trace_span
from repro.plan import physical as P

__all__ = ["HyperEngine", "HyperRuntimeLibrary"]

_MORSEL = 16384


class HyperRuntimeLibrary:
    """The pre-compiled, type-agnostic runtime library.

    Each structure is identified by an integer id; keys and payloads
    cross the interface as opaque values — exactly the design whose
    per-element call overhead Section 5.1 analyzes.
    """

    def __init__(self, structures: list[tuple[str, dict]],
                 profile: Profile | None):
        self.profile = profile
        self.configs = structures
        self.state: list = [None] * len(structures)
        self._comparison_calls = 0
        self._entry_cache: dict[int, list] = {}

    def _ensure(self, sid: int):
        if self.state[sid] is None:
            kind, config = self.configs[sid]
            if kind == "join":
                self.state[sid] = {}
            elif kind == "group":
                self.state[sid] = {}
            elif kind == "scalar":
                self.state[sid] = new_states(config["aggregates"])
            elif kind == "sort" or kind == "nlj":
                self.state[sid] = []
            elif kind == "limit":
                self.state[sid] = [0]
        return self.state[sid]

    # -- joins --------------------------------------------------------------

    def join_insert(self, sid, *args):
        kind, config = self.configs[sid]
        n_keys = config["n_keys"]
        table = self._ensure(sid)
        key = args[:n_keys] if n_keys > 1 else args[0]
        table.setdefault(key, []).append(args[n_keys:])
        if self.profile is not None:
            self.profile.memory_bulk(
                f"hyper-join:{sid}", accesses=2, sequential=0,
                footprint=max(len(table) * 48, 1),
            )  # bucket + entry: two lines per insert

    _EMPTY: list = []

    def join_probe(self, sid, *keys):
        table = self._ensure(sid)
        key = keys if len(keys) > 1 else keys[0]
        if self.profile is not None:
            self.profile.memory_bulk(
                f"hyper-probe:{sid}", accesses=2, sequential=0,
                footprint=max(len(table) * 48, 1),
            )  # bucket + entry: two lines per probe
        return table.get(key, self._EMPTY)

    # -- grouping ------------------------------------------------------------

    def group_upsert(self, sid, *keys):
        kind, config = self.configs[sid]
        table = self._ensure(sid)
        key = keys if len(keys) > 1 else keys[0]
        entry = table.get(key)
        if entry is None:
            entry = table[key] = new_states(config["aggregates"])
        if self.profile is not None:
            self.profile.memory_bulk(
                f"hyper-group:{sid}", accesses=2, sequential=0,
                footprint=max(len(table) * 64, 1),
            )  # bucket + entry: two lines per upsert
        return entry

    def group_entries(self, sid):
        cached = self._entry_cache.get(sid)
        if cached is not None:
            return cached
        kind, config = self.configs[sid]
        table = self._ensure(sid)
        rows = []
        for key, entry in table.items():
            key_part = key if isinstance(key, tuple) else (key,)
            rows.append(key_part + tuple(
                finalize_states(entry, config["aggregates"])
            ))
        self._entry_cache[sid] = rows
        return rows

    # -- scalar aggregation --------------------------------------------------------

    def agg_state(self, sid):
        return self._ensure(sid)

    def agg_entries(self, sid):
        kind, config = self.configs[sid]
        entry = self._ensure(sid)
        return [tuple(finalize_states(entry, config["aggregates"]))]

    # -- sorting (comparison callbacks!) ----------------------------------------------

    def sort_append(self, sid, *args):
        self._ensure(sid).append(args)

    def sort_rows(self, sid):
        cached = self._entry_cache.get(sid)
        if cached is not None:
            return cached
        kind, config = self.configs[sid]
        rows = self._ensure(sid)
        n_cols = config["n_cols"]
        descending = config["descending"]

        def comparator(a, b) -> int:
            # every comparison is a callback through the type-agnostic
            # interface: Theta(n log n) calls, the paper's Section 4.3
            self._comparison_calls += 1
            if self.profile is not None:
                self.profile.indirect_calls += 1
                # the comparator body plus the argument spills through
                # memory the type-agnostic interface forces (Section 4.3:
                # values cannot be passed through registers)
                self.profile.instructions += 12
            for j, desc in enumerate(descending):
                ka, kb = a[n_cols + j], b[n_cols + j]
                if ka == kb:
                    continue
                less = -1 if ka < kb else 1
                return -less if desc else less
            return 0

        rows.sort(key=functools.cmp_to_key(comparator))
        if self.profile is not None and rows:
            # a pre-compiled sort moves elements with a generic memcpy
            # whose size is a runtime value (paper Section 4.3)
            import math

            n = len(rows)
            self.profile.add("sort_moves", n * math.log2(max(n, 2)))
        out = [row[:n_cols] for row in rows]
        self._entry_cache[sid] = out
        return out

    # -- nested loops / limits -------------------------------------------------------------

    def nlj_append(self, sid, *row):
        self._ensure(sid).append(row)

    def nlj_rows(self, sid):
        return self._ensure(sid)

    def limit_admit(self, sid) -> int:
        kind, config = self.configs[sid]
        counter = self._ensure(sid)
        seen = counter[0]
        counter[0] = seen + 1
        if seen < config["offset"]:
            return 0
        if config["limit"] is not None and \
                seen >= config["offset"] + config["limit"]:
            return 0
        return 1

    def limit_seen(self, sid) -> int:
        return self._ensure(sid)[0]


class HyperEngine(QueryEngine):
    """Adaptive interpretation + compilation (the HyPer baseline).

    Args:
        mode: ``"adaptive"`` (interpret, switch to O2 when its compile
            time has been amortized — Kohn et al.), ``"umbra"`` (start
            from fast direct O0 code — Umbra's Flying Start — and switch
            to O2, the third column of the paper's Figure 2a; Umbra has
            no interpreter), ``"interp"``, ``"o0"``, or ``"o2"``.
    """

    name = "hyper"
    modes = ("adaptive", "umbra", "interp", "o0", "o2")

    def __init__(self, mode: str = "adaptive", morsel_size: int = _MORSEL):
        self.mode = mode
        self.morsel_size = morsel_size

    def execute(self, plan: P.PhysicalOperator, catalog: Catalog,
                profile: Profile | None = None,
                trace=None, run=None) -> ExecutionResult:
        if isinstance(plan, P.EmptyResult):
            return self.execute_folded(plan, profile, trace)
        timings = Timings()
        with Stopwatch(timings, "translation"), \
                trace_span(trace, "translation", engine=self.name):
            program = generate_hir(plan)

        columns = []
        row_counts: dict[str, int] = {}
        with Stopwatch(timings, "translation"):
            for scan in _scans(plan):
                row_counts[scan.binding] = catalog.get(
                    scan.table_name
                ).row_count
            for binding, name in program.columns:
                table = self._table_for(plan, catalog, binding)
                if name.startswith("__index_rowids__"):
                    key_column = name[len("__index_rowids__"):]
                    columns.append(
                        table.index_on(key_column).row_ids.tolist()
                    )
                    continue
                columns.append(table.column(name).values.tolist())
                if profile is not None:
                    col = table.column(name)
                    profile.memory_bulk(
                        f"scan:{binding}:{name}",
                        accesses=len(col), sequential=len(col),
                        footprint=max(col.nbytes, 1),
                    )

        library = HyperRuntimeLibrary(program.structures, profile)
        results: list[tuple] = []
        instrumented = profile is not None

        bytecodes = {}
        if self.mode in ("adaptive", "interp"):
            with Stopwatch(timings, "compile_bytecode"):
                bytecodes = {
                    p.function.name: flatten_to_bytecode(p.function)
                    for p in program.pipelines
                }
        o0_fns = {}
        if self.mode in ("o0", "umbra"):
            with Stopwatch(timings, "compile_o0"):
                for p in program.pipelines:
                    compiled = compile_o0(p.function, instrumented)
                    o0_fns[p.function.name] = compiled.bind(
                        columns, library, results, profile
                    )
        o2_fns = {}
        o2_seconds = 0.0
        if self.mode in ("adaptive", "o2", "umbra"):
            start = time.perf_counter()
            for p in program.pipelines:
                compiled = compile_o2(p.function, instrumented)
                o2_fns[p.function.name] = compiled.bind(
                    columns, library, results, profile
                )
            o2_seconds = time.perf_counter() - start
            timings.add("compile_o2", o2_seconds)

        interpreter = BytecodeInterpreter(columns, library, results, profile)

        with Stopwatch(timings, "execution"), \
                trace_span(trace, "execution", engine=self.name):
            switched = 0
            gate = self.run_gate(run)
            for info in program.pipelines:
                switched += self._run_pipeline(
                    info, library, interpreter, bytecodes,
                    o0_fns, o2_fns, o2_seconds, row_counts,
                    plan, catalog, gate,
                )
        if profile is not None:
            profile.add("adaptive_switches", switched)

        result = self.finalize_rows(plan, results)
        result.engine = self.name
        result.timings = timings
        result.profile = profile
        result.trace = trace
        return result

    def _run_pipeline(self, info, library, interpreter, bytecodes,
                      o0_fns, o2_fns, o2_seconds: float,
                      row_counts: dict, plan, catalog, gate) -> int:
        if info.source_kind == "indexseek":
            table = self._table_for(plan, catalog, info.source_name)
            key, low, high, lstrict, hstrict = info.seek
            begin, total = table.index_on(key).positions(
                low, high, lstrict, hstrict
            )
        else:
            total = self._source_rows(info, library, row_counts)
            begin = 0
        name = info.function.name
        switched = 0
        exec_start = time.perf_counter()
        while begin < total:
            if gate is not None:
                gate()
            end = min(begin + self.morsel_size, total)
            if self.mode == "o0":
                o0_fns[name](begin, end)
            elif self.mode == "o2":
                o2_fns[name](begin, end)
            elif self.mode == "interp":
                interpreter.run(bytecodes[name],
                                info.function.n_registers, (begin, end))
            elif self.mode == "umbra":
                # Flying Start: run O0 code until the O2 compile has
                # amortized, then switch morsel-wise (Kersten et al.)
                elapsed = time.perf_counter() - exec_start
                if elapsed >= o2_seconds:
                    if switched == 0:
                        switched = 1
                    o2_fns[name](begin, end)
                else:
                    o0_fns[name](begin, end)
            else:  # adaptive: interpret until O2's compile time amortizes
                elapsed = time.perf_counter() - exec_start
                if elapsed >= o2_seconds:
                    if switched == 0:
                        switched = 1
                    o2_fns[name](begin, end)
                else:
                    interpreter.run(bytecodes[name],
                                    info.function.n_registers, (begin, end))
            if info.is_final and info.limit_total is not None:
                if library.limit_seen(info.limit_id) >= info.limit_total:
                    break
            begin = end
        return switched

    @staticmethod
    def _source_rows(info, library, row_counts: dict) -> int:
        if info.source_kind == "scan":
            return row_counts[info.source_name]
        if info.source_kind == "scalar":
            return 1
        sid = int(info.source_name)
        if info.source_kind == "group":
            return len(library.group_entries(sid))
        return len(library.sort_rows(sid))

    def _table_for(self, plan, catalog, binding: str):
        for scan in _scans(plan):
            if scan.binding == binding:
                return catalog.get(scan.table_name)
        raise EngineError(f"unknown binding {binding!r}")


def _scans(plan):
    if isinstance(plan, (P.SeqScan, P.IndexSeek)):
        yield plan
    for child in plan.children:
        yield from _scans(child)
