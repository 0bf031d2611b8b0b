"""The traced run: replay a sample of a workload's statements stage by
stage through the program's *public* functions, with a benchmark-side
span around each call, and turn the spans into per-layer metrics.

Layer = ``src/repro/<module>``.  Nothing inside ``src/`` is
instrumented: besides the spans, only outputs that are already public
are read (``result.timings.phases``, ``result.plan_cache``,
``result.scheduler_wait_seconds``, ``engine.last_pipeline_stats``,
``engine.last_tier_stats``, cache/feedback stats, the metrics
registry).  Durations the program reports itself become child spans of
the call that reported them, so a layer's self time is still "span
minus children".

Per sampled statement of a ``Database`` workload: the staged path
(tokenize, parse, analyze, the four planning calls, then
``WasmEngine.execute`` on an engine this harness holds), a probe that
translates once more to encode and validate the module, and the plain
``Database.execute`` the workload really sends.  Per sampled statement
of a service workload: ``QueryService.execute`` itself, and — once per
distinct text — the same staged path over the statement's SELECT, which
is what a plan-cache miss of it costs.
"""

from __future__ import annotations

import copy
import time
from collections import Counter

from repro.engines.base import Timings
from repro.observability.metrics import get_registry
from repro.plan.analysis import analyze_plan
from repro.plan.builder import build_logical_plan
from repro.plan.optimizer import optimize
from repro.plan.physical import EmptyResult, create_physical_plan
from repro.plan.pipeline import dissect_into_pipelines
from repro.server.plancache import fingerprint_tokens
from repro.sql.analyzer import analyze
from repro.sql.lexer import tokenize
from repro.sql.parser import parse
from repro.wasm.analysis.cfg import assign_offsets
from repro.wasm.encoder import encode_module
from repro.wasm.validator import validate_module

from benchmarks.ledger import stats
from benchmarks.ledger.harness import (
    Executed,
    build,
    run_timed,
    send,
    verify,
)
from benchmarks.ledger.metrics import PER_LAYER
from benchmarks.ledger.oracle import Oracle
from benchmarks.ledger.spans import SpanRecorder, self_times
from benchmarks.ledger.workloads import Statement, Workload

__all__ = ["run_traced"]

now = time.perf_counter
PHASE_LAYER = {
    "translation": "backend.translate",
    "compile_stencil": "wasm.compile_stencil",
    "compile_liftoff": "wasm.compile_liftoff",
    "compile_turbofan": "wasm.compile_turbofan",
    "execution": "engines.wasm.execute",
}
REFERENCE_ENGINES = ("vectorized", "volcano", "hyper")
LADDER_TIERS = ("interpreter", "stencil", "liftoff", "turbofan")
MAX_DISTINCT_STAGED = 40


def _counter(name: str) -> dict[str, float]:
    return get_registry().as_dict().get(name, {}).get("values", {})


class _MorselTally:
    """Morsels per tier (``wasm_morsels_total{tier}``) driven inside the
    ``with`` blocks only — the workload's own calls, not the probes."""

    def __init__(self):
        self.by_tier: Counter = Counter()

    def __enter__(self):
        self._before = _counter("wasm_morsels_total")
        return self

    def __exit__(self, *exc):
        for label, value in _counter("wasm_morsels_total").items():
            self.by_tier[label] += value - self._before.get(label, 0)


def _operators(plan) -> int:
    return 1 + sum(_operators(child) for child in plan.children)


def _phase_children(rec: SpanRecorder, parent, phases: dict,
                    at: float | None = None) -> None:
    """Lay the durations the program reported for this call under its
    span, back to back from ``at`` (default: the span's start)."""
    at = parent.start if at is None else at
    for phase, seconds in phases.items():
        if seconds > 0:
            rec.child(parent, PHASE_LAYER.get(phase, f"phase.{phase}"),
                      at, seconds)
            at += seconds


class _Replay:
    """The span recorder plus the per-statement numbers spans cannot
    carry (counts read from public outputs)."""

    def __init__(self, front, oracle: Oracle):
        self.front = front
        self.oracle = oracle
        self.rec = SpanRecorder()
        self.counts: dict[str, list[float]] = {}
        self.failures: Counter = Counter()
        self.attempted = 0
        self.morsels = _MorselTally()
        self.plain_s: dict[str, list[float]] = {}   # SELECT text -> latencies
        self.sent_spans: list[int] = []     # the workload's own calls
        self.hit_spans: list[int] = []      # ... those served from the cache
        self.rows_driven: dict[str, int] = {}

    def note(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(value)

    def median(self, name: str) -> float:
        values = self.counts.get(name)
        return stats.median(values) if values else 0.0

    def check(self, done: Executed) -> None:
        self.attempted += 1
        self.failures.update(verify([done], self.oracle).values())

    def timed(self, name: str, index: int | None, call, *args):
        with self.rec.span(name, index):
            return call(*args)

    # -- the staged path ------------------------------------------------------

    def front_end(self, stmt: Statement, index: int):
        """tokenize / parse / analyze / plan, one span per public call;
        returns the physical plan of the statement's SELECT and the
        seconds the calls on ``Database.execute``'s path took."""
        rec, catalog = self.rec, self.front.db.catalog
        tokens = self.timed("sql.tokenize", index, tokenize, stmt.sql)
        self.note("sql.tokens_per_s", len(tokens) / rec.spans[-1].duration)
        self.timed("server.fingerprint", index,
                   lambda: fingerprint_tokens(tokenize(stmt.sql)))
        on_path = len(rec.spans)
        self.timed("sql.parse", index, parse, stmt.sql)
        select = parse(stmt.ref_sql)   # an EXECUTE's underlying SELECT
        self.timed("sql.analyze", index, analyze, select, catalog)
        logical = self.timed("plan.build", index,
                             build_logical_plan, select, catalog)
        optimized = self.timed("plan.optimize", index,
                               optimize, logical, catalog)
        analysis = self.timed("plan.analysis", index,
                              analyze_plan, optimized, catalog)
        plan = self.timed("plan.physical", index,
                          create_physical_plan, optimized, catalog)
        seconds = sum(span.duration for span in rec.spans[on_path:])
        plan.analysis = analysis
        self.note("plan.operators", _operators(plan))
        self.note("plan.pipelines", len(dissect_into_pipelines(plan)))
        return plan, seconds

    def engine_execute(self, stmt: Statement, plan, index: int):
        """Run the plan on a Wasm engine this harness holds, so the
        per-pipeline and tier statistics of the run can be read."""
        db = self.front.db
        engine = copy.copy(db.resolve_engine(db.default_engine))
        with self.rec.span("engine.execute", index) as span:
            result = engine.execute(plan, db.catalog)
        _phase_children(self.rec, span, result.timings.phases)
        rows_in = sum(p["rows_in"] for p in engine.last_pipeline_stats)
        self.rows_driven[stmt.ref_sql] = rows_in
        tiers = engine.last_tier_stats
        self.note("engines.wasm.morsels", engine.last_morsels_total)
        self.note("wasm.tier_ups", tiers.tier_ups)
        self.note("wasm.tier_up_failures", tiers.tier_up_failures)
        self.note("wasm.bounds_checks_elided", tiers.bounds_checks_elided)
        lookups = tiers.stencil_cache_hits + tiers.stencil_cache_misses
        if lookups:
            self.note("wasm.stencil_cache_hit_ratio",
                      tiers.stencil_cache_hits / lookups)
        return result, span.duration

    def module_probe(self, plan, index: int) -> None:
        """Translate once more to get hold of the module, then time its
        encoding and validation on their own."""
        if isinstance(plan, EmptyResult):
            return  # folded: nothing is generated for it
        db = self.front.db
        engine = copy.copy(db.resolve_engine(db.default_engine))
        compiled, _ = self.timed(
            "backend.compile_query", index, engine.compile_query,
            plan, db.catalog, Timings())
        module = compiled.module
        binary = self.timed("wasm.encode", index, encode_module, module)
        self.timed("wasm.validate", index, validate_module, module)
        self.note("backend.module_bytes", len(binary))
        self.note("backend.module_functions", len(module.functions))
        self.note("backend.module_instructions", sum(
            len(assign_offsets(f.body)) for f in module.functions))

    def staged(self, stmt: Statement, index: int):
        """The whole staged path; returns (result, front-end seconds,
        path seconds)."""
        plan, front_end_s = self.front_end(stmt, index)
        result, execute_s = self.engine_execute(stmt, plan, index)
        self.module_probe(plan, index)
        return result, front_end_s, front_end_s + execute_s

    def note_execution(self, stmt: Statement, result) -> None:
        """What the workload's own call reported about the engine."""
        self.note("engines.wasm.result_rows", len(result.rows))
        rows_in = self.rows_driven.get(stmt.ref_sql)
        if rows_in:
            self.note("engines.wasm.ns_per_row",
                      result.timings.execution * 1e9 / rows_in)

    # -- one statement through each front door ------------------------------

    def database_statement(self, stmt: Statement, index: int) -> None:
        rec = self.rec
        result, front_end_s, path_s = self.staged(stmt, index)
        self.check(Executed(stmt, result, path_s))
        with self.morsels, rec.span("db.execute", index) as whole:
            done = send(self.front, stmt)
        self.check(done)
        if done.raised:
            return
        # Database.execute's children: the front end at its staged cost,
        # then the phases it reports; what is left is its own glue
        rec.child(whole, "front_end.as_staged", whole.start, front_end_s)
        _phase_children(rec, whole, done.outcome.timings.phases,
                        whole.start + front_end_s)
        self.sent_spans.append(whole.id)
        self.plain_s.setdefault(stmt.ref_sql, []).append(done.seconds)
        self.note("bench.trace_overhead_ratio", path_s / done.seconds)
        self.note_execution(stmt, done.outcome)

    def service_statement(self, stmt: Statement, index: int) -> None:
        rec = self.rec
        if stmt.is_write:
            with rec.span("storage.insert", index):
                done = send(self.front, stmt)
            self.check(done)
            return
        with self.morsels, rec.span("service.execute", index) as span:
            done = send(self.front, stmt)
        self.check(done)
        if done.raised:
            return
        result = done.outcome
        # the replay has one client, so the wait is the admission wait
        # and the engine's phases start after it
        wait = result.scheduler_wait_seconds
        rec.child(span, "server.scheduler_wait", span.start, wait)
        _phase_children(rec, span, result.timings.phases, span.start + wait)
        self.sent_spans.append(span.id)
        if result.plan_cache == "hit":
            self.hit_spans.append(span.id)
        self.plain_s.setdefault(stmt.ref_sql, []).append(done.seconds)
        self.note("bench.trace_overhead_ratio", span.duration / done.seconds)
        self.note("server.scheduler_wait_ms", wait * 1000.0)
        self.note(f"server.{result.plan_cache}_p50_ms", span.duration * 1000.0)
        if stmt.ref_sql not in self.rows_driven \
                and len(self.rows_driven) < MAX_DISTINCT_STAGED:
            self.staged(stmt, index)
        self.note_execution(stmt, result)


def _reference_engines(replay: _Replay, sample: list[Statement]) -> dict:
    """engine -> SELECT text -> seconds, each distinct text once."""
    db = replay.front.db
    seconds: dict[str, dict[str, float]] = {e: {} for e in REFERENCE_ENGINES}
    for sql in dict.fromkeys(s.ref_sql for s in sample if not s.is_write):
        for engine in REFERENCE_ENGINES:
            replay.timed(f"engines.{engine}.stmt", None,
                         db.execute, sql, engine)
            seconds[engine][sql] = replay.rec.spans[-1].duration
    return seconds


def _ladder_inversions(db, queries: list[str]) -> int:
    """Each query once per forced tier; rungs slower than the rung
    below them."""
    inversions = 0
    for sql in queries:
        seconds = []
        for tier in LADDER_TIERS:
            start = now()
            db.execute(sql, engine=f"wasm[{tier}]")
            seconds.append(now() - start)
        inversions += sum(above > below
                          for below, above in zip(seconds, seconds[1:]))
    return inversions


def _trace_on(replay: _Replay, sample: list[Statement]) -> None:
    """``execute(trace=True)`` against the plain call, statement by
    statement, plus the events one traced statement records."""
    db = replay.front.db
    for stmt in sample:
        start = now()
        db.execute(stmt.sql)
        plain_s = now() - start
        start = now()
        traced = db.execute(stmt.sql, trace=True)
        replay.note("observability.trace_on_ratio", (now() - start) / plain_s)
        replay.note("observability.events_per_stmt", len(traced.trace.events))


def _feedback_off_ratio(workload: Workload, seed: int,
                        seconds: float) -> float:
    """qps of a quarter-length run on ``QueryService(feedback=False)``
    over the same run on the default service (both on fresh fronts)."""
    qps = []
    for options in ({}, {"feedback": False}):
        front, _ = build(workload, seed, **options)
        for stmt in workload.warm_stream(seed, seconds / 4):
            send(front, stmt)
        window = run_timed(
            front, workload, workload.streams(seed, seconds / 4))
        front.close()
        qps.append(sum(not e.raised for e in window.executed)
                   / window.wall)
    return qps[1] / qps[0]


def _shared_metrics(replay: _Replay, m: dict) -> None:
    """Metrics read the same way whichever front door the workload uses."""
    rec = replay.rec

    def median_ms(name: str) -> float:
        values = rec.durations(name)
        return stats.median(values) * 1000.0 if values else 0.0

    for layer in ("sql.parse", "sql.analyze", "plan.build", "plan.optimize",
                  "plan.analysis", "plan.physical", "wasm.encode",
                  "wasm.validate", "storage.insert"):
        m[f"{layer}_ms"] = median_ms(layer)
    m["backend.translate_ms"] = median_ms("backend.compile_query")
    m["server.fingerprint_us"] = median_ms("server.fingerprint") * 1000.0
    m["server.write_p50_ms"] = m["storage.insert_ms"]
    for name in ("sql.tokens_per_s", "plan.operators", "plan.pipelines",
                 "backend.module_bytes", "backend.module_functions",
                 "backend.module_instructions", "wasm.stencil_cache_hit_ratio",
                 "wasm.tier_ups", "wasm.tier_up_failures",
                 "wasm.bounds_checks_elided", "engines.wasm.morsels",
                 "engines.wasm.result_rows", "engines.wasm.ns_per_row",
                 "server.scheduler_wait_ms", "server.hit_p50_ms",
                 "server.miss_p50_ms", "bench.trace_overhead_ratio",
                 "observability.trace_on_ratio",
                 "observability.events_per_stmt"):
        m[name] = replay.median(name)

    # What the workload's own calls paid: compile phases as a mean per
    # statement sent (sparse misses must show), execution as a median.
    sent = set(replay.sent_spans)
    paid = [s for s in rec.spans if s.parent in sent]
    for tier in ("stencil", "liftoff", "turbofan"):
        total = sum(s.duration for s in paid
                    if s.name == f"wasm.compile_{tier}")
        m[f"wasm.compile_{tier}_ms"] = total * 1000.0 / len(sent) if sent else 0.0
    executions = [s.duration for s in paid if s.name == "engines.wasm.execute"]
    if executions:
        m["engines.wasm.execute_ms"] = stats.median(executions) * 1000.0
    total_morsels = sum(replay.morsels.by_tier.values())
    for label, morsels in replay.morsels.by_tier.items():
        for tier in ("interp", "stencil", "liftoff", "turbofan"):
            if tier in label and total_morsels:
                m[f"engines.wasm.morsel_share_{tier}"] += morsels / total_morsels


def _service_metrics(replay: _Replay, selfs: dict, m: dict) -> None:
    service = replay.front.service
    if replay.hit_spans:
        m["server.overhead_ms"] = stats.median(
            selfs[i] for i in replay.hit_spans) * 1000.0
    cache = service.cache.stats  # a property, unlike feedback.stats()
    lookups = cache["hits"] + cache["misses"]
    m["server.plancache_hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    m["server.plancache_invalidations"] = cache["invalidations"]
    m["server.plancache_evictions"] = cache["evictions"]
    # this fresh process's totals so far: warm-up plus replay
    m["feedback.replans"] = sum(_counter("feedback_replans_total").values())
    m["feedback.reroutes"] = sum(_counter("feedback_reroutes_total").values())
    m["feedback.pinned_interp_pipelines"] = sum(
        ladder == "interp"
        for tracked in service.feedback.stats()["fingerprints"].values()
        for ladder in tracked["route"].values())


def run_traced(workload: Workload, seed: int, seconds: float,
               trace_out: str | None = None) -> dict:
    front, generate_s = build(workload, seed)
    warm = [send(front, stmt)
            for stmt in workload.warm_stream(seed, seconds)]
    oracle = Oracle(workload.tables(seed))
    warm_failed = Counter(verify(warm, oracle).values())

    sample = workload.streams(seed, seconds)[0][:workload.trace_sample]
    replay = _Replay(front, oracle)
    one = replay.database_statement if workload.front == "database" \
        else replay.service_statement
    for index, stmt in enumerate(sample):
        one(stmt, index)

    if workload.front == "database":
        _trace_on(replay, sample[:workload.block])
    reference_s = _reference_engines(replay, sample)

    m = {metric.name: 0.0 for metric in PER_LAYER}
    selfs = self_times(replay.rec.spans)
    _shared_metrics(replay, m)
    if workload.front == "database":
        if replay.sent_spans:
            m["db.glue_ms"] = stats.median(
                selfs[i] for i in replay.sent_spans) * 1000.0
    else:
        _service_metrics(replay, selfs, m)
        m["feedback.off_qps_ratio"] = _feedback_off_ratio(
            workload, seed, seconds)
    # the reference engines on the same texts; the ratio pairs each text's
    # plain default-engine latency with its vectorized time
    for engine, by_sql in reference_s.items():
        m[f"engines.{engine}.stmt_ms"] = stats.median(by_sql.values()) * 1000.0
    if replay.plain_s:
        m["engines.wasm_vs_vectorized_ratio"] = stats.median(
            stats.median(seconds) / reference_s["vectorized"][sql]
            for sql, seconds in replay.plain_s.items())
    if workload.name == "tpch_adhoc":
        by_class = {s.cls: s.sql for s in sample}
        ladder = ("q1", "q6") if seconds >= 10 else ("q6",)
        m["engines.wasm.ladder_inversions"] = _ladder_inversions(
            front.db, [by_class[q] for q in ladder])
    m["storage.generate_s"] = generate_s
    m["bench.warmup_failed"] = sum(warm_failed.values())
    front.close()
    if trace_out:
        replay.rec.write(trace_out)

    self_by_name: Counter = Counter()
    for span in replay.rec.spans:
        self_by_name[span.name] += selfs[span.id]
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "metrics": {name: {"value": value} for name, value in m.items()},
        "attempted_timed": replay.attempted,
        "failed_timed": sum(replay.failures.values()),
        "failures": dict(replay.failures),
        "warmup_failures": dict(warm_failed),
        "spans": len(replay.rec.spans),
        "self_time_s": dict(self_by_name.most_common()),
    }
