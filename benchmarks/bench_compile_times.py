"""Section 8.3 compile-time table: per-query, per-tier compilation times.

Breaks compilation into the paper's phases for each TPC-H query:

* mutable: QEP->Wasm translation, stencil assembly, Liftoff, TurboFan,
* HyPer:   QEP->HIR translation, bytecode generation, O0, O2.

Within each system the paper's ordering holds: bytecode generation is
nearly free, the baseline tier (Liftoff / O0) is cheap, the optimizing
tier costs more — and below all of them the tier-0 stencil *assembly*
(concatenate + patch pre-compiled stencils, no codegen at all) is an
order of magnitude cheaper than even Liftoff, which is what buys the
cold first-result latency reported by ``measure_cold_first_result``.
The *cross-system* ratio (paper: TurboFan 6.6x faster than LLVM O2)
does not transfer to this substrate because our O2 stand-in is orders
of magnitude cheaper than real LLVM — the table reports
per-IR-instruction costs to make that comparison explicit.

``python benchmarks/bench_compile_times.py [--json]`` prints the table
(or a machine-readable JSON document; CI archives it as an artifact).
Either way it exits non-zero when the TurboFan : Liftoff cost ratio of
the rates the engine's tier-up estimates are seeded with
(``SEED_COMPILE_RATES``) is more than 2x off the ratio measured here —
a machine-independent check, so the priors cannot rot unnoticed.
"""

import argparse
import gc
import json
import sys
import time
from contextlib import contextmanager

import pytest

from repro.bench.tpch import QUERIES, tpch_database
from repro.engines.base import Timings
from repro.engines.hyper.compile import compile_o0, compile_o2
from repro.engines.hyper.hir import flatten_to_bytecode
from repro.engines.hyper.irgen import generate_hir
from repro.engines.wasm_engine import WasmEngine
from repro.sql.analyzer import analyze
from repro.sql.parser import parse
from repro.observability.trace import QueryTrace
from repro.wasm.runtime.engine import SEED_COMPILE_RATES
from repro.wasm.runtime.liftoff import LiftoffCompiler
from repro.wasm.runtime.turbofan import TurboFanCompiler
from repro.wasm.stencil import assemble_module, reset_stencil_cache


def _plan(db, sql):
    stmt = parse(sql)
    analyze(stmt, db.catalog)
    return db.plan(stmt)


@contextmanager
def _gc_paused():
    """Keep collector pauses out of sub-millisecond timing windows."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def measure_query(db, sql, repeats: int = 3,
                  reduce: str = "median") -> dict[str, float]:
    """Compile-phase times in milliseconds (median of repeats).

    ``reduce="min"`` reports best-of-repeats instead — the right
    statistic when asserting *algorithmic* cost ratios, since a GC
    pause inside a sub-millisecond phase can poison a 3-sample median.
    """
    plan = _plan(db, sql)

    def median(samples):
        if reduce == "min":
            return min(samples) * 1000
        samples = sorted(samples)
        return samples[len(samples) // 2] * 1000

    out = {}
    # mutable: translation + every tier over all functions
    translations, stencils, liftoffs, turbofans = [], [], [], []
    with _gc_paused():
        _measure_wasm_phases(db, plan, repeats, translations, stencils,
                             liftoffs, turbofans)
    out["wasm_translate"] = median(translations)
    out["stencil"] = median(stencils)
    out["liftoff"] = median(liftoffs)
    out["turbofan"] = median(turbofans)

    # hyper: HIR generation + bytecode + O0 + O2
    hirgens, bytecodes, o0s, o2s = [], [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        program = generate_hir(plan)
        hirgens.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for p in program.pipelines:
            flatten_to_bytecode(p.function)
        bytecodes.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for p in program.pipelines:
            compile_o0(p.function)
        o0s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for p in program.pipelines:
            compile_o2(p.function)
        o2s.append(time.perf_counter() - t0)
    out["hir_translate"] = median(hirgens)
    out["bytecode"] = median(bytecodes)
    out["o0"] = median(o0s)
    out["o2"] = median(o2s)
    return out


def _measure_wasm_phases(db, plan, repeats, translations, stencils,
                         liftoffs, turbofans):
    for _ in range(repeats):
        t0 = time.perf_counter()
        compiled, _space = WasmEngine().compile_query(
            plan, db.catalog, Timings()
        )
        translations.append(time.perf_counter() - t0)
        module = compiled.module
        # time the raw assembly pass (no cache): the honest tier-0 cost
        t0 = time.perf_counter()
        assemble_module(module)
        stencils.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for i, fn in enumerate(module.functions):
            LiftoffCompiler(module).compile(fn, len(module.imports) + i)
        liftoffs.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for i, fn in enumerate(module.functions):
            TurboFanCompiler(module).compile(fn, len(module.imports) + i)
        turbofans.append(time.perf_counter() - t0)


def _module_sizes(db, sql) -> tuple[int, int]:
    """(Wasm instructions incl. generated library, HIR instructions)."""
    plan = _plan(db, sql)
    compiled, _ = WasmEngine().compile_query(plan, db.catalog, Timings())
    wasm_instrs = sum(f.instruction_count()
                      for f in compiled.module.functions)
    program = generate_hir(plan)
    hir_instrs = sum(p.function.instruction_count()
                     for p in program.pipelines)
    return wasm_instrs, hir_instrs


def measure_cold_first_result(db, sql, repeats: int = 3) -> dict[str, float]:
    """Milliseconds from the start of compilation to the end of the
    first executed morsel, per adaptive mode — the cold-start latency
    the stencil tier exists to cut.  The stencil cache is dropped
    before every run so ``adaptive_stencil`` pays honest assembly."""
    plan = _plan(db, sql)
    out = {}
    for mode in ("adaptive", "adaptive_stencil"):
        samples = []
        for _ in range(repeats):
            reset_stencil_cache()
            trace = QueryTrace()
            WasmEngine(mode=mode).execute(plan, db.catalog, trace=trace)
            compile_start = min(
                e.start for e in trace.events
                if e.kind.startswith("compile.")
            )
            first_morsel = min(
                (e.end for e in trace.events
                 if e.kind == "morsel" and e.end is not None),
                default=compile_start,
            )
            samples.append(first_morsel - compile_start)
        samples.sort()
        out[mode] = samples[len(samples) // 2] * 1000
    return out


def measurements(scale_factor=0.002) -> dict:
    """Every number the table (and the CI artifact) is built from."""
    db = tpch_database(scale_factor=scale_factor)
    queries = {}
    for name, sql in QUERIES.items():
        m = measure_query(db, sql)
        wasm_instrs, hir_instrs = _module_sizes(db, sql)
        cold = measure_cold_first_result(db, sql)
        queries[name] = {
            "phases_ms": m,
            "wasm_instructions": wasm_instrs,
            "hir_instructions": hir_instrs,
            "liftoff_us_per_instr":
                m["liftoff"] * 1000 / max(wasm_instrs, 1),
            "turbofan_us_per_instr":
                m["turbofan"] * 1000 / max(wasm_instrs, 1),
            "o2_us_per_instr": m["o2"] * 1000 / max(hir_instrs, 1),
            "stencil_vs_liftoff_speedup": m["liftoff"] / m["stencil"],
            "cold_first_result_ms": cold,
        }
    return {"scale_factor": scale_factor, "queries": queries,
            "compile_rates": _compile_rates(queries)}


def _compile_rates(queries: dict) -> dict:
    """The engine's seeded per-instruction rates beside the ones measured
    here (instruction-weighted over all queries), and both TurboFan :
    Liftoff ratios — the figure :func:`seed_drift` judges."""
    instrs = sum(q["wasm_instructions"] for q in queries.values())
    measured = {
        tier: sum(q["phases_ms"][tier] for q in queries.values())
        * 1000 / max(instrs, 1)
        for tier in ("liftoff", "turbofan")
    }
    seeded = {tier: rate * 1e6 for tier, rate in SEED_COMPILE_RATES.items()}
    return {
        "seeded_us_per_instr": seeded,
        "measured_us_per_instr": measured,
        "seeded_ratio": seeded["turbofan"] / seeded["liftoff"],
        "measured_ratio": measured["turbofan"] / measured["liftoff"],
    }


def seed_drift(data: dict, tolerance: float = 2.0) -> str | None:
    """A complaint when the seeded TurboFan : Liftoff ratio is more than
    ``tolerance`` x off the measured one, else ``None``."""
    rates = data["compile_rates"]
    off = rates["seeded_ratio"] / rates["measured_ratio"]
    if 1 / tolerance <= off <= tolerance:
        return None
    return (
        f"SEED_COMPILE_RATES has TurboFan at {rates['seeded_ratio']:.2f}x "
        f"Liftoff per instruction, measured {rates['measured_ratio']:.2f}x: "
        f"re-seed repro.wasm.runtime.engine.SEED_COMPILE_RATES"
    )


def compile_table(scale_factor=0.002, data: dict | None = None) -> str:
    data = data if data is not None else measurements(scale_factor)
    lines = [
        "== compile times per TPC-H query (ms, median of 3) ==",
        "NOTE: mutable compiles the whole module INCLUDING the ad-hoc",
        "generated library (hash tables, quicksort); HyPer's HIR is tiny",
        "because its library is pre-compiled.  Our O2 stand-in is far",
        "cheaper than real LLVM, so absolute tf/o2 ratios invert here;",
        "the per-IR-instruction costs (last two columns) are comparable,",
        "and real LLVM costs 10-50x more per instruction than TurboFan.",
        "stencil is tier-0 *assembly* (no codegen): pre-compiled stencils",
        "concatenated and patched, the code a cold query's first morsel",
        "runs on.",
        f"{'query':<6} {'translate':>10} {'stencil':>8} {'liftoff':>8}"
        f" {'turbofan':>9} | {'hir':>7} {'bytecode':>9} {'o0':>7} {'o2':>7}"
        f" | {'tf us/in':>9} {'o2 us/in':>9}",
    ]
    for name, q in data["queries"].items():
        m = q["phases_ms"]
        lines.append(
            f"{name:<6} {m['wasm_translate']:10.2f} {m['stencil']:8.2f}"
            f" {m['liftoff']:8.2f}"
            f" {m['turbofan']:9.2f} | {m['hir_translate']:7.2f}"
            f" {m['bytecode']:9.2f} {m['o0']:7.2f} {m['o2']:7.2f}"
            f" | {q['turbofan_us_per_instr']:9.2f}"
            f" {q['o2_us_per_instr']:9.2f}"
        )
    rates = data["compile_rates"]
    lines.append("")
    lines.append("== tier-up estimate rates (us per Wasm instruction) ==")
    for source in ("seeded", "measured"):
        per_instr = rates[f"{source}_us_per_instr"]
        lines.append(
            f"{source:<9} liftoff {per_instr['liftoff']:6.2f}"
            f"  turbofan {per_instr['turbofan']:6.2f}"
            f"  ratio {rates[f'{source}_ratio']:5.2f}"
        )
    lines.append("")
    lines.append("== cold first-result latency (ms, compile start ->"
                 " first morsel done) ==")
    lines.append(f"{'query':<6} {'adaptive':>9} {'adaptive_stencil':>17}"
                 f" {'speedup':>8}")
    for name, q in data["queries"].items():
        cold = q["cold_first_result_ms"]
        speedup = cold["adaptive"] / max(cold["adaptive_stencil"], 1e-9)
        lines.append(
            f"{name:<6} {cold['adaptive']:9.2f}"
            f" {cold['adaptive_stencil']:17.2f} {speedup:7.2f}x"
        )
    return "\n".join(lines)


# -- pytest-benchmark targets ----------------------------------------------------

@pytest.fixture(scope="module")
def db():
    return tpch_database(scale_factor=0.002)


def test_compile_q1_liftoff(benchmark, db):
    plan = _plan(db, QUERIES["q1"])
    compiled, _ = WasmEngine().compile_query(plan, db.catalog, Timings())
    module = compiled.module

    def compile_all():
        for i, fn in enumerate(module.functions):
            LiftoffCompiler(module).compile(fn, len(module.imports) + i)

    benchmark(compile_all)


def test_compile_q1_turbofan(benchmark, db):
    plan = _plan(db, QUERIES["q1"])
    compiled, _ = WasmEngine().compile_query(plan, db.catalog, Timings())
    module = compiled.module

    def compile_all():
        for i, fn in enumerate(module.functions):
            TurboFanCompiler(module).compile(fn, len(module.imports) + i)

    benchmark(compile_all)


def test_compile_q1_hyper_o2(benchmark, db):
    plan = _plan(db, QUERIES["q1"])
    program = generate_hir(plan)

    def compile_all():
        for p in program.pipelines:
            compile_o2(p.function)

    benchmark(compile_all)


def test_within_system_tier_orderings(db):
    """The architecture-relevant orderings that transfer to our substrate:
    each system's cheap path is cheaper than its optimizing path, and the
    bytecode path is nearly free (that is why HyPer interprets first)."""
    for name, sql in QUERIES.items():
        m = measure_query(db, sql, repeats=5, reduce="min")
        assert m["liftoff"] < m["turbofan"], name
        assert m["bytecode"] < m["o0"] < m["o2"], name
        # HyPer can start interpreting orders of magnitude sooner than
        # its optimized code is ready — the premise of adaptive execution
        assert m["bytecode"] * 10 < m["o2"], name
        # tier-0 assembly must beat even the baseline compiler by an
        # order of magnitude, or the extra rung isn't paying rent
        assert m["stencil"] * 10 < m["liftoff"], (
            f"{name}: stencil {m['stencil']:.3f}ms vs "
            f"liftoff {m['liftoff']:.3f}ms"
        )


def test_cold_first_result_latency(db):
    """A cold query's first morsel lands sooner on the stencil ladder."""
    cold = measure_cold_first_result(db, QUERIES["q1"], repeats=3)
    assert cold["adaptive_stencil"] < cold["adaptive"], cold


def report(argv=None) -> tuple[str, str | None]:
    """The report text and the seed-drift complaint, if any."""
    parser = argparse.ArgumentParser(
        description="Per-tier compile-time breakdown over TPC-H"
    )
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of the "
                             "text table")
    parser.add_argument("--scale-factor", type=float, default=0.002)
    args = parser.parse_args(argv)
    data = measurements(scale_factor=args.scale_factor)
    if args.json:
        return json.dumps(data, indent=2, sort_keys=True), seed_drift(data)
    return compile_table(data=data), seed_drift(data)


def main(argv=None) -> str:
    return report(argv)[0]


if __name__ == "__main__":
    text, drift = report()
    print(text)
    if drift:
        sys.exit(drift)
