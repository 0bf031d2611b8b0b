"""Figure 10: TPC-H — compilation and execution phases per system.

For each of Q1, Q3, Q6, Q12, Q14 and each engine, reports the stacked
phases the paper plots: translation, per-tier compilation, and
execution (wall clock), plus the cost-model milliseconds.

Expected shape (Section 8.3): mutable's optimizing compilation
(TurboFan) is several times faster than HyPer's LLVM-like O2 pipeline;
its fast tier (Liftoff) is several times faster than HyPer's
non-optimizing O0; execution times are competitive.
"""

import pytest

from repro.bench.harness import run_query
from repro.bench.tpch import QUERIES, tpch_database

from benchmarks.conftest import ENGINE_ORDER

_SCALE_FACTOR = 0.01  # ~60k lineitem rows; the paper runs SF 1


def fig10(scale_factor=_SCALE_FACTOR):
    db = tpch_database(scale_factor=scale_factor)
    lines = [
        f"== Fig 10: TPC-H phases (SF {scale_factor}, wall-clock ms; "
        f"modeled ms in last column) =="
    ]
    for name, sql in QUERIES.items():
        lines.append(f"-- {name.upper()} --")
        for engine in ENGINE_ORDER:
            cell = run_query(db, sql, engine)
            phases = "  ".join(
                f"{k}={v:.1f}" for k, v in sorted(cell.phases.items())
            )
            lines.append(
                f"  {engine:<11} {phases}  | modeled={cell.modeled_ms:.2f}"
            )
    return "\n".join(lines)


def compile_phase_table(scale_factor=_SCALE_FACTOR):
    """The compile-time comparison (Section 8.3's 6.6x / 7.4x claims)."""
    db = tpch_database(scale_factor=scale_factor)
    lines = ["== compilation phases: mutable tiers vs HyPer paths (ms) =="]
    header = (f"{'query':<6} {'translate':>10} {'liftoff':>9} "
              f"{'turbofan':>9} | {'hir-gen':>9} {'bytecode':>9} "
              f"{'o2':>9}")
    lines.append(header)
    for name, sql in QUERIES.items():
        wasm = run_query(db, sql, "wasm").phases
        hyper = run_query(db, sql, "hyper").phases
        lines.append(
            f"{name:<6} {wasm.get('translation', 0):10.2f}"
            f" {wasm.get('compile_liftoff', 0):9.2f}"
            f" {wasm.get('compile_turbofan', 0):9.2f} |"
            f" {hyper.get('translation', 0):9.2f}"
            f" {hyper.get('compile_bytecode', 0):9.2f}"
            f" {hyper.get('compile_o2', 0):9.2f}"
        )
    return "\n".join(lines)


# -- pytest-benchmark targets ----------------------------------------------------

@pytest.fixture(scope="module")
def tpch_db():
    return tpch_database(scale_factor=0.002)


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_tpch_wasm(benchmark, tpch_db, query):
    sql = QUERIES[query]
    benchmark(lambda: tpch_db.execute(sql, engine="wasm"))


def test_tpch_q6_vectorized(benchmark, tpch_db):
    benchmark(lambda: tpch_db.execute(QUERIES["q6"], engine="vectorized"))


def test_tpch_q6_hyper(benchmark, tpch_db):
    benchmark(lambda: tpch_db.execute(QUERIES["q6"], engine="hyper"))


def test_compilation_never_blocks_execution(tpch_db):
    """The architectural property Figure 10 illustrates: both adaptive
    systems begin executing long before their optimizing compiler would
    be done — mutable via Liftoff, HyPer via bytecode interpretation —
    and total compilation stays a small share of the query."""
    for sql in QUERIES.values():
        wasm = run_query(tpch_db, sql, "wasm")
        hyper = run_query(tpch_db, sql, "hyper")
        assert wasm.phases.get("compile_liftoff", 0) \
            < wasm.wall_execution_ms
        assert hyper.phases.get("compile_bytecode", 1e9) \
            < hyper.phases.get("compile_o2", 0)


def main() -> str:
    return fig10() + "\n\n" + compile_phase_table()


if __name__ == "__main__":
    print(main())
