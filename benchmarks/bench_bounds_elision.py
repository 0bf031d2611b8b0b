"""Ablation A-3: analysis-driven bounds-check elision on vs off.

TurboFan runs the interval (range) analysis over each hot function and
drops the address mask wherever the access is provably inside the
module's declared memory minimum (codegen publishes the morsel extent
via ``param_range`` hints).  The residual page-table lookup stays, so
the comparison isolates the per-access masking work the analysis
removes.  Reported per workload: elided-check count and wall-clock
execution with elision on vs off (same module, same plans).
"""

import time

from repro.bench.workloads import (
    grouping_table,
    selection_table,
    selectivity_threshold,
)

from benchmarks.conftest import db_with

CASES = {
    "selection 1%": (
        lambda rows: db_with(selection_table(rows)),
        f"SELECT COUNT(*) FROM t WHERE x < {selectivity_threshold(0.01)}",
    ),
    "selection 50%": (
        lambda rows: db_with(selection_table(rows)),
        f"SELECT COUNT(*) FROM t WHERE x < {selectivity_threshold(0.5)}",
    ),
    "sum over column": (
        lambda rows: db_with(selection_table(rows)),
        "SELECT SUM(y) FROM t",
    ),
    "group-by (100 groups)": (
        lambda rows: db_with(grouping_table(rows, distinct=100)),
        "SELECT g1, COUNT(*), SUM(x1) FROM g GROUP BY g1",
    ),
}


def _run(db, sql, elide: bool, repeats: int = 3):
    """Best-of-``repeats`` wall clock plus the elision counter."""
    engine = db.engine("wasm")
    engine.mode = "turbofan"
    engine.elide_bounds_checks = elide
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = db.execute(sql, engine="wasm")
        best = min(best, time.perf_counter() - start)
    elided = result.run.tier_stats.bounds_checks_elided
    engine.elide_bounds_checks = True
    return best * 1000.0, elided


def ablation(rows: int = 100_000):
    lines = [
        "== A-3: bounds-check elision (turbofan, wall clock) ==",
        f"{'case':<22} {'elided':>7} {'on ms':>9} {'off ms':>9}"
        f" {'saved %':>8}",
    ]
    for name, (make_db, sql) in CASES.items():
        db = make_db(rows)
        on_ms, elided = _run(db, sql, elide=True)
        off_ms, off_elided = _run(db, sql, elide=False)
        assert off_elided == 0
        saved = 100.0 * (off_ms - on_ms) / off_ms if off_ms else 0.0
        lines.append(
            f"{name:<22} {elided:>7} {on_ms:9.2f} {off_ms:9.2f}"
            f" {saved:8.1f}"
        )
    return "\n".join(lines)


# -- pytest-benchmark targets (wall clock, reduced size) ---------------------

def test_selection_elision_on(benchmark, benchmark_rows):
    db = db_with(selection_table(benchmark_rows))
    engine = db.engine("wasm")
    engine.mode = "turbofan"
    sql = "SELECT COUNT(*) FROM t WHERE x < 0"
    result = benchmark(lambda: db.execute(sql, engine="wasm"))
    assert result.run.tier_stats.bounds_checks_elided > 0


def test_selection_elision_off(benchmark, benchmark_rows):
    db = db_with(selection_table(benchmark_rows))
    engine = db.engine("wasm")
    engine.mode = "turbofan"
    engine.elide_bounds_checks = False
    sql = "SELECT COUNT(*) FROM t WHERE x < 0"
    result = benchmark(lambda: db.execute(sql, engine="wasm"))
    assert result.run.tier_stats.bounds_checks_elided == 0


def test_elision_does_not_change_results(benchmark_rows):
    db = db_with(selection_table(benchmark_rows))
    sql = "SELECT COUNT(*) FROM t WHERE x2 < 0"
    engine = db.engine("wasm")
    engine.mode = "turbofan"
    result = db.execute(sql, engine="wasm")
    assert result.run.tier_stats.bounds_checks_elided > 0
    on = result.rows
    engine.elide_bounds_checks = False
    off = db.execute(sql, engine="wasm").rows
    volcano = db.execute(sql, engine="volcano").rows
    engine.elide_bounds_checks = True
    assert on == off == volcano


def main() -> str:
    return ablation()


if __name__ == "__main__":
    print(main())
