"""TurboFan's filtered-scan split: what the selection mask buys, and costs.

One TurboFan instance per query, one function, two ways to call it:
``fn(begin, end)`` — the driver of :mod:`repro.wasm.runtime.prefilter`,
which builds a NumPy mask over the rewired column bytes and hands the
surviving runs to the scalar code — and ``fn.scalar(begin, end)``, the
unchanged TurboFan callable over every row.  Both are driven morsel by
morsel as the host drives them, timed in CPU seconds
(``time.process_time``), taking turns, best of ``--repeats`` each.

* **Selectivity sweep** — ``SELECT SUM(l_extendedprice), COUNT(*) FROM
  lineitem WHERE l_quantity < X`` over TPC-H lineitem (SF 0.01, 60 k
  rows), X chosen to keep 0 % … 100 % of the rows.  The mask cannot
  help where most rows survive; it must not hurt there either.
* **Periodic masks** — one row kept in every 2, 3, 4 and 8.  The
  adversarial shape for the run dispatcher: nothing to coalesce.  An
  alternating mask never splits under the gap rule
  (``prefilter.RUN_GAP``); one row in ``RUN_GAP`` is the real worst
  case, every survivor a call of its own.

Gates (exit status 1 when one fails): prefiltered ≤ ``--slack`` ×
scalar at every point (default 1.05; CI's shared runners pass a wider
one), and prefiltered ≥ 10 × faster at 2 % kept (never widened).

``python benchmarks/bench_prefilter.py [--json] [--slack S]``
"""

import argparse
import gc
import json
import sys
import time

import numpy as np

from repro.backend.context import MORSEL_SIZE
from repro.bench.tpch import generate_tpch
from repro.catalog.schema import Column, TableSchema
from repro.db import Database
from repro.engines.wasm_engine import WasmEngine
from repro.sql import types as T
from repro.sql.analyzer import analyze
from repro.sql.parser import parse
from repro.storage.table import Table
from repro.wasm.runtime.prefilter import RUN_GAP

#: l_quantity is uniform over 1..50: ``l_quantity < X`` keeps (X-1)/50.
SWEEP = [1, 2, 6, 13, 26, 36, 46, 50]
PERIODS = [2, 3, 4, 8]
ROWS = 60_000
SPEEDUP_AT_2_PERCENT = 10.0


def _database() -> Database:
    db = Database(default_engine="wasm[turbofan]")
    db.register_table(generate_tpch(0.01, seed=1)["lineitem"])
    ids = np.arange(ROWS, dtype=np.int32)
    schema = TableSchema("periodic", [
        Column("id", T.INT32), Column("v", T.INT64),
        *(Column(f"m{p}", T.INT32) for p in PERIODS)])
    db.register_table(Table.from_arrays(schema, {
        "id": ids, "v": ids.astype(np.int64) * 3,
        **{f"m{p}": ids % p for p in PERIODS}}))
    return db


def _scan_function(db: Database, sql: str):
    """The query's scan pipeline on a TurboFan instance — the prefilter
    driver, ``.scalar`` the plain callable — and its row count."""
    stmt = parse(sql)
    analyze(stmt, db.catalog)
    plan = db.plan(stmt)
    engine = WasmEngine(mode="turbofan")
    executable = engine.prepare_executable(plan, db.catalog)
    instance = executable.instance
    instance.invoke("init")
    info = executable.compiled.pipelines[0]
    fn = instance.funcs[instance.module.export_by_name(info.function).index]
    if not hasattr(fn, "scalar"):
        raise SystemExit(f"not prefiltered: {sql}")
    rows = executable.compiled.memory.row_counts[info.source_name]
    return executable, fn, rows


def _cpu_ms(call, rows: int) -> float:
    start = time.process_time()
    for begin in range(0, rows, MORSEL_SIZE):
        call(begin, min(begin + MORSEL_SIZE, rows))
    return (time.process_time() - start) * 1000.0


def _measure(db: Database, sql: str, repeats: int) -> dict:
    executable, fn, rows = _scan_function(db, sql)
    stats = executable.instance.stats
    fn(0, rows)     # warm both paths (and count what the mask keeps)
    handed = stats.prefilter_rows_kept
    fn.scalar(0, rows)
    gc.collect()
    gc.disable()
    try:    # the two take turns, so a slow spell of the box hits both
        scalar, prefiltered = (min(times) for times in zip(*(
            (_cpu_ms(fn.scalar, rows), _cpu_ms(fn, rows))
            for _ in range(repeats))))
    finally:
        gc.enable()
    return {"rows": rows, "rows_handed_to_scalar": handed,
            "scalar_ms": round(scalar, 3),
            "prefiltered_ms": round(prefiltered, 3),
            "ratio": round(prefiltered / scalar, 4)}


def measurements(repeats: int = 5) -> dict:
    db = _database()
    sweep = []
    for x in SWEEP:
        point = _measure(
            db, "SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem "
                f"WHERE l_quantity < {x}", repeats)
        sweep.append({"kept_percent": 2 * (x - 1), **point})
    periodic = []
    for period in PERIODS:
        point = _measure(
            db, f"SELECT SUM(v), COUNT(*) FROM periodic WHERE m{period} < 1",
            repeats)
        periodic.append({"one_row_in": period, **point})
    return {"run_gap": RUN_GAP, "morsel_rows": MORSEL_SIZE,
            "sweep": sweep, "periodic": periodic}


def gate_failures(data: dict, slack: float) -> list[str]:
    failures = []
    for point in data["sweep"] + data["periodic"]:
        label = (f"{point['kept_percent']} % kept" if "kept_percent" in point
                 else f"one row in {point['one_row_in']}")
        if point["prefiltered_ms"] > slack * point["scalar_ms"]:
            failures.append(
                f"{label}: prefiltered {point['prefiltered_ms']} ms > "
                f"{slack} x scalar {point['scalar_ms']} ms")
        if point.get("kept_percent") == 2 and point["prefiltered_ms"] \
                * SPEEDUP_AT_2_PERCENT > point["scalar_ms"]:
            failures.append(
                f"{label}: prefiltered {point['prefiltered_ms']} ms is not "
                f"{SPEEDUP_AT_2_PERCENT:g} x faster than scalar "
                f"{point['scalar_ms']} ms")
    return failures


def table(data: dict) -> str:
    lines = [
        "Filtered-scan split: CPU ms per pass over the table "
        f"(morsels of {data['morsel_rows']} rows, run gap "
        f"{data['run_gap']})", "",
        f"{'':>18} {'scalar':>9} {'prefiltered':>12} {'ratio':>7} "
        f"{'rows to scalar':>15}"]
    for point in data["sweep"] + data["periodic"]:
        label = (f"{point['kept_percent']:>3} % kept" if "kept_percent"
                 in point else f"one row in {point['one_row_in']}")
        lines.append(
            f"{label:>18} {point['scalar_ms']:>9.2f} "
            f"{point['prefiltered_ms']:>12.2f} {point['ratio']:>7.3f} "
            f"{point['rows_handed_to_scalar']:>8}/{point['rows']}")
    return "\n".join(lines)


def report(argv=None) -> tuple[str, list[str]]:
    parser = argparse.ArgumentParser(
        description="Prefiltered vs scalar TurboFan scan loops")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of the "
                             "text table")
    parser.add_argument("--slack", type=float, default=1.05,
                        help="prefiltered may take up to SLACK x the scalar "
                             "time at any point (default 1.05)")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    data = measurements(args.repeats)
    failures = gate_failures(data, args.slack)
    if args.json:
        data["slack"] = args.slack
        data["gate_failures"] = failures
        return json.dumps(data, indent=2, sort_keys=True), failures
    return table(data), failures


def main(argv=None) -> str:
    return report(argv if argv is not None else [])[0]


if __name__ == "__main__":
    text, failed = report()
    print(text)
    if failed:
        sys.exit("\n".join(failed))
