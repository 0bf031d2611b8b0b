"""Regenerate every figure/table of the paper's evaluation.

Run:  python benchmarks/run_all.py

Writes the combined report to stdout (~4 minutes; EXPERIMENTS.md records
a run's output, and bench_report.txt holds the raw text).

``--trace-json PATH`` switches to observability mode: instead of the
figures, the TPC-H subset runs once per engine tier under a structured
:class:`~repro.observability.QueryTrace`, and PATH receives a JSON
document of every query's full event trace plus the process-wide
metrics snapshot — the raw material for flame graphs and tier-up
timelines.
"""

import argparse
import json
import sys
import time

sys.path.insert(0, ".")  # allow `python benchmarks/run_all.py` from repo root
sys.path.insert(0, "src")

from benchmarks import (  # noqa: E402
    bench_fig1_teaser,
    bench_fig2b_features,
    bench_fig6_selection,
    bench_fig7_grouping,
    bench_fig8_join,
    bench_fig9_sorting,
    bench_fig10_tpch,
    bench_compile_times,
    bench_ablation_adhoc,
    bench_ablation_tiering,
    bench_bounds_elision,
    bench_feedback,
    bench_prefilter,
    bench_serving,
)

SECTIONS = [
    ("Figure 1", bench_fig1_teaser.main),
    ("Figure 2b", bench_fig2b_features.main),
    ("Figure 6", bench_fig6_selection.main),
    ("Figure 7", bench_fig7_grouping.main),
    ("Figure 8", bench_fig8_join.main),
    ("Figure 9", bench_fig9_sorting.main),
    ("Figure 10", bench_fig10_tpch.main),
    ("Compile times", bench_compile_times.main),
    ("Ablation: ad-hoc generation", bench_ablation_adhoc.main),
    ("Ablation: tiering & short-circuit", bench_ablation_tiering.main),
    ("Ablation: bounds-check elision", bench_bounds_elision.main),
    ("Filtered-scan split: prefiltered vs scalar", bench_prefilter.main),
    ("Serving: plan cache & fair scheduler", bench_serving.main),
    ("Feedback: Q-Error re-optimization", bench_feedback.main),
]


def main() -> None:
    total_start = time.perf_counter()
    for title, fn in SECTIONS:
        start = time.perf_counter()
        print(f"\n{'#' * 70}\n# {title}\n{'#' * 70}")
        print(fn())
        print(f"[{title}: {time.perf_counter() - start:.1f}s]")
    print(f"\ntotal: {time.perf_counter() - total_start:.1f}s")


def trace_json(path: str, scale: float, engines: list[str]) -> None:
    """Run the TPC-H subset traced and dump every event stream as JSON."""
    from repro.bench.tpch import QUERIES, tpch_database
    from repro.observability import QueryTrace, get_registry

    db = tpch_database(scale_factor=scale, seed=1, default_engine="wasm")
    document = {"scale_factor": scale, "queries": {}}
    for name in sorted(QUERIES):
        sql = QUERIES[name]
        per_engine = {}
        for spec in engines:
            trace = QueryTrace(sql)
            result = db.execute(sql, engine=spec, trace=trace)
            per_engine[spec] = {
                "rows": len(result.rows),
                "engine": result.engine,
                "events": trace.to_dicts(),
            }
        document["queries"][name] = {"sql": sql, "engines": per_engine}
    document["metrics"] = get_registry().as_dict()

    out = sys.stdout if path == "-" else open(path, "w")
    try:
        json.dump(document, out, indent=2, sort_keys=True, default=str)
        out.write("\n")
    finally:
        if out is not sys.stdout:
            out.close()
    if path != "-":
        n_traces = sum(len(q["engines"]) for q in document["queries"].values())
        print(f"wrote {n_traces} query traces to {path}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--trace-json", metavar="PATH", default=None,
        help="skip the figures; run the TPC-H subset under structured "
             "tracing and write the traces + metrics snapshot to PATH "
             "('-' for stdout)")
    parser.add_argument(
        "--trace-scale", type=float, default=0.002,
        help="TPC-H scale factor for --trace-json (default 0.002)")
    parser.add_argument(
        "--trace-engines", default="wasm,wasm[liftoff],volcano",
        help="comma-separated engine specs to trace per query")
    args = parser.parse_args()
    if args.trace_json:
        trace_json(args.trace_json, args.trace_scale,
                   [e.strip() for e in args.trace_engines.split(",") if e.strip()])
    else:
        main()
