"""Command line of the ledger.

    python -m benchmarks.ledger [--seed N] [--repeat K] [--quick] [--traced]
                                [--out F]
        every workload, each in its own fresh subprocess
    python -m benchmarks.ledger --workload W --seed N --seconds S --trace 0|1
        one workload in this process (what the line above spawns, and what
        the benchmark driver calls); last stdout line is the result JSON
    python -m benchmarks.ledger compare A.json B.json
    python -m benchmarks.ledger digests [LAST_SEED]
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
if os.path.isdir(SRC) and SRC not in sys.path:
    sys.path.insert(0, SRC)

from benchmarks.ledger.metrics import (  # noqa: E402
    DRIVER_END_TO_END,
    PER_LAYER,
    metric,
)

RUN_SECONDS = 20
QUICK_SECONDS = 2
CHILD_TIMEOUT_S = 180


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python -m benchmarks.ledger",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run this one workload in-process")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeat", type=int, default=1,
                   help="sets of runs (odd sets run in reverse order)")
    p.add_argument("--seconds", type=float,
                   help=f"nominal timed window (default {RUN_SECONDS})")
    p.add_argument("--quick", action="store_true",
                   help="smoke mode: a tenth of the operation count")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="with --workload: 1 runs the traced replay instead")
    p.add_argument("--traced", action="store_true",
                   help="the per-layer run of every workload")
    p.add_argument("--out", help="write every run's record to this JSON file")
    p.add_argument("--trace-out",
                   help="span file (--workload) or directory (--traced)")
    return p


def _fmt(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1000 else f"{value:.1f}"


def print_record(record: dict, out=sys.stdout) -> None:
    """Every metric by name, with its unit and sample count."""
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"{record['seconds']:g} s nominal) ==", file=out)
    for name, cell in record["metrics"].items():
        note = f"n={cell['n']}" if "n" in cell else ""
        if "percentile" in cell:
            note += f" p{cell['percentile']}" + \
                ("" if cell["supported"] else "* (<10 samples beyond)")
        print(f"  {name:<36} {_fmt(cell['value']):>10} "
              f"{metric(name).unit:<6} {note}", file=out)
    for cls, cell in record.get("classes", {}).items():
        print(f"    class {cls:<20} p50 {_fmt(cell['p50_ms']):>8} ms  "
              f"n={cell['n']}", file=out)
    for key in ("failures", "warmup_failures"):
        if record.get(key):
            print(f"  {key}: " + ", ".join(
                f"{cls} x{n}" for cls, n in sorted(record[key].items())),
                file=out)
    if "client_skew_ms" in record:
        print(f"  timed window {record['window_s']:.2f} s; slowest client "
              f"outlived the fastest by {record['client_skew_ms']:.1f} ms; "
              f"oracle {record['oracle_s']:.2f} s", file=out)
    if "self_time_s" in record:
        top = list(record["self_time_s"].items())[:8]
        print("  self time by span: " + ", ".join(
            f"{name} {seconds:.3f}s" for name, seconds in top), file=out)


def run_child(args) -> int:
    """One workload in this process; prints the record, a DETAIL line for
    the parent, and the driver's result object as the last line."""
    try:
        from benchmarks.ledger.harness import run_untraced
        from benchmarks.ledger.layers import run_traced
        from benchmarks.ledger.oracle import OracleError
        from benchmarks.ledger.workloads import WORKLOADS
    except ImportError as err:
        print(f"ledger: cannot import the program under test ({err}); run "
              f"from a checkout that has src/", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    if args.workload not in WORKLOADS:
        print(f"ledger: unknown workload {args.workload!r}; have "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seconds = args.seconds if args.seconds is not None else RUN_SECONDS
    try:
        if args.trace:
            record = run_traced(workload, args.seed, seconds, args.trace_out)
            wanted = PER_LAYER
        else:
            record = run_untraced(workload, args.seed, seconds, import_s)
            wanted = DRIVER_END_TO_END
    except OracleError as err:
        print(f"ledger: oracle reference error: {err}", file=sys.stderr)
        return 3
    print_record(record)
    print("DETAIL " + json.dumps(record))
    print(json.dumps({
        "correct": record["failed_timed"] == 0,
        "attempted": record["attempted_timed"],
        "failed": record["failed_timed"],
        "metrics": {
            m.name: {"value": record["metrics"][m.name]["value"],
                     "unit": metric(m.name).unit}
            for m in wanted
        },
    }))
    return 0


def _spawn(workload: str, seed: int, seconds: float, trace: int,
           trace_out: str | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    command = [sys.executable, "-m", "benchmarks.ledger",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(command, cwd=ROOT, env=env, text=True,
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(
            f"ledger: workload {workload} exited {done.returncode}")
    for line in done.stdout.splitlines():
        if line.startswith("DETAIL "):
            return json.loads(line[len("DETAIL "):])
    raise SystemExit(f"ledger: workload {workload} printed no record")


def run_all(args) -> int:
    from benchmarks.ledger.workloads import WORKLOADS

    names = list(WORKLOADS)
    seconds = args.seconds if args.seconds is not None else (
        QUICK_SECONDS if args.quick else RUN_SECONDS)
    if args.traced and args.trace_out:
        os.makedirs(args.trace_out, exist_ok=True)
    runs = []
    started = time.perf_counter()
    for set_index in range(args.repeat):
        order = names if set_index % 2 == 0 else names[::-1]
        for name in order:
            trace_out = None
            if args.traced and args.trace_out:
                trace_out = os.path.join(
                    args.trace_out, f"spans-{name}-seed{args.seed}.jsonl")
            begin = time.perf_counter()
            record = _spawn(name, args.seed, seconds, int(args.traced),
                            trace_out)
            record["process_s"] = time.perf_counter() - begin
            record["traced"] = bool(args.traced)
            runs.append(record)
            print_record(record)
            print(f"  whole process {record['process_s']:.1f} s")
    print(f"{len(runs)} runs in {time.perf_counter() - started:.0f} s")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seconds": seconds, "nproc": os.cpu_count(),
                       "python": sys.version.split()[0], "runs": runs},
                      handle, indent=1)
        print(f"records written to {args.out}")
    return 0


def write_digests(last_seed: int) -> int:
    """Regenerate ``expected/tpch_digests.json`` for seeds 1 to
    ``last_seed`` (after a deliberate change to the data generator or
    the reference engines)."""
    from benchmarks.ledger.oracle import EXPECTED, Oracle, digest
    from benchmarks.ledger.workloads import WORKLOADS

    workload = WORKLOADS["tpch_adhoc"]
    out = {}
    for seed in range(1, last_seed + 1):
        oracle = Oracle(workload.tables(seed))
        block = workload.streams(seed, 1.0)[0][:workload.block]
        out[str(seed)] = {
            stmt.cls: digest(oracle.reference(stmt), stmt.ordered)
            for stmt in sorted(block, key=lambda s: s.cls)
        }
    with open(EXPECTED, "w") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(out)} seeds written to {EXPECTED}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from benchmarks.ledger.compare import main as compare_main

        return compare_main(argv[1:])
    if argv[:1] == ["digests"]:
        return write_digests(int(argv[1]) if argv[1:] else 16)
    args = _parser().parse_args(argv)
    if args.workload:
        return run_child(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
