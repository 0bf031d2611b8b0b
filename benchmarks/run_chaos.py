"""Chaos sweep: inject faults at every engine site, assert zero wrong results.

For each named fault site and each seed, the TPC-H smoke queries run on
a database whose Wasm engine carries a seeded
:class:`~repro.robustness.FaultInjector` and the default fallback chain
``wasm[adaptive_stencil] → wasm[interpreter] → volcano``
(:data:`~repro.robustness.DEFAULT_CHAIN`; the sweep's primary spec is
``wasm``).  Every query goes through both front doors —
``Database.execute`` and a ``QueryService`` over the same database, its
plan cache emptied first so it compiles afresh — and through each must
either

* complete with results identical to the (fault-free) volcano engine, or
* raise a structured :class:`~repro.errors.QueryError` carrying the full
  attempt trail

— anything else (a wrong result, a bare ``ValueError``/``KeyError``, a
raw trap escaping the chain) is a robustness bug and fails the sweep, as
does a query whose two doors disagree on which of the two it was.

Run:  python benchmarks/run_chaos.py [--seeds 3] [--rate 1.0] [--scale 0.002]
"""

from __future__ import annotations

import argparse
import sys
import time

sys.path.insert(0, "src")   # allow running from the repo root uninstalled
sys.path.insert(0, ".")

from repro.bench.tpch import QUERIES, tpch_database  # noqa: E402
from repro.errors import QueryError, ReproError  # noqa: E402
from repro.observability import QueryTrace  # noqa: E402
from repro.robustness import DEFAULT_CHAIN, ENGINE_FAULT_SITES, FaultInjector  # noqa: E402
from repro.server import QueryService  # noqa: E402

DOORS = ("database", "service")


def norm(rows):
    """Normalize rows for cross-engine comparison (round floats, sort)."""
    normed = [
        tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        for row in rows
    ]
    return sorted(map(repr, normed))


def run_sweep(seeds: list[int], rate: float, scale: float,
              verbose: bool = True) -> dict:
    db = tpch_database(scale_factor=scale, seed=7, default_engine="wasm")
    db.fallback = DEFAULT_CHAIN
    service = QueryService(db)
    doors = {"database": db.execute, "service": service.execute}
    wasm = db.engine("wasm")

    reference = {
        name: norm(db.execute(sql, engine="volcano").rows)
        for name, sql in QUERIES.items()
    }

    stats = {"runs": 0, "clean": 0, "degraded": 0, "structured_failures": 0,
             "incorrect": [], "unstructured": [], "doors_disagree": [],
             # every injected fault is visible post-hoc as a
             # ``fault.injected`` trace event: site -> observed count
             "faults_observed": {}, "faults_unaccounted": []}
    for site in sorted(ENGINE_FAULT_SITES):
        for seed in seeds:
            # force chunked rewiring so the rewire.chunk site is reachable
            wasm.table_window_rows = 512 if site == "rewire.chunk" else None
            outcomes = {}
            for door in DOORS:
                # each door faces the same seeded fault sequence
                injector = FaultInjector(seed=seed, rates={site: rate})
                wasm.fault_injector = injector
                service.cache.clear()
                for name, sql in QUERIES.items():
                    label = f"{site} seed={seed} {name} via {door}"
                    outcomes[door, name] = _run_one(
                        doors[door], sql, reference[name], injector, label,
                        stats, verbose)
            for name in QUERIES:
                stats["runs"] += 1
                if outcomes["database", name] != outcomes["service", name]:
                    stats["doors_disagree"].append(
                        (f"{site} seed={seed} {name}",
                         outcomes["database", name],
                         outcomes["service", name]))
    wasm.fault_injector = None
    wasm.table_window_rows = None
    return stats


def _run_one(execute, sql, expected, injector, label, stats,
             verbose) -> str:
    """Run one statement through one door; returns its outcome class."""
    fired_before = injector.total_fired
    trace = QueryTrace(sql)
    try:
        result = execute(sql, trace=trace)
    except QueryError as err:
        stats["structured_failures"] += 1
        if verbose:
            print(f"  {label}: structured failure "
                  f"({len(err.attempts)} attempts)")
        return "structured"
    except ReproError as err:
        # a single-engine error escaping a 3-rung chain means the
        # fallback never engaged — count as unstructured
        stats["unstructured"].append((label, repr(err)))
        return "unstructured"
    except Exception as err:  # bare ValueError/KeyError/...
        stats["unstructured"].append((label, repr(err)))
        return "unstructured"
    finally:
        # post-hoc auditability: every fault the injector fired must
        # appear in the query's trace
        observed = trace.find("fault.injected")
        for event in observed:
            fault_site = event.attrs["site"]
            stats["faults_observed"][fault_site] = \
                stats["faults_observed"].get(fault_site, 0) + 1
        fired = injector.total_fired - fired_before
        if fired != len(observed):
            stats["faults_unaccounted"].append((label, fired, len(observed)))
    if norm(result.rows) != expected:
        stats["incorrect"].append(label)
        return "incorrect"
    if result.degraded:
        stats["degraded"] += 1
        if verbose:
            trail = " -> ".join(s for s, _ in result.fallback_attempts)
            print(f"  {label}: ok after degradation "
                  f"({trail} -> {result.engine})")
    else:
        stats["clean"] += 1
    return "correct"


def main(seeds: int = 3, rate: float = 1.0, scale: float = 0.002) -> str:
    start = time.perf_counter()
    stats = run_sweep(list(range(seeds)), rate, scale)
    lines = [
        f"chaos sweep: {len(ENGINE_FAULT_SITES)} sites x {seeds} seeds x "
        f"{len(QUERIES)} queries = {stats['runs']} runs x "
        f"{len(DOORS)} front doors "
        f"({time.perf_counter() - start:.1f}s)",
        f"  correct without degradation: {stats['clean']}",
        f"  correct after degradation:   {stats['degraded']}",
        f"  structured failures:         {stats['structured_failures']}",
        f"  INCORRECT results:           {len(stats['incorrect'])}",
        f"  unstructured escapes:        {len(stats['unstructured'])}",
        f"  front doors disagreeing:     {len(stats['doors_disagree'])}",
        "  faults observed in traces:   " + (", ".join(
            f"{site}={count}"
            for site, count in sorted(stats["faults_observed"].items())
        ) or "none"),
    ]
    for label in stats["incorrect"]:
        lines.append(f"    wrong result: {label}")
    for label, err in stats["unstructured"]:
        lines.append(f"    escape: {label}: {err}")
    for label, database, service in stats["doors_disagree"]:
        lines.append(f"    doors disagree: {label}: "
                     f"database={database} service={service}")
    for label, fired, seen in stats["faults_unaccounted"]:
        lines.append(f"    untraced fault: {label}: "
                     f"fired={fired} traced={seen}")
    report = "\n".join(lines)
    assert not stats["incorrect"], "chaos sweep produced incorrect results"
    assert not stats["unstructured"], "unstructured errors escaped the chain"
    assert not stats["doors_disagree"], \
        "the front doors disagree on a query's outcome"
    assert not stats["faults_unaccounted"], \
        "injected faults missing from query traces"
    return report


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=3,
                        help="number of injection seeds per site")
    parser.add_argument("--rate", type=float, default=1.0,
                        help="fire probability per site visit")
    parser.add_argument("--scale", type=float, default=0.002,
                        help="TPC-H scale factor")
    args = parser.parse_args()
    print(main(seeds=args.seeds, rate=args.rate, scale=args.scale))
