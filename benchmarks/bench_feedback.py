"""Feedback benchmark: re-optimization payoff on a misestimate-heavy
workload.

The workload is engineered so the planner's first guess is wrong: a
three-way join whose driving filter (``flag = 1``) matches exactly one
customer out of 50, while NDV-based equality selectivity predicts half
the table.  Without feedback the service keeps executing the
misordered join; with feedback the first execution records the
measured cardinalities, the Q-Error crosses the threshold, and the
cached entry is rebuilt in place — re-planned with observed seeds — so
every warm execution after the first runs the corrected plan.

Reported per variant (feedback on / off): cold latency, warm p50/p95
over repeated executions, and the on/off warm speedup.  ``--json
PATH`` writes every sample plus the feedback store's per-fingerprint
stats snapshot (the CI artifact).  The ``test_*`` functions plug into
``pytest benchmarks/ --benchmark-only``.
"""

import argparse
import json
import random
import time

from repro.server import QueryService

CUSTOMERS = 50
ORDERS = 20_000
ITEMS = 10_000
WARM_EXECUTIONS = 15
SEED = 20260808

# the misestimated driver: one flagged customer, predicted as 25
QUERY = (
    "SELECT o_id, i_price FROM customers, orders, items "
    "WHERE c_id = o_cust AND o_item = i_id "
    "AND flag = 1 AND i_price < 500"
)


def build_service(feedback) -> QueryService:
    service = QueryService(feedback=feedback)
    rng = random.Random(SEED)
    service.execute("CREATE TABLE customers (c_id INT PRIMARY KEY, flag INT)")
    service.execute("CREATE TABLE orders (o_id INT PRIMARY KEY, "
                    "o_cust INT, o_item INT)")
    service.execute("CREATE TABLE items (i_id INT PRIMARY KEY, i_price INT)")
    rows = ", ".join(f"({i}, {1 if i == 7 else 0})"
                     for i in range(CUSTOMERS))
    service.execute(f"INSERT INTO customers VALUES {rows}")
    orders = service.db.table("orders")
    orders.append_rows([
        (i, rng.randrange(CUSTOMERS), rng.randrange(ITEMS))
        for i in range(ORDERS)
    ])
    items = service.db.table("items")
    items.append_rows([(i, rng.randrange(1000)) for i in range(ITEMS)])
    # append_rows bypasses the service's invalidation hook; start clean
    service.cache.clear()
    return service


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def run_variant(feedback) -> dict:
    """Cold + warm latencies of one service variant."""
    service = build_service(feedback)
    start = time.perf_counter()
    first = service.execute(QUERY)
    cold = time.perf_counter() - start
    rows = len(first.rows)
    warm = []
    for _ in range(WARM_EXECUTIONS):
        start = time.perf_counter()
        result = service.execute(QUERY)
        warm.append(time.perf_counter() - start)
        assert len(result.rows) == rows, "feedback changed the answer"
    stats = service.feedback.stats() if service.feedback else None
    return {
        "feedback": bool(service.feedback),
        "rows": rows,
        "cold_ms": cold * 1000,
        "warm_p50_ms": _percentile(warm, 0.50) * 1000,
        "warm_p95_ms": _percentile(warm, 0.95) * 1000,
        "warm_samples_ms": [s * 1000 for s in warm],
        "feedback_stats": stats,
    }


def main(argv: list[str] | None = None) -> str:
    parser = argparse.ArgumentParser(
        description="Feedback re-optimization payoff on a misestimated join."
    )
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write samples + per-fingerprint stats")
    args = parser.parse_args(argv)

    off = run_variant(feedback=False)
    on = run_variant(feedback=True)
    speedup = (off["warm_p50_ms"] / on["warm_p50_ms"]
               if on["warm_p50_ms"] else float("inf"))
    lines = [
        f"misestimated 3-way join: {CUSTOMERS} customers (1 flagged), "
        f"{ORDERS} orders, {ITEMS} items, {WARM_EXECUTIONS} warm runs",
        "",
        f"{'feedback':>8} {'cold':>9} {'warm p50':>9} {'warm p95':>9}",
    ]
    for cell in (off, on):
        label = "on" if cell["feedback"] else "off"
        lines.append(
            f"{label:>8} {cell['cold_ms']:>7.2f}ms "
            f"{cell['warm_p50_ms']:>7.2f}ms {cell['warm_p95_ms']:>7.2f}ms"
        )
    lines.append(
        f"feedback warm speedup: {speedup:.2f}x "
        f"(off {off['warm_p50_ms']:.2f}ms -> on {on['warm_p50_ms']:.2f}ms p50)"
    )
    fingerprints = (on["feedback_stats"] or {}).get("fingerprints", {})
    for key, entry in fingerprints.items():
        lines.append(
            f"  {key}: executions={entry['executions']} "
            f"q_error={entry['q_error']:.2f} "
            + ("re-planned" if entry["replanned"] else "no decision")
        )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({
                "query": QUERY,
                "warm_executions": WARM_EXECUTIONS,
                "speedup": speedup,
                "variants": [off, on],
            }, handle, indent=2, default=str)
        lines.append(f"json written to {args.json}")
    return "\n".join(lines)


# -- pytest-benchmark targets ------------------------------------------------

def test_feedback_warm(benchmark):
    service = build_service(feedback=True)
    service.execute(QUERY)  # observe + rebuild in place

    benchmark(lambda: service.execute(QUERY))


def test_no_feedback_warm(benchmark):
    service = build_service(feedback=False)
    service.execute(QUERY)

    benchmark(lambda: service.execute(QUERY))


def test_feedback_replans_the_workload():
    """Correctness-level assertion: the workload actually misestimates
    hard enough to trigger re-optimization, and the corrected plan does
    not change the answer."""
    service = build_service(feedback=True)
    baseline = build_service(feedback=False)
    first = service.execute(QUERY)
    stats = service.feedback.stats()["fingerprints"]
    assert any(entry["replanned"] for entry in stats.values()), stats
    second = service.execute(QUERY)
    assert second.plan_cache == "hit"
    assert sorted(second.rows) == sorted(first.rows) \
        == sorted(baseline.execute(QUERY).rows)


if __name__ == "__main__":
    print(main())
