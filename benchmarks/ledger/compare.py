"""``compare A.json B.json``: one row per workload x end-to-end metric.

A and B are record files written with ``--out`` (each may hold several
sets of runs).  Per row: both medians, the ratio B ÷ A, the bound of
that metric on that workload, the same-code spread (the wider of the two sides' own spreads),
and a verdict:

* ``regressed``  — B's median is worse than A's by more than the bound,
* ``improved``   — B's median is better by more than the spread,
* ``unchanged``  — neither,
* ``unresolved`` — the same-code spread exceeds the bound, so the bound
  cannot be checked with these runs.

``failed_share`` has no tolerance: any rise is a regression.  The exit
code is 1 when any row regressed, else 0.
"""

from __future__ import annotations

import json
import sys

from benchmarks.ledger import stats
from benchmarks.ledger.metrics import END_TO_END, Metric, bound_for

__all__ = ["load", "rows", "verdict", "main"]


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> the values of every untraced run."""
    with open(path) as handle:
        data = json.load(handle)
    out: dict[str, dict[str, list[float]]] = {}
    for run in data["runs"]:
        if run.get("traced"):
            continue
        cells = out.setdefault(run["workload"], {})
        for name, cell in run["metrics"].items():
            cells.setdefault(name, []).append(cell["value"])
    return out


def verdict(metric: Metric, bound: float, a: list[float],
            b: list[float]) -> tuple:
    """(median A, median B, worsening as a share of A, spread, verdict)."""
    mid_a, mid_b = stats.median(a), stats.median(b)
    spread = max(stats.spread(a), stats.spread(b))
    if metric.name == "failed_share":
        word = "regressed" if mid_b > mid_a else \
            "improved" if mid_b < mid_a else "unchanged"
        return mid_a, mid_b, mid_b - mid_a, spread, word
    worse = (mid_b - mid_a) / mid_a if mid_a else 0.0
    if metric.better == "higher":
        worse = -worse
    if spread > bound:
        word = "unresolved"
    elif worse > bound:
        word = "regressed"
    elif -worse > spread:
        word = "improved"
    else:
        word = "unchanged"
    return mid_a, mid_b, worse, spread, word


def rows(a: dict, b: dict) -> list[tuple]:
    out = []
    for workload in a:
        if workload not in b:
            continue
        for metric in END_TO_END:
            va, vb = a[workload].get(metric.name), b[workload].get(metric.name)
            if va and vb:
                bound = bound_for(metric, workload)
                out.append((workload, metric, bound, len(va), len(vb),
                            *verdict(metric, bound, va, vb)))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m benchmarks.ledger compare A.json B.json",
              file=sys.stderr)
        return 2
    table = rows(load(argv[0]), load(argv[1]))
    print(f"{'workload':<14} {'metric':<15} {'A median':>11} {'B median':>11} "
          f"{'B/A':>7} {'bound':>6} {'spread':>7}  verdict")
    regressed = 0
    for workload, metric, bound, na, nb, mid_a, mid_b, _, spread, word \
            in table:
        ratio = f"{mid_b / mid_a:.3f}" if mid_a else "-"
        limit = "none" if metric.name == "failed_share" else f"{bound:.0%}"
        print(f"{workload:<14} {metric.name:<15} {mid_a:>11.4g} {mid_b:>11.4g} "
              f"{ratio:>7} {limit:>6} {spread:>7.1%}  {word}"
              f"  (n={na}/{nb}, {metric.unit}, {metric.better} is better)")
        regressed += word == "regressed"
    print(f"{len(table)} rows, {regressed} regressed; ratios are B ÷ A")
    return 1 if regressed else 0
