"""Order statistics the ledger reports: medians, the supported tail
percentile, geometric means and the run-to-run spread."""

from __future__ import annotations

import math
import statistics

__all__ = ["LADDER", "geomean", "median", "percentile", "spread",
           "supported_percentile"]

#: Tail percentiles tried from the top; the first with enough samples
#: beyond it is the one reported.
LADDER = (99, 95, 90, 85, 80, 75)
MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    ordered = sorted(values)
    rank = max(math.ceil(pct / 100.0 * len(ordered)), 1)
    return float(ordered[rank - 1])


def samples_beyond(n: int, pct: float) -> int:
    return n - max(math.ceil(pct / 100.0 * n), 1)


def supported_percentile(n: int) -> tuple[int, bool]:
    """The highest ladder percentile with at least ten samples beyond
    it, and whether any rung had that support (the lowest rung is
    returned unsupported when none has — ``--quick`` runs)."""
    for pct in LADDER:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct, True
    return LADDER[-1], False


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median (the driver's steadiness measure); with fewer than four
    values, the full range over the median."""
    values = list(values)
    mid = statistics.median(values)
    if len(values) < 2 or mid == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(mid)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(mid)
