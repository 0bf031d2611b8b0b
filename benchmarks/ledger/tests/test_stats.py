"""The supported-percentile rule and the order statistics."""

import pytest

from benchmarks.ledger import stats


@pytest.mark.parametrize("n, pct, supported", [
    (2000, 99, True),    # 20 samples beyond p99
    (1000, 99, True),    # exactly 10
    (999, 95, True),     # p99 would leave 9
    (900, 95, True),
    (200, 95, True),
    (199, 90, True),
    (70, 85, True),      # 14 TPC-H passes: ceil(59.5) = 60, 10 beyond
    (66, 80, True),
    (40, 75, True),
    (39, 75, False),     # nothing on the ladder has 10 beyond
    (5, 75, False),
])
def test_supported_percentile(n, pct, supported):
    assert stats.supported_percentile(n) == (pct, supported)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    # the reported sample really has `beyond` samples above it
    assert stats.samples_beyond(100, 90) == 10


def test_geomean_and_spread():
    assert stats.geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert stats.spread([10.0]) == 0.0
    assert stats.spread([9.0, 10.0, 11.0]) == pytest.approx(0.2)
    ten = [100 + i for i in range(10)]
    q1, _, q3 = __import__("statistics").quantiles(ten, n=4)
    assert stats.spread(ten) == pytest.approx((q3 - q1) / 104.5)
