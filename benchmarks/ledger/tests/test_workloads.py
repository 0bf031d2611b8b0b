"""The generated statement streams: seeded, distinct where promised,
and checkable."""

import re

import pytest

from benchmarks.ledger.workloads import WORKLOADS


def _sql(workload, seed, seconds=2.0):
    return [[s.sql for s in stream]
            for stream in workload.streams(seed, seconds)]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_statements_other_seed_other(name):
    workload = WORKLOADS[name]
    assert _sql(workload, 3) == _sql(workload, 3)
    assert _sql(workload, 3) != _sql(workload, 4)
    assert [s.sql for s in workload.warm_stream(3, 20.0)] == \
        [s.sql for s in workload.warm_stream(3, 20.0)]


def test_operation_counts_follow_seconds():
    assert len(WORKLOADS["tpch_adhoc"].streams(1, 20)[0]) == 70
    assert len(WORKLOADS["compile_bound"].streams(1, 20)[0]) == 900
    assert len(WORKLOADS["tpch_served"].streams(1, 20)[0]) == 80
    assert len(WORKLOADS["tpch_served"].warm_stream(1, 20)) == 15
    quick = sum(len(s) for s in WORKLOADS["serving_point"].streams(1, 2))
    full = sum(len(s) for s in WORKLOADS["serving_point"].streams(1, 20))
    assert quick * 10 == full


def test_compile_bound_statements_are_distinct_and_balanced():
    stream = WORKLOADS["compile_bound"].streams(1, 20)[0]
    assert len({s.sql for s in stream}) == len(stream)
    per_class = {}
    for s in stream:
        per_class[s.cls] = per_class.get(s.cls, 0) + 1
    assert len(per_class) == 6 and len(set(per_class.values())) == 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_limit_statements_order_by_every_projected_column(name):
    for stream in WORKLOADS[name].streams(2, 2.0):
        for s in stream:
            if s.is_write or " LIMIT " not in s.ref_sql or name.startswith("tpch"):
                continue
            projected, order = re.search(
                r"SELECT (.*?) FROM .* ORDER BY (.*?) LIMIT", s.ref_sql
            ).groups()
            ordered = [c.split()[0] for c in order.split(", ")]
            assert sorted(projected.split(", ")) == sorted(ordered), s.ref_sql
            assert s.ordered


def test_serving_mixed_writes_every_25th_statement_of_client_0():
    first, second = WORKLOADS["serving_mixed"].streams(1, 20)
    writes = [i for i, s in enumerate(first) if s.is_write]
    assert writes[:3] == [24, 49, 74] and len(writes) == len(first) // 25
    assert not any(s.is_write for s in second)
    ids = [re.search(r"\((\d+),", first[i].sql).group(1) for i in writes]
    assert len(set(ids)) == len(ids)
    assert all("5000" in first[i].sql for i in writes)
