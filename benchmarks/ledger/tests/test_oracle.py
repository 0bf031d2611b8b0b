"""The oracle must flag wrong rows and tolerate only float noise."""

import pytest

from benchmarks.ledger.harness import Executed, verify
from benchmarks.ledger.oracle import Oracle, OracleError, digest, rows_match
from benchmarks.ledger.workloads import WORKLOADS, Statement


def test_rows_match_rules():
    assert rows_match([(1, 2.0), (3, 4.0)], [(3, 4.0), (1, 2.0)], False)
    assert not rows_match([(1, 2.0), (3, 4.0)], [(3, 4.0), (1, 2.0)], True)
    assert rows_match([(1.0 + 1e-12,)], [(1.0,)], True)
    assert not rows_match([(1.0 + 1e-6,)], [(1.0,)], True)
    assert not rows_match([(1,)], [(1,), (1,)], False)      # a multiset
    assert rows_match([(float("nan"),)], [(float("nan"),)], True)
    assert not rows_match([("a",)], [("b",)], False)


@pytest.fixture(scope="module")
def micro():
    workload = WORKLOADS["compile_bound"]
    return workload, Oracle(workload.tables(1))


def test_oracle_accepts_the_default_engine_and_flags_a_corrupted_row(micro):
    workload, oracle = micro
    from repro.db import Database

    db = Database()
    for table in workload.tables(1):
        db.register_table(table)
    stream = workload.streams(1, 2.0)[0][:12]
    executed = [Executed(s, db.execute(s.sql), 0.0) for s in stream]
    assert verify(executed, oracle) == {}

    victim = next(i for i, e in enumerate(executed) if e.outcome.rows)
    rows = executed[victim].outcome.rows
    first = rows[0]
    rows[0] = tuple(
        v + 1 if isinstance(v, int) else v * 1.001 for v in first
    )
    assert verify(executed, oracle) == {victim: "RowMismatch"}
    rows[0] = first
    rows.append(first)                                       # an extra row
    assert verify(executed, oracle) == {victim: "RowMismatch"}


def test_an_exception_is_a_failure_by_class(micro):
    _, oracle = micro
    stmt = Statement("x", "SELECT x FROM t", "SELECT x FROM t")
    assert verify([Executed(stmt, KeyError("boom"), 0.0)], oracle) == \
        {0: "KeyError"}


def test_disagreeing_reference_engines_abort(micro, monkeypatch):
    _, oracle = micro
    real = oracle.db.execute

    def skewed(sql, engine=None):
        result = real(sql, engine=engine)
        if engine == "volcano":
            result.rows = result.rows[1:]
        return result

    monkeypatch.setattr(oracle.db, "execute", skewed)
    with pytest.raises(OracleError):
        oracle.reference(Statement("x", "", "SELECT x FROM t WHERE x > 0"))


def test_committed_tpch_digests_match_seed_1():
    workload = WORKLOADS["tpch_adhoc"]
    oracle = Oracle(workload.tables(1))
    block = workload.streams(1, 2.0)[0]
    assert oracle.check_digests(1, block) == 5
    assert oracle.check_digests(10_000, block) == 0          # not committed
    assert digest([(1, 0.1 + 0.2)], True) == digest([(1, 0.3)], True)
