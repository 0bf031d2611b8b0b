"""Differential corpus: feedback-driven replanning must never change
a result.

Every query runs three times (miss, rebuilt-entry hit, steady-state
hit) on a service with the most aggressive feedback configuration —
the threshold at which every seedable statement replans — and each run must be byte-identical to a feedback-disabled oracle on the
same engine spec."""

import random

import pytest

from repro.feedback import FeedbackConfig
from repro.server import QueryService

SPECS = [
    "wasm[adaptive_stencil]",
    "wasm[adaptive]",
    "wasm[interpreter]",
    "volcano",
]

# 1.0 is a perfect estimate: every statement whose measurements can
# seed a plan is re-planned on its first execution
AGGRESSIVE = FeedbackConfig(q_error_threshold=1.0)

QUERIES = [
    "SELECT id, x FROM a WHERE x > 50",
    "SELECT g, COUNT(*), SUM(x) FROM a GROUP BY g",
    "SELECT COUNT(*) FROM a WHERE g = 3",
    "SELECT id FROM a ORDER BY x, id LIMIT 10",
    "SELECT a.id, b.v FROM a, b WHERE a.id = b.a_id AND a.x > 80",
    "SELECT MIN(x), MAX(x) FROM a",
    "SELECT g, SUM(v) FROM a, b WHERE a.id = b.a_id GROUP BY g",
    "SELECT id FROM a WHERE g = 1 AND x < 40",
    "SELECT v FROM b WHERE v = 7",
    "SELECT g, COUNT(*) FROM a, b WHERE a.id = b.a_id AND b.v > 30 "
    "GROUP BY g",
]


def populate(service):
    rng = random.Random(20260808)
    service.execute("CREATE TABLE a (id INT PRIMARY KEY, g INT, x INT)")
    service.execute(
        "CREATE TABLE b (id INT PRIMARY KEY, a_id INT, v INT)"
    )
    rows = ", ".join(
        f"({i}, {rng.randrange(7)}, {rng.randrange(100)})"
        for i in range(300)
    )
    service.execute(f"INSERT INTO a VALUES {rows}")
    rows = ", ".join(
        f"({i}, {rng.randrange(300)}, {rng.randrange(50)})"
        for i in range(500)
    )
    service.execute(f"INSERT INTO b VALUES {rows}")


def canonical(result) -> str:
    """A byte-comparable rendering; row order is only pinned down by an
    ORDER BY, so sort before comparing."""
    return repr((result.column_names, sorted(result.rows, key=repr)))


@pytest.fixture(scope="module")
def oracle_results():
    """Feedback-off reference answers, one batch per engine spec."""
    results = {}
    for spec in SPECS:
        oracle = QueryService(default_engine=spec, feedback=False)
        populate(oracle)
        results[spec] = [canonical(oracle.execute(sql)) for sql in QUERIES]
    return results


class TestDifferentialCorpus:
    @pytest.mark.parametrize("spec", SPECS)
    def test_feedback_is_result_invisible(self, spec, oracle_results):
        subject = QueryService(default_engine=spec, feedback=AGGRESSIVE)
        populate(subject)
        for sql, expected in zip(QUERIES, oracle_results[spec]):
            for run in range(3):
                got = canonical(subject.execute(sql))
                assert got == expected, (spec, sql, run)

    def test_the_aggressive_config_actually_fires(self):
        # guard against the corpus silently testing nothing: on the
        # default engine the aggressive threshold must have replanned
        # most of the corpus
        subject = QueryService(feedback=AGGRESSIVE)
        populate(subject)
        for sql in QUERIES:
            for _ in range(3):
                subject.execute(sql)
        stats = subject.feedback.stats()["fingerprints"]
        replanned = [entry["replanned"] for entry in stats.values()]
        assert sum(replanned) >= len(QUERIES) // 2

    def test_parameterized_differential(self):
        oracle = QueryService(feedback=False)
        subject = QueryService(feedback=AGGRESSIVE)
        for svc in (oracle, subject):
            populate(svc)
        o_session = oracle.create_session()
        s_session = subject.create_session()
        prepare = "PREPARE p AS SELECT id FROM a WHERE x < $1"
        oracle.execute(prepare, session=o_session)
        subject.execute(prepare, session=s_session)
        # revisit earlier bindings so the subject re-executes statements
        # it has already fed back on — per-binding answers must track
        for arg in (10, 90, 50, 10, 90):
            expected = canonical(
                oracle.execute(f"EXECUTE p({arg})", session=o_session)
            )
            got = canonical(
                subject.execute(f"EXECUTE p({arg})", session=s_session)
            )
            assert got == expected, arg
