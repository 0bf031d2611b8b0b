"""Re-executing one cached Wasm module must be deterministic.

The regression the reset protocol exists for: a cached
:class:`WasmExecutable` keeps its instance (and tier state) across
executions, so globals, hash tables, sort arrays and the result window
must all come back to a pristine state before each re-run.  Every test
runs the same cached plan three times and demands identical results.
"""

import pytest

from repro.observability.trace import QueryTrace
from repro.server import QueryService


@pytest.fixture()
def service():
    svc = QueryService()
    svc.execute(
        "CREATE TABLE r (id INT PRIMARY KEY, grp INT, x INT, y DOUBLE, "
        "s CHAR(4))"
    )
    rows = ", ".join(
        f"({i}, {i % 3}, {i * 7 % 50}, {i * 0.25}, 'v{i:02d}')"
        for i in range(40)
    )
    svc.execute(f"INSERT INTO r VALUES {rows}")
    return svc


def run_three(service, sql, session=None, engine=None):
    results = [
        service.execute(sql, session=session, engine=engine)
        for _ in range(3)
    ]
    assert [r.rows for r in results] == [results[0].rows] * 3
    assert [r.plan_cache for r in results][1:] == ["hit", "hit"]
    return results[0]


class TestRepeatedExecution:
    def test_filter_project(self, service):
        result = run_three(service, "SELECT x, y FROM r WHERE x < 20")
        assert len(result.rows) > 0

    def test_group_by(self, service):
        result = run_three(
            service,
            "SELECT grp, COUNT(*), SUM(x) FROM r GROUP BY grp",
        )
        assert len(result.rows) == 3

    def test_scalar_aggregate(self, service):
        result = run_three(service, "SELECT SUM(x), MIN(y), MAX(y) FROM r")
        assert len(result.rows) == 1

    def test_join(self, service):
        result = run_three(
            service,
            "SELECT a.id, b.id FROM r a, r b "
            "WHERE a.grp = b.grp AND a.x < 10 AND b.x < 10",
        )
        assert len(result.rows) > 0

    def test_sort_with_limit(self, service):
        result = run_three(
            service, "SELECT id, x FROM r ORDER BY x DESC, id LIMIT 7"
        )
        assert len(result.rows) == 7

    def test_strings(self, service):
        result = run_three(
            service, "SELECT s FROM r WHERE s >= 'v30' ORDER BY s"
        )
        assert len(result.rows) == 10

    def test_prepared_alternating_args(self, service):
        session = service.create_session()
        service.execute(
            "PREPARE q AS SELECT id, x FROM r WHERE x < $1 ORDER BY id",
            session=session,
        )
        by_arg = {}
        for arg in (10, 30, 10, 30, 10):
            rows = service.execute(f"EXECUTE q({arg})",
                                   session=session).rows
            by_arg.setdefault(arg, rows)
            assert rows == by_arg[arg]
        assert by_arg[10] != by_arg[30]

    def test_warm_run_has_no_compile_spans(self, service, tier_clock):
        sql = "SELECT grp, SUM(x) FROM r GROUP BY grp"
        # tier-ups are wall-clock decisions: on the real clock one can
        # land in the traced run.  Counted instead, every function this
        # query calls is on its top rung by its third call.
        tier_clock.promote_after(liftoff=1, turbofan=2)
        # cold + enough warm runs for adaptive tier state to settle
        for _ in range(3):
            service.execute(sql)
        trace = QueryTrace()
        result = service.execute(sql, trace=trace)
        assert result.plan_cache == "hit"
        kinds = {event.kind for event in trace.events}
        assert not any(k.startswith("compile.") for k in kinds), kinds
        assert "plan" not in kinds
        assert "translation" not in kinds
        assert "plancache.hit" in kinds

    def test_matches_single_shot_database(self, service):
        sql = "SELECT grp, COUNT(*), SUM(x) FROM r GROUP BY grp"
        cached = run_three(service, sql)
        oracle = service.db.execute(sql)
        assert sorted(cached.rows) == sorted(oracle.rows)
