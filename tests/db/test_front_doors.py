"""Front-door differential: ``Database`` and ``QueryService`` are two
doors onto one statement pipeline (``Database.run_plan`` /
``Database.apply_write`` / ``Database.explain_analyze_result``), so the
same statement must come out the same through either — as a plain
SELECT, as a plan-cache miss and hit, and as PREPARE/EXECUTE."""

import re
import threading

import pytest

import repro.db.database as database_module
import repro.server.service as service_module
from repro.db import Database
from repro.errors import ConfigError, EngineError, Trap
from repro.observability import QueryTrace
from repro.observability.metrics import get_registry
from repro.robustness import FaultInjector
from repro.server import QueryService

from tests.feedback.test_differential import QUERIES, canonical, populate

SPECS = ["wasm", "wasm[liftoff]", "volcano", "vectorized"]

EXPLAINED = [
    "SELECT id, x FROM a WHERE x > 50",
    "SELECT g, COUNT(*), SUM(x) FROM a GROUP BY g",
    "SELECT g, SUM(v) FROM a, b WHERE a.id = b.a_id GROUP BY g",
]


@pytest.fixture(scope="module")
def doors():
    """One populated database behind both doors."""
    db = Database()
    populate(db)
    return db, QueryService(db)


def explain_lines(result) -> list[str]:
    """EXPLAIN ANALYZE output with what legitimately differs between
    two runs taken out: timings, the service-only ``cache:`` and
    ``feedback:`` lines, the phase list (the service's trace also covers
    its analyze/plan), and a worker task's cache temperature."""
    lines = []
    for (line,) in result.rows:
        if line.startswith(("cache:", "feedback:", "phases:")):
            continue
        line = re.sub(r"\d+\.\d+ms", "<t>", line)
        lines.append(re.sub(r"  (cold|warm)$", "", line))
    return lines


class TestSameAnswers:
    @pytest.mark.parametrize("spec", SPECS)
    def test_select_miss_hit_and_execute_agree(self, doors, spec):
        db, service = doors
        session = service.create_session()
        for number, sql in enumerate(QUERIES):
            direct = db.execute(sql, engine=spec)
            miss = service.execute(sql, engine=spec)
            hit = service.execute(sql, engine=spec)
            service.execute(f"PREPARE q{number} AS {sql}", session=session,
                            engine=spec)
            executed = service.execute(f"EXECUTE q{number}",
                                       session=session, engine=spec)
            assert (miss.plan_cache, hit.plan_cache) == ("miss", "hit")
            for other in (miss, hit, executed):
                assert canonical(other) == canonical(direct), (spec, sql)
                assert other.engine == direct.engine == spec

    @pytest.mark.parametrize("spec", SPECS)
    def test_bound_parameter_equals_the_literal(self, doors, spec):
        db, service = doors
        session = service.create_session()
        service.execute("PREPARE below AS SELECT id, x FROM a WHERE x < $1",
                        session=session, engine=spec)
        for bound in (10, 90, 50, 10):
            direct = db.execute(f"SELECT id, x FROM a WHERE x < {bound}",
                                engine=spec)
            executed = service.execute(f"EXECUTE below({bound})",
                                       session=session, engine=spec)
            assert canonical(executed) == canonical(direct)

    def test_both_doors_count_the_query(self, doors):
        db, service = doors
        counter = get_registry().counter("queries_total")
        for door in (db, service):
            before = counter.value(engine="wasm[liftoff]")
            door.execute(QUERIES[0], engine="wasm[liftoff]")
            assert counter.value(engine="wasm[liftoff]") == before + 1


class TestExplainAnalyze:
    # fixed-tier specs: what the adaptive ladder buys depends on the clock
    @pytest.mark.parametrize("spec", ["wasm[liftoff]", "wasm[turbofan]"])
    @pytest.mark.parametrize("sql", EXPLAINED)
    def test_same_pipeline_and_tier_lines(self, doors, spec, sql):
        db, service = doors
        direct = explain_lines(
            db.execute(f"EXPLAIN ANALYZE {sql}", engine=spec))
        served = explain_lines(
            service.execute(f"EXPLAIN ANALYZE {sql}", engine=spec))
        assert served == direct
        assert any(line.startswith("pipelines:") for line in direct)
        assert any(line.lstrip().startswith("shape:") for line in direct)
        assert any(line.startswith("tiers:") for line in direct)

    def test_plain_explain_traces_plan_analysis_through_both(self, doors):
        for door in doors:
            result = door.execute(f"EXPLAIN {EXPLAINED[0]}", trace=True)
            kinds = [event.kind for event in result.trace.events]
            assert "plan.analysis" in kinds

    @pytest.mark.parallel
    def test_pool_runs_print_report_and_worker_tasks(self):
        sql = f"EXPLAIN ANALYZE {EXPLAINED[1]}"
        with Database(workers=2) as db:
            populate(db)
            service = QueryService(db)
            direct = explain_lines(db.execute(sql, engine="wasm[liftoff]"))
            served = explain_lines(
                service.execute(sql, engine="wasm[liftoff]"))
        assert served == direct
        assert direct[0] == "EXPLAIN ANALYZE (engine=wasm[liftoff])"
        assert "result: 7 row(s)" in direct
        assert sum("worker task" in line for line in direct) == 2


class TestOneWritePath:
    def test_a_served_insert_is_parsed_once(self, monkeypatch):
        service = QueryService()
        service.execute("CREATE TABLE w (id INT PRIMARY KEY, x INT)")
        calls = []
        for module in (database_module, service_module):
            original = module.parse
            monkeypatch.setattr(
                module, "parse",
                lambda sql, original=original: (calls.append(sql),
                                                original(sql))[1])
        service.execute("INSERT INTO w VALUES (1, 10), (2, 20)")
        assert calls == ["INSERT INTO w VALUES (1, 10), (2, 20)"]
        assert service.execute("SELECT COUNT(*) FROM w").rows == [(2,)]


class TestExplainSharesPlanning:
    SQL = "SELECT x FROM r WHERE x < 42"

    @pytest.fixture
    def strict(self, monkeypatch):
        from repro.plan.analysis import PlanDiagnostic, PlanLinter

        db = Database(plan_lint="strict")
        db.execute("CREATE TABLE r (id INT PRIMARY KEY, x INT)")
        finding = PlanDiagnostic("type-mismatch", "LogicalProject", 0,
                                 "seeded finding")
        monkeypatch.setattr(PlanLinter, "lint", lambda self: [finding])
        return db

    def test_plan_enforces_what_explain_shows(self, strict):
        from repro.errors import LintError

        with pytest.raises(LintError):
            strict.execute(self.SQL)
        assert "lint: " in strict.explain(self.SQL)
        assert "seeded finding" in strict.explain(self.SQL)


class TestInjectedFaultsAreTraced:
    """A fault that fires is recorded in the trace of the query that
    visited the site — through either door, and in no other query's."""

    SQL = "SELECT id, x FROM a WHERE x > 50"

    @staticmethod
    def _sites(trace) -> list[str]:
        return [e.attrs["site"] for e in trace.find("fault.injected")]

    def test_an_engine_fault_is_recorded_through_either_door(self):
        db = Database()
        populate(db)
        rows = db.execute(self.SQL, engine="volcano").rows
        for door in (db, QueryService(db)):
            db.engine("wasm").fault_injector = FaultInjector.always(
                "trap.morsel", max_fires=1)
            trace = QueryTrace()
            with pytest.raises(Trap):
                door.execute(self.SQL, trace=trace)
            assert self._sites(trace) == ["trap.morsel"]
            # the transient fault spent, the same door answers
            assert sorted(door.execute(self.SQL).rows) == sorted(rows)

    def test_a_service_fault_is_recorded_in_the_service_trace(self):
        db = Database()
        populate(db)
        service = QueryService(db, fault_injector=FaultInjector.always(
            "cache.lookup", max_fires=1))
        trace = QueryTrace()
        with pytest.raises(EngineError):
            service.execute(self.SQL, trace=trace)
        assert self._sites(trace) == ["cache.lookup"]

    def test_concurrent_queries_keep_their_own_events(self):
        db = Database()
        populate(db)
        service = QueryService(db)
        db.engine("wasm").fault_injector = FaultInjector.always("trap.morsel")
        barrier = threading.Barrier(2)
        seen: list[list[str]] = []

        def client():
            barrier.wait(timeout=30)
            for _ in range(25):
                trace = QueryTrace()
                with pytest.raises(Trap):
                    service.execute(self.SQL, trace=trace)
                seen.append(self._sites(trace))

        threads = [threading.Thread(target=client) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert seen == [["trap.morsel"]] * 50


class TestUnknownMode:
    def test_rejected_when_the_spec_is_resolved(self, doors):
        db, service = doors
        with pytest.raises(ConfigError, match="unknown engine mode 'bogus'"):
            db.resolve_engine("wasm[bogus]")
        with pytest.raises(ConfigError, match="no execution modes"):
            db.resolve_engine("volcano[fast]")
        for door in doors:
            trace = QueryTrace()
            with pytest.raises(ConfigError, match="unknown engine mode"):
                door.execute(QUERIES[0], engine="wasm[bogus]", trace=trace)
            # nothing was translated or compiled for it
            assert not trace.find("translation")
