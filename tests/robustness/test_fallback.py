"""Fallback chain: engine specs, routes, structured QueryError."""

import pytest

from repro.db import Database
from repro.engines.wasm_engine import QueryRun
from repro.errors import (
    AnalysisError,
    CompilationError,
    ConfigError,
    QueryCancelled,
    QueryError,
    ResourceExhausted,
    Trap,
)
from repro.robustness import (
    DEFAULT_CHAIN,
    CancelToken,
    Deadline,
    FaultInjector,
    parse_engine_spec,
    run_route,
)
from repro.sql.analyzer import analyze
from repro.sql.parser import parse


class Answer:
    """What ``run_route`` needs of a result: a ``fallback_attempts``
    slot."""

    def __init__(self, value):
        self.value = value
        self.fallback_attempts = None


def run_specs(specs, run_one):
    """``run_route`` over plain values: ``(value, failed specs)``."""
    result = run_route(specs, lambda spec: Answer(run_one(spec)))
    return result.value, [spec for spec, _ in result.fallback_attempts]


class TestSpecs:
    def test_parse(self):
        assert parse_engine_spec("wasm") == ("wasm", None)
        assert parse_engine_spec("wasm[interpreter]") == ("wasm",
                                                         "interpreter")
        assert parse_engine_spec("volcano") == ("volcano", None)

    @pytest.mark.parametrize("bad", ["", "wasm[", "wasm[]", "WASM",
                                     "wasm[interpreter][x]", "a b"])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ConfigError):
            parse_engine_spec(bad)


class TestPolicy:
    def test_default_chain(self):
        assert Database(fallback="default").fallback == DEFAULT_CHAIN
        assert Database(fallback=True).fallback == DEFAULT_CHAIN
        assert Database().fallback == Database(fallback=[]).fallback == ()

    def test_attempts_start_with_primary_and_dedupe(self):
        db = Database(fallback="default")
        assert db.route("wasm[adaptive_stencil]") == (
            "wasm[adaptive_stencil]", "wasm[interpreter]", "volcano"
        )
        assert db.route("volcano") == (
            "volcano", "wasm[adaptive_stencil]", "wasm[interpreter]"
        )
        assert Database().route("volcano") == ("volcano",)

    def test_validation(self):
        assert Database(fallback=["volcano"]).fallback == ("volcano",)
        with pytest.raises(ConfigError):
            Database(fallback=["wasm["])
        with pytest.raises(ConfigError):
            Database(fallback="volcano")
        with pytest.raises(ConfigError):
            run_route((), lambda spec: None)


class TestExecuteWithFallback:
    def test_first_success_short_circuits(self):
        calls = []

        def run(spec):
            calls.append(spec)
            return spec.upper()

        result, failures = run_specs(["a", "b"], run)
        assert (result, failures, calls) == ("A", [], ["a"])

    def test_retryable_error_advances_the_chain(self):
        def run(spec):
            if spec == "a":
                raise Trap("unreachable")
            return "ok"

        result, failures = run_specs(["a", "b"], run)
        assert result == "ok"
        assert failures == ["a"]

    def test_single_spec_reraises_the_original(self):
        def run(spec):
            raise Trap("unreachable")

        with pytest.raises(Trap):
            run_specs(["a"], run)

    def test_all_fail_raises_structured_query_error(self):
        def run(spec):
            raise CompilationError(f"broken on {spec}")

        with pytest.raises(QueryError) as err:
            run_specs(["a", "b", "c"], run)
        attempts = err.value.attempts
        assert [s for s, _ in attempts] == ["a", "b", "c"]
        assert all(isinstance(e, CompilationError) for e in err.value.causes)
        assert err.value.__cause__ is attempts[-1][1]

    def test_non_retryable_error_stops_immediately(self):
        calls = []

        def run(spec):
            calls.append(spec)
            raise AnalysisError("bad query")

        with pytest.raises(AnalysisError):
            run_specs(["a", "b"], run)
        assert calls == ["a"]

    def test_non_retryable_after_fallback_is_wrapped(self):
        def run(spec):
            if spec == "a":
                raise Trap("unreachable")
            raise ResourceExhausted("wall_clock", "too slow")

        with pytest.raises(QueryError) as err:
            run_specs(["a", "b", "c"], run)
        assert [s for s, _ in err.value.attempts] == ["a", "b"]


@pytest.fixture()
def db():
    database = Database(fallback="default")
    database.execute("CREATE TABLE t (id INT PRIMARY KEY, x INT, y INT)")
    database.execute(
        "INSERT INTO t VALUES (1, 10, 2), (2, 20, 0), (3, 30, 5)"
    )
    return database


class TestDatabaseFallback:
    def test_trap_degrades_to_a_correct_result(self, db):
        # wasm compiles the conjunction without short-circuit, so x / y
        # traps on the y = 0 row; volcano short-circuits and succeeds
        sql = "SELECT id FROM t WHERE y <> 0 AND x / y > 4"
        result = db.execute(sql)
        assert result.rows == [(1,), (3,)]
        assert result.degraded
        assert result.engine == "volcano"
        specs = [s for s, _ in result.fallback_attempts]
        assert specs == ["wasm[adaptive_stencil]", "wasm[interpreter]"]

    def test_no_fallback_surfaces_the_trap(self, db):
        db.fallback = ()
        with pytest.raises(Trap) as err:
            db.execute("SELECT id FROM t WHERE y <> 0 AND x / y > 4")
        assert err.value.phase == "execution"
        assert err.value.pipeline_index is not None
        assert err.value.morsel is not None

    def test_query_error_when_every_engine_fails(self, db):
        # a genuine divide-by-zero fails everywhere, each engine its way
        with pytest.raises(QueryError) as err:
            db.execute("SELECT x / y FROM t")
        assert [s for s, _ in err.value.attempts] == [
            "wasm[adaptive_stencil]", "wasm[interpreter]", "volcano"
        ]

    def test_liftoff_failure_degrades_to_interpreter(self, db):
        # stencil assembly declines too, so the primary's tier-0 entry
        # can't absorb the Liftoff failure — the compile genuinely dies
        engine = db.engine("wasm")
        engine.fault_injector = FaultInjector.always(
            "stencil.assemble", "liftoff.compile"
        )
        try:
            result = db.execute("SELECT SUM(x) FROM t")
            assert result.rows == [(60,)]
            assert result.engine == "wasm[interpreter]"
            assert [s for s, _ in result.fallback_attempts] == [
                "wasm[adaptive_stencil]"
            ]
        finally:
            engine.fault_injector = None

    def test_custom_chain(self, db):
        db.fallback = ("wasm", "vectorized")
        result = db.execute("SELECT id FROM t WHERE y <> 0 AND x / y > 4")
        assert result.rows == [(1,), (3,)]
        assert result.engine == "vectorized"
        assert [s for s, _ in result.fallback_attempts] == [
            "wasm[adaptive_stencil]", "wasm"
        ]

    def test_custom_primary_engine_spec(self, db):
        db.fallback = ()
        result = db.execute("SELECT SUM(x) FROM t",
                            engine="wasm[turbofan]")
        assert result.rows == [(60,)]
        assert result.engine == "wasm[turbofan]"

    def test_fallback_constructor_validation(self):
        with pytest.raises(ConfigError):
            Database(fallback=42)
        with pytest.raises(ConfigError):
            Database(fallback=["wasm["])

    def test_successful_query_is_not_degraded(self, db):
        result = db.execute("SELECT SUM(x) FROM t")
        assert not result.degraded
        assert result.fallback_attempts == []


class TestInsertColumnList:
    def test_missing_schema_column_raises_analysis_error(
        self, db, monkeypatch
    ):
        # the analyzer guards the public path; disarm it to prove the
        # mapping code itself raises AnalysisError, not a bare ValueError
        # from list.index, when a schema column is absent from the list
        import repro.db.database as database_module

        monkeypatch.setattr(database_module, "analyze",
                            lambda stmt, catalog: None)
        rows_before = db.table("t").row_count
        with pytest.raises(AnalysisError) as err:
            db.execute("INSERT INTO t (id, x, x) VALUES (7, 1, 2)")
        assert "'y'" in str(err.value)
        assert db.table("t").row_count == rows_before

    def test_analyzer_still_guards_the_public_path(self, db):
        with pytest.raises(AnalysisError):
            db.execute("INSERT INTO t (id, x, z) VALUES (7, 1, 2)")


class TestUncachedRunsHonourTheRun:
    """``Database.run_plan`` without a cached executable — every spec
    past a route's head — checks the run's cancel token, deadline and
    turnstile on every engine."""

    SPECS = ["volcano", "vectorized", "hyper", "wasm[interpreter]"]

    @pytest.fixture()
    def planned(self, db):
        db.table("t").append_rows([(i, i % 7, 1) for i in range(4, 3000)])
        select = parse("SELECT SUM(x) FROM t")
        analyze(select, db.catalog)
        return db, db.plan(select)

    @pytest.mark.parametrize("spec", SPECS)
    def test_cancelled_token_stops_the_run(self, planned, spec):
        db, plan = planned
        token = CancelToken(1)
        token.cancel("stop")
        with pytest.raises(QueryCancelled):
            db.run_plan(plan, spec, QueryRun(cancel_token=token))

    @pytest.mark.parametrize("spec", SPECS)
    def test_expired_deadline_stops_the_run(self, planned, spec):
        db, plan = planned
        now = [0.0]
        deadline = Deadline(1.0, clock=lambda: now[0])
        now[0] = 2.0
        with pytest.raises(ResourceExhausted) as err:
            db.run_plan(plan, spec, QueryRun(deadline=deadline))
        assert err.value.resource == "wall_clock"

    @pytest.mark.parametrize("spec", SPECS)
    def test_turnstile_is_passed(self, planned, spec):
        db, plan = planned
        passes = []
        result = db.run_plan(plan, spec, QueryRun(
            morsel_hook=lambda: passes.append(1)))
        assert result.rows == db.execute("SELECT SUM(x) FROM t").rows
        assert passes
