"""The tier-up cost meter, under a fake clock.

A function is promoted when the wall time it has run covers the
*estimated* compile time of a higher rung (instruction count x the
process-wide measured seconds per instruction), at the next call
boundary, straight to the highest rung already paid for.  An explicit
integer ``tier_up_threshold`` makes the same meter count calls.

Every test replaces the engine module's one clock name and its
process-wide rates, so decisions are exact and nothing leaks between
tests.
"""

import pytest

import repro.wasm.runtime.engine as engine_module
from repro.db import Database
from repro.engines.wasm_engine import QueryRun, WasmEngine
from repro.observability import FakeClock, QueryTrace
from repro.robustness import FaultInjector
from repro.server import QueryService
from repro.sql.analyzer import analyze
from repro.sql.parser import parse
from repro.wasm import ModuleBuilder
from repro.wasm.runtime.engine import (
    SEED_COMPILE_RATES,
    CompileRates,
    Engine,
    EngineConfig,
)

from tests.feedback.test_differential import QUERIES, canonical, populate


class ManualClock:
    """Time moves only when a test (or the ``burn`` import) says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class SteppingClock:
    """Every reading is ``step`` later than the one before, so each
    metered call that makes no metered calls itself takes one step."""

    def __init__(self, step: float = 0.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


@pytest.fixture()
def rates(monkeypatch):
    fresh = CompileRates()
    monkeypatch.setattr(engine_module, "compile_rates", fresh)
    return fresh


@pytest.fixture()
def clock(monkeypatch, rates):
    manual = ManualClock()
    monkeypatch.setattr(engine_module, "_clock", manual)
    return manual


def burn_module():
    """``work(n) -> n + 1``; each call burns host-controlled time."""
    mb = ModuleBuilder("burn")
    burn = mb.import_function("env", "burn", [], [])
    f = mb.function("work", params=[("i32", "n")], results=["i32"],
                    export=True)
    f.emit("call", burn)
    f.get(0).i32(1).emit("i32.add")
    return mb.finish()


_NO_BURN = {("env", "burn"): lambda: None}


class Burner:
    """One instance of :func:`burn_module` whose calls cost ``cost``
    fake seconds each."""

    def __init__(self, clock, mode="adaptive_stencil", **config):
        self.clock = clock
        self.cost = 0.0
        module = burn_module()
        self.size = module.functions[0].instruction_count()
        self.instance = Engine(EngineConfig(mode=mode, **config)).instantiate(
            module, imports={("env", "burn"): self._burn}
        )

    def _burn(self):
        self.clock.now += self.cost

    def estimate(self, tier: str) -> float:
        return engine_module.compile_rates.estimate(tier, self.size)

    def call(self, times: int = 1):
        for n in range(times):
            assert self.instance.invoke("work", n) == n + 1
        return self.instance.tier_of("work")


class TestCostMeter:
    def test_no_promotion_while_spent_is_below_the_estimate(self, clock):
        burner = Burner(clock)
        burner.cost = 0.3 * burner.estimate("liftoff")
        # three calls leave 0.9 of the estimate on the meter
        assert burner.call(4) == "stencil"
        assert burner.instance.stats.tier_ups == 0
        assert burner.instance.stats.liftoff_seconds == 0.0

    def test_promotion_waits_for_the_next_call(self, clock):
        """The call that pays for a rung does not compile it: a function
        that is never called again never buys code it cannot use."""
        burner = Burner(clock)
        burner.cost = 1.2 * burner.estimate("liftoff")
        assert burner.call() == "stencil"
        assert burner.instance.stats.tier_ups == 0
        assert burner.call() == "liftoff"
        assert burner.instance.stats.liftoff_functions == 1

    def test_one_expensive_call_skips_liftoff(self, clock):
        trace = QueryTrace(clock=FakeClock())
        burner = Burner(clock, trace=trace)
        turbofan = burner.estimate("turbofan")
        burner.cost = 1.5 * turbofan
        assert burner.call(2) == "turbofan"
        stats = burner.instance.stats
        assert stats.liftoff_functions == 0
        assert stats.turbofan_functions == 1
        assert stats.tier_ups == 1
        (event,) = trace.find("tier_up")
        assert event.attrs["from_tier"] == "stencil"
        assert event.attrs["to_tier"] == "turbofan"
        assert event.attrs["name"] == "work"
        assert event.attrs["spent_ms"] == pytest.approx(1500 * turbofan,
                                                        abs=1e-3)
        assert event.attrs["estimated_compile_ms"] == pytest.approx(
            1000 * turbofan, abs=1e-3)
        assert not trace.find("compile.liftoff")

    def test_time_is_handed_on_through_promotions(self, clock):
        """Liftoff is bought first; the total — not the time since —
        then buys TurboFan."""
        burner = Burner(clock)
        liftoff = burner.estimate("liftoff")
        turbofan = burner.estimate("turbofan")
        assert liftoff < turbofan < 3 * liftoff  # the seeds: 18 vs 50 us
        burner.cost = 1.1 * liftoff
        assert burner.call(2) == "liftoff"   # 1.1 on the meter
        assert burner.call() == "liftoff"    # enters with 2.2 < 2.78
        assert burner.call() == "turbofan"   # enters with 3.3
        assert burner.instance.stats.tier_ups == 2

    def test_the_top_rung_runs_unmetered(self, clock):
        burner = Burner(clock)
        burner.cost = 2 * burner.estimate("turbofan")
        assert burner.call(2) == "turbofan"
        export = burner.instance.module.export_by_name("work")
        assert burner.instance.funcs[export.index].__name__ != "tiering"

    def test_recursion_is_charged_once(self, clock):
        """Only the outermost activation holds the meter: ``depth``
        nested calls cost what the clock says, not ``depth`` times it."""
        mb = ModuleBuilder("rec")
        burn = mb.import_function("env", "burn", [], [])
        f = mb.function("down", params=[("i32", "n")], results=["i32"],
                        export=True)
        f.emit("call", burn)
        f.get(0).emit("i32.eqz")
        with f.if_(["i32"]) as branch:
            f.i32(0)
            branch.else_()
            f.get(0).i32(1).emit("i32.sub").call(f.func_index)
        module = mb.finish()
        size = module.functions[0].instruction_count()
        liftoff = engine_module.compile_rates.estimate("liftoff", size)

        def burn_host():
            clock.now += 0.1 * liftoff

        instance = Engine(EngineConfig(mode="adaptive_stencil")).instantiate(
            module, imports={("env", "burn"): burn_host}
        )
        # 5 activations burn 0.5 of the estimate; charging each nested
        # activation its inclusive time would read 1.5 and promote
        assert instance.invoke("down", 4) == 0
        assert instance.invoke("down", 0) == 0
        assert instance.tier_of("down") == "stencil"


class TestCallMeter:
    @pytest.mark.parametrize("threshold", [2, 5])
    def test_explicit_threshold_promotes_on_exactly_the_nth_call(
            self, clock, threshold):
        burner = Burner(clock, tier_up_threshold=threshold)
        burner.cost = 1e6  # time is not what this meter counts
        assert burner.call(threshold - 1) == "stencil"
        assert burner.call() == "liftoff"
        # the promoting call is the first of the next rung's count
        assert burner.call(threshold - 2) == "liftoff"
        assert burner.call() == "turbofan"
        assert burner.instance.stats.tier_ups == 2

    def test_two_rung_ladder(self, clock):
        burner = Burner(clock, mode="adaptive", tier_up_threshold=3)
        assert burner.call(2) == "liftoff"
        assert burner.call() == "turbofan"

    def test_decision_attributes(self, clock):
        trace = QueryTrace(clock=FakeClock())
        burner = Burner(clock, mode="adaptive", tier_up_threshold=3,
                        trace=trace)
        burner.call(3)
        (event,) = trace.find("tier_up")
        assert event.attrs == {
            "function": 1, "name": "work", "from_tier": "liftoff",
            "to_tier": "turbofan", "calls": 3, "threshold": 3, "elided": 0,
        }


class TestCompileRates:
    def test_seeded_from_the_measured_rates(self):
        rates = CompileRates()
        for tier, seed in SEED_COMPILE_RATES.items():
            assert rates.seconds_per_instruction(tier) == pytest.approx(seed)

    def test_running_mean_follows_measured_compiles(self):
        rates = CompileRates()
        seed = rates.seconds_per_instruction("turbofan")
        rates.record("turbofan", 1000, 1000 * 4 * seed)
        once = rates.seconds_per_instruction("turbofan")
        rates.record("turbofan", 1000, 1000 * 4 * seed)
        twice = rates.seconds_per_instruction("turbofan")
        assert seed < once < twice < 4 * seed
        # the other tier's mean is its own
        assert rates.seconds_per_instruction("liftoff") == pytest.approx(
            SEED_COMPILE_RATES["liftoff"])

    def test_estimates_use_the_current_mean(self, clock, rates):
        cheap = Burner(clock, mode="adaptive")
        cheap.cost = 1.2 * cheap.estimate("turbofan")
        assert cheap.call(2) == "turbofan"
        # compiles get four times dearer: the same spend no longer pays
        rates.record("turbofan", 10**6,
                     10**6 * 4 * SEED_COMPILE_RATES["turbofan"])
        dear = Burner(clock, mode="adaptive")
        dear.cost = cheap.cost
        assert dear.call(2) == "liftoff"

    def test_every_real_compile_refreshes_the_mean(self, monkeypatch, rates):
        monkeypatch.setattr(engine_module, "_clock", SteppingClock(1.0))
        Engine(EngineConfig(mode="liftoff")).instantiate(burn_module(),
                                                         imports=_NO_BURN)
        assert rates.seconds_per_instruction("liftoff") > \
            SEED_COMPILE_RATES["liftoff"]
        assert rates.seconds_per_instruction("turbofan") == pytest.approx(
            SEED_COMPILE_RATES["turbofan"])
        # a tier-up compile counts too
        instance = Engine(EngineConfig(
            mode="adaptive", tier_up_threshold=1,
        )).instantiate(burn_module(), imports=_NO_BURN)
        instance.invoke("work", 1)
        assert rates.seconds_per_instruction("turbofan") > \
            SEED_COMPILE_RATES["turbofan"]

    def test_a_failed_compile_teaches_nothing(self, clock, rates):
        burner = Burner(clock, mode="adaptive", tier_up_threshold=1,
                        fault_injector=FaultInjector.always(
                            "turbofan.compile"))
        burner.call()
        assert burner.instance.stats.tier_up_failures == 1
        assert rates.seconds_per_instruction("turbofan") == pytest.approx(
            SEED_COMPILE_RATES["turbofan"])


class TestFailurePinning:
    """A rung that fails to compile is never retried, whichever rung the
    function was on when it tried."""

    def _unmetered(self, burner) -> bool:
        export = burner.instance.module.export_by_name("work")
        return burner.instance.funcs[export.index].__name__ != "tiering"

    def test_skipped_rung_is_tried_when_the_top_one_fails(self, clock):
        injector = FaultInjector.always("turbofan.compile")
        trace = QueryTrace(clock=FakeClock())
        burner = Burner(clock, fault_injector=injector, trace=trace)
        burner.cost = 2 * burner.estimate("turbofan")
        # stencil -> TurboFan fails, Liftoff (also paid for) is bought
        assert burner.call(2) == "liftoff"
        assert burner.call(50) == "liftoff"
        stats = burner.instance.stats
        assert stats.tier_up_failures == 1
        assert injector.fired["turbofan.compile"] == 1
        assert stats.liftoff_functions == 1
        assert self._unmetered(burner)
        (failure,) = trace.find("tier_up.failure")
        assert failure.attrs["from_tier"] == "stencil"
        assert failure.attrs["to_tier"] == "turbofan"
        assert "spent_ms" in failure.attrs
        (success,) = trace.find("tier_up")
        assert success.attrs["to_tier"] == "liftoff"

    def test_every_rung_failing_pins_the_stencil_code(self, clock):
        injector = FaultInjector.always("turbofan.compile",
                                        "liftoff.compile")
        burner = Burner(clock, fault_injector=injector)
        burner.cost = 2 * burner.estimate("turbofan")
        assert burner.call(2) == "stencil"
        assert burner.call(50) == "stencil"
        assert burner.instance.stats.tier_up_failures == 2
        assert injector.total_fired == 2
        assert self._unmetered(burner)

    def test_failure_from_the_liftoff_rung_pins_liftoff(self, clock):
        injector = FaultInjector.always("turbofan.compile")
        burner = Burner(clock, fault_injector=injector)
        burner.cost = 1.1 * burner.estimate("liftoff")
        assert burner.call(2) == "liftoff"
        assert burner.call(50) == "liftoff"
        assert burner.instance.stats.tier_up_failures == 1
        assert injector.fired["turbofan.compile"] == 1
        assert self._unmetered(burner)


# -- through the SQL engine ---------------------------------------------------

def _scan_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, x INT)")
    db.table("t").append_rows([(i, i % 10) for i in range(64)])
    return db


class TestCachedExecutables:
    def test_meter_survives_reruns_and_instance_resets(self, monkeypatch,
                                                       rates):
        stepping = SteppingClock()
        monkeypatch.setattr(engine_module, "_clock", stepping)
        db = _scan_db()
        stmt = parse("SELECT id FROM t WHERE x < 5")
        analyze(stmt, db.catalog)
        plan = db.plan(stmt)
        engine = WasmEngine(mode="adaptive_stencil")
        executable = engine.prepare_executable(plan, db.catalog)
        index, pipeline = executable.compiled.module.function_by_name(
            "pipeline_0")
        # 64 rows are one morsel: each execution is one pipeline call,
        # and one call is one step of the clock
        stepping.step = 0.4 * rates.estimate("liftoff",
                                             pipeline.instruction_count())
        tiers, rows, traces = [], [], []
        for _ in range(4):
            traces.append(QueryTrace(clock=FakeClock()))
            result = engine.execute_prepared(executable, plan, db.catalog,
                                             QueryRun(trace=traces[-1]))
            rows.append(result.rows)
            tiers.append(executable.instance.funcs[index].tier)
        # runs 1-3 put 0.4, 0.8, 1.2 estimates on the meter; run 4
        # enters with the rung paid for
        assert tiers == ["stencil", "stencil", "stencil", "liftoff"]
        assert executable.executions == 4
        # the decision is recorded in the trace of the run that made it
        promoted = [[e.attrs["to_tier"] for e in t.find("tier_up")
                     if e.attrs["name"] == "pipeline_0"] for t in traces]
        assert promoted == [[], [], [], ["liftoff"]]
        assert rows[0] == rows[1] == rows[2] == rows[3]
        assert len(rows[0]) == 34


class TestPolicyIsResultInvisible:
    """Which meter runs, and what it decides, never changes a row."""

    @pytest.fixture(scope="class")
    def expected(self):
        service = QueryService(default_engine="wasm[adaptive_stencil]")
        service.db.engine("wasm").tier_up_threshold = 2
        populate(service)
        return [canonical(service.execute(sql)) for sql in QUERIES]

    @pytest.mark.parametrize("spec", ["wasm[adaptive_stencil]",
                                      "wasm[adaptive]"])
    def test_default_meter_matches_threshold_two(self, spec, expected):
        service = QueryService(default_engine=spec)
        assert service.db.engine("wasm").tier_up_threshold is None
        populate(service)
        for sql, want in zip(QUERIES, expected):
            for run in range(3):
                assert canonical(service.execute(sql)) == want, (sql, run)

    def test_a_meter_that_buys_everything_matches_too(self, monkeypatch,
                                                      rates, expected):
        # every metered call "takes" a second, so whatever is called
        # twice is promoted, most of it straight past Liftoff
        monkeypatch.setattr(engine_module, "_clock", SteppingClock(1.0))
        service = QueryService(default_engine="wasm[adaptive_stencil]")
        populate(service)
        for sql, want in zip(QUERIES, expected):
            for run in range(3):
                assert canonical(service.execute(sql)) == want, (sql, run)
        # the cached executable of the last query, after its fourth run
        traced = service.execute(QUERIES[-1], trace=True)
        (stats,) = traced.trace.find("tier_stats")
        assert stats.attrs["turbofan_functions"] > 0
