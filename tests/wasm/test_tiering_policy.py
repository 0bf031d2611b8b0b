"""The tier-up cost meter, under a fake clock.

A function is promoted when the wall time it has run covers the
*estimated* compile time of a higher rung (instruction count x the
process-wide measured seconds per instruction), at the next call
boundary, straight to the highest rung already paid for.

Every test replaces the engine module's one clock name and its
process-wide rates through the shared ``tier_clock`` fixture
(``tests/conftest.py``), so decisions are exact and nothing leaks
between tests.
"""

import time

import pytest

import repro.wasm.runtime.engine as engine_module
from repro.db import Database
from repro.engines.wasm_engine import QueryRun, WasmEngine
from repro.observability import FakeClock, QueryTrace
from repro.errors import CompilationError
from repro.observability import get_registry
from repro.robustness import FaultInjector
from repro.server import QueryService
from repro.sql.analyzer import analyze
from repro.sql.parser import parse
from repro.wasm import ModuleBuilder
from repro.wasm.runtime.engine import (
    SEED_COMPILE_RATES,
    TIER_LADDERS,
    TIERS,
    CompileRates,
    Engine,
    EngineConfig,
)

from tests.conftest import installed_tier_clock
from tests.feedback.test_differential import QUERIES, canonical, populate


@pytest.fixture()
def clock(tier_clock):
    """Time moves only when a test (or the ``burn`` import) says so."""
    return tier_clock


@pytest.fixture()
def rates(tier_clock):
    return tier_clock.rates


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

    def __init__(self, clock, mode="adaptive_stencil", trace=None, **config):
        self.clock = clock
        self.cost = 0.0
        module = burn_module()
        self.size = module.functions[0].instruction_count()
        self.instance = Engine(EngineConfig(mode=mode, **config)).instantiate(
            module, imports={("env", "burn"): self._burn}, trace=trace,
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
        assert burner.instance.stats.seconds["liftoff"] == 0.0

    def test_promotion_waits_for_the_next_call(self, clock):
        """The call that pays for a rung does not compile it: a function
        that is never called again never buys code it cannot use."""
        burner = Burner(clock)
        burner.cost = 1.2 * burner.estimate("liftoff")
        assert burner.call() == "stencil"
        assert burner.instance.stats.tier_ups == 0
        assert burner.call() == "liftoff"
        assert burner.instance.stats.functions["liftoff"] == 1

    def test_one_expensive_call_skips_liftoff(self, clock):
        trace = QueryTrace(clock=FakeClock())
        burner = Burner(clock, trace=trace)
        turbofan = burner.estimate("turbofan")
        burner.cost = 1.5 * turbofan
        assert burner.call(2) == "turbofan"
        stats = burner.instance.stats
        assert stats.functions["liftoff"] == 0
        assert stats.functions["turbofan"] == 1
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
    """Counting calls is the same meter under a clock that ticks once
    per reading: ``tier_clock.promote_after`` is what every test that
    needs a tier-up at a known call uses."""

    @pytest.mark.parametrize("threshold", [2, 5])
    def test_explicit_threshold_promotes_on_exactly_the_nth_call(
            self, clock, threshold):
        clock.promote_after(liftoff=threshold, turbofan=2 * threshold)
        burner = Burner(clock)
        assert burner.call(threshold) == "stencil"
        assert burner.call() == "liftoff"
        # the time (here: the calls) of the rungs below is handed on
        assert burner.call(threshold - 1) == "liftoff"
        assert burner.call() == "turbofan"
        assert burner.instance.stats.tier_ups == 2

    def test_two_rung_ladder(self, clock):
        clock.promote_after(turbofan=3)
        burner = Burner(clock, mode="adaptive")
        assert burner.call(3) == "liftoff"
        assert burner.call() == "turbofan"

    def test_decision_attributes(self, clock):
        clock.promote_after(turbofan=3)
        trace = QueryTrace(clock=FakeClock())
        burner = Burner(clock, mode="adaptive", trace=trace)
        burner.call(4)
        (event,) = trace.find("tier_up")
        assert event.attrs == {
            "function": 1, "name": "work", "from_tier": "liftoff",
            "to_tier": "turbofan", "spent_ms": 3000.0,
            "estimated_compile_ms": 3000.0, "elided": 0,
            "prefiltered": 0,
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

    def test_every_real_compile_refreshes_the_mean(self, clock, rates):
        clock.step = 1.0
        Engine(EngineConfig(mode="liftoff")).instantiate(burn_module(),
                                                         imports=_NO_BURN)
        assert rates.seconds_per_instruction("liftoff") > \
            SEED_COMPILE_RATES["liftoff"]
        assert rates.seconds_per_instruction("turbofan") == pytest.approx(
            SEED_COMPILE_RATES["turbofan"])
        # a tier-up compile counts too: a one-second call pays for it
        instance = Engine(EngineConfig(mode="adaptive")).instantiate(
            burn_module(), imports=_NO_BURN)
        instance.invoke("work", 1)
        instance.invoke("work", 1)
        assert instance.tier_of("work") == "turbofan"
        assert rates.seconds_per_instruction("turbofan") > \
            SEED_COMPILE_RATES["turbofan"]

    def test_a_failed_compile_teaches_nothing(self, clock, rates):
        burner = Burner(clock, mode="adaptive",
                        fault_injector=FaultInjector.always(
                            "turbofan.compile"))
        burner.cost = 2 * burner.estimate("turbofan")
        burner.call(2)
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
        assert stats.functions["liftoff"] == 1
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


# -- the landing rule, from the tier table ------------------------------------

_TIER_OF_SITE = {tier.fault_site: name for name, tier in TIERS.items()
                 if tier.fault_site is not None}


def _climb(mode: str, failing: str):
    """What the tier table says becomes of a function that gets hot rung
    by rung in ``mode`` while every compile for ``failing`` fails: the
    tier it ends on (``None``: instantiation raises) and the
    ``(from_tier, to_tier)`` of each failed compile, in order."""
    failures = []

    def compile_for(rung, current):
        if rung != failing:
            return rung
        failures.append((current or "none", rung))
        landing = TIERS[rung].lands_on
        if landing in (None, current):
            return current
        return compile_for(landing, current)

    tier = None
    for rung in TIER_LADDERS[mode]:  # instantiation, then each promotion
        tier = compile_for(rung, tier)
        if failures:
            break  # pinned: no meter, no further compile
    return tier, failures


@pytest.mark.parametrize("site", sorted(_TIER_OF_SITE))
@pytest.mark.parametrize("mode", TIER_LADDERS)
class TestLandingRule:
    """One rule for a failed compile, whichever mode, fault site and
    moment (instantiation or promotion) it happens at."""

    def test_function_lands_where_the_table_says(self, clock, mode, site):
        want_tier, want_failures = _climb(mode, _TIER_OF_SITE[site])
        counter = get_registry().counter("engine_tier_up_failures_total")
        before = {pair: counter.value(from_tier=pair[0], to_tier=pair[1])
                  for pair in want_failures}
        # one tick per call: Liftoff is paid for by two calls, TurboFan
        # by four, so the function climbs rung by rung
        clock.promote_after(liftoff=2, turbofan=4)
        injector = FaultInjector.always(site)
        trace = QueryTrace(clock=FakeClock())

        if want_tier is None:
            # nothing below the baseline: the fallback chain's to handle
            with pytest.raises(CompilationError) as err:
                Burner(clock, mode=mode, fault_injector=injector,
                       trace=trace)
            assert err.value.retryable
        else:
            burner = Burner(clock, mode=mode, fault_injector=injector,
                            trace=trace)
            assert burner.call(6) == want_tier
            stats = burner.instance.stats
            assert stats.tier_up_failures == len(want_failures)
            # a later hot call compiles nothing: a pinned function (and
            # one on the top rung) runs without a meter
            compiled = dict(stats.functions)
            assert burner.call(50) == want_tier
            assert stats.functions == compiled
            export = burner.instance.module.export_by_name("work")
            metered = burner.instance.funcs[export.index].__name__ \
                == "tiering"
            assert metered == (not want_failures
                               and want_tier != TIER_LADDERS[mode][-1])

        # counter, events and metric tell the same story, with the same
        # attributes at instantiation as at a promotion
        assert injector.total_fired == len(want_failures)
        events = trace.find("tier_up.failure")
        assert [(e.attrs["from_tier"], e.attrs["to_tier"])
                for e in events] == want_failures
        for event in events:
            assert set(event.attrs) == {
                "function", "name", "from_tier", "to_tier", "spent_ms",
                "estimated_compile_ms"}
        for pair in want_failures:
            assert counter.value(from_tier=pair[0], to_tier=pair[1]) \
                == before[pair] + 1

    def test_rows_equal_the_interpreter_oracle(self, clock, mode, site):
        clock.promote_after(liftoff=1, turbofan=2)
        db = Database(fallback="default")
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, x INT)")
        db.table("t").append_rows([(i, i % 10) for i in range(64)])
        db._engines["wasm"] = WasmEngine(
            morsel_size=16, fault_injector=FaultInjector.always(site))
        spec = f"wasm[{mode}]"
        escapes = _climb(mode, _TIER_OF_SITE[site])[0] is None
        for sql in ("SELECT id FROM t WHERE x < 5",
                    "SELECT x, COUNT(*) FROM t GROUP BY x ORDER BY x"):
            oracle = db.execute(sql, engine="wasm[interpreter]").rows
            for _ in range(3):
                result = db.execute(sql, engine=spec)
                assert result.rows == oracle
                assert result.degraded == escapes
            if escapes:
                with pytest.raises(CompilationError):
                    db.execute(sql, engine=spec, fallback=None)


# -- through the SQL engine ---------------------------------------------------

def _scan_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, x INT)")
    db.table("t").append_rows([(i, i % 10) for i in range(64)])
    return db


class TestCachedExecutables:
    def test_meter_survives_reruns_and_instance_resets(self, clock, rates):
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
        clock.step = 0.4 * rates.estimate("liftoff",
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
        """Rows under a meter that promotes whatever is called twice."""
        with installed_tier_clock() as clock:
            clock.promote_after(liftoff=1, turbofan=2)
            service = QueryService(default_engine="wasm[adaptive_stencil]")
            populate(service)
            return [canonical(service.execute(sql)) for sql in QUERIES]

    @pytest.mark.parametrize("spec", ["wasm[adaptive_stencil]",
                                      "wasm[adaptive]"])
    def test_default_meter_matches_threshold_two(self, spec, expected):
        service = QueryService(default_engine=spec)
        assert engine_module._clock is time.perf_counter
        populate(service)
        for sql, want in zip(QUERIES, expected):
            for run in range(3):
                assert canonical(service.execute(sql)) == want, (sql, run)

    def test_a_meter_that_buys_everything_matches_too(self, clock, expected):
        # every metered call "takes" a second, so whatever is called
        # twice is promoted, most of it straight past Liftoff
        clock.step = 1.0
        service = QueryService(default_engine="wasm[adaptive_stencil]")
        populate(service)
        for sql, want in zip(QUERIES, expected):
            for run in range(3):
                assert canonical(service.execute(sql)) == want, (sql, run)
        # the cached executable of the last query, after its fourth run
        traced = service.execute(QUERIES[-1], trace=True)
        (stats,) = traced.trace.find("tier_stats")
        assert stats.attrs["turbofan_functions"] > 0
