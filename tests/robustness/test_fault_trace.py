"""Injected faults are visible post-hoc as ``fault.injected`` trace events.

The chaos suite's central auditability property: when a seeded
:class:`FaultInjector` fires during a traced query, the trace records
one ``fault.injected`` event per firing — site, per-site trial number,
and firing count — so a chaos run can be reconstructed from its traces
alone.
"""

import pytest

from repro.db import Database
from repro.engines.wasm_engine import WasmEngine
from repro.observability import FakeClock, QueryTrace, get_registry
from repro.robustness import FaultInjector


@pytest.fixture()
def db(tier_clock):
    # four 16-row morsels must reach the TurboFan compile site, which
    # the cost meter on the real clock would not buy
    tier_clock.promote_after(turbofan=1)
    db = Database(default_engine="wasm", fallback="default")
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    db.table("t").append_rows([(i, i * 3) for i in range(64)])
    return db


def _with_injector(db, injector) -> WasmEngine:
    engine = WasmEngine(morsel_size=16, fault_injector=injector)
    db._engines["wasm"] = engine
    return engine


class TestFaultTraceEvents:
    def test_each_fired_fault_is_traced(self, db):
        injector = FaultInjector.always("turbofan.compile")
        _with_injector(db, injector)
        trace = QueryTrace(clock=FakeClock())
        result = db.execute("SELECT v FROM t WHERE v > 10", trace=trace)
        assert len(result.rows) == 60  # fallback still answers correctly

        events = trace.find("fault.injected")
        assert events, "no fault.injected events despite firing injector"
        assert len(events) == injector.total_fired
        assert all(e.attrs["site"] == "turbofan.compile" for e in events)
        # trial numbers are the injector's own per-site accounting
        assert [e.attrs["fired"] for e in events] == \
            list(range(1, len(events) + 1))

    def test_trap_fault_traced_with_degradation_trail(self, db):
        injector = FaultInjector.always("trap.morsel")
        _with_injector(db, injector)
        trace = QueryTrace(clock=FakeClock())
        result = db.execute("SELECT v FROM t", trace=trace)
        assert result.degraded

        sites = {e.attrs["site"] for e in trace.find("fault.injected")}
        assert sites == {"trap.morsel"}
        # the trace also shows the fallback transitions around the fault
        attempts = [e.attrs["engine"] for e in trace.find("engine.attempt")]
        failed = [e.attrs["engine"]
                  for e in trace.find("engine.attempt_failed")]
        assert attempts[0] == "wasm" and "wasm" in failed
        assert attempts[-1] == result.engine

    def test_untraced_queries_stay_silent(self, db):
        injector = FaultInjector.always("turbofan.compile")
        _with_injector(db, injector)
        result = db.execute("SELECT v FROM t WHERE v > 10")
        assert len(result.rows) == 60
        assert result.trace is None  # no trace requested, none recorded

    def test_fault_metrics_count_by_site(self, db):
        counter = get_registry().counter(
            "faults_injected_total", "Faults injected, by site"
        )
        before = counter.value(site="trap.morsel")
        injector = FaultInjector.always("trap.morsel", max_fires=2)
        _with_injector(db, injector)
        db.execute("SELECT v FROM t", trace=QueryTrace(clock=FakeClock()))
        assert counter.value(site="trap.morsel") == before + 2
