"""Service-level resilience end to end: one deadline from admission to
the last morsel, cooperative CANCEL from a second session, and the
per-fingerprint tier circuit breakers."""

import threading

import pytest

from repro.errors import (
    QueryCancelled,
    ResourceExhausted,
    ServiceError,
    SessionError,
)
from repro.observability.metrics import get_registry
from repro.observability.trace import QueryTrace
from repro.robustness import FaultInjector
from repro.server import QueryService

ROWS = 3000


def make_service(**kwargs) -> QueryService:
    svc = QueryService(**kwargs)
    svc.execute("CREATE TABLE t (id INT PRIMARY KEY, x INT)")
    values = ", ".join(f"({i}, {i % 97})" for i in range(1, ROWS + 1))
    svc.execute(f"INSERT INTO t VALUES {values}")
    # many small morsels: cancellation/deadline checks happen per morsel
    svc.db.engine("wasm").morsel_size = 64
    return svc


SLOW_SQL = "SELECT a.x FROM t a, t b WHERE a.x = b.x AND a.x < 5"


def breaker_events(trace: QueryTrace) -> list:
    return [(e.kind, dict(e.attrs)) for e in trace.events
            if e.kind.startswith("breaker")]


class TestCancel:
    def test_cancel_mid_scan_from_second_session(self):
        svc = make_service()
        victim_session = svc.create_session()
        operator = svc.create_session()
        mid_scan = threading.Event()
        cancel_sent = threading.Event()
        original_gate = svc.scheduler.gate

        def gate(ticket):
            # hold the victim at a morsel boundary until the CANCEL has
            # been issued: the abort is then provably within one morsel
            if not mid_scan.is_set():
                mid_scan.set()
                cancel_sent.wait(10.0)
            original_gate(ticket)

        svc.scheduler.gate = gate
        caught: list = []

        def run_victim():
            try:
                svc.execute(SLOW_SQL, session=victim_session)
                caught.append(None)
            except QueryCancelled as err:
                caught.append(err)

        thread = threading.Thread(target=run_victim)
        thread.start()
        assert mid_scan.wait(10.0), "victim never reached its first morsel"
        [active] = [a for a in svc.active_queries()
                    if a.session_id == victim_session.id]
        svc.execute(f"CANCEL {active.id}", session=operator)
        cancel_sent.set()
        thread.join(10.0)
        assert not thread.is_alive(), "cancelled query failed to abort"
        [err] = caught
        assert isinstance(err, QueryCancelled)
        assert err.query_id == active.id
        assert err.phase == "execution"
        assert f"session {operator.id}" in err.reason
        assert get_registry().counter("queries_cancelled_total").total >= 1

    def test_cancel_unknown_query_id_is_an_error(self):
        svc = make_service()
        with pytest.raises(ServiceError, match="no running query"):
            svc.execute("CANCEL 424242")

    def test_finished_query_disappears_from_show_queries(self):
        svc = make_service()
        svc.execute("SELECT x FROM t WHERE x < 3")
        result = svc.execute("SHOW QUERIES")
        rows = [row[0] for row in result.rows]
        # only the header remains: the SELECT is done and SHOW QUERIES
        # itself does not occupy a scheduler slot
        assert rows[0].startswith("id")
        assert not any("SELECT" in line for line in rows)

    def test_show_queries_lists_a_running_query(self):
        svc = make_service()
        running = threading.Event()
        proceed = threading.Event()
        original_gate = svc.scheduler.gate

        def gate(ticket):
            if not running.is_set():
                running.set()
                proceed.wait(10.0)
            original_gate(ticket)

        svc.scheduler.gate = gate
        thread = threading.Thread(
            target=lambda: svc.execute("SELECT x FROM t WHERE x < 3"))
        thread.start()
        assert running.wait(10.0)
        try:
            rows = [r[0] for r in svc.execute("SHOW QUERIES").rows]
            assert any("SELECT x FROM t" in line for line in rows)
        finally:
            proceed.set()
            thread.join(10.0)

    def test_close_session_cancels_its_running_queries(self):
        svc = make_service()
        session = svc.create_session()
        started = threading.Event()
        closed = threading.Event()
        original_gate = svc.scheduler.gate

        def gate(ticket):
            if not started.is_set():
                started.set()
                closed.wait(10.0)
            original_gate(ticket)

        svc.scheduler.gate = gate
        caught: list = []

        def run():
            try:
                svc.execute(SLOW_SQL, session=session)
                caught.append(None)
            except QueryCancelled as err:
                caught.append(err)

        thread = threading.Thread(target=run)
        thread.start()
        assert started.wait(10.0)
        svc.close_session(session)  # what the TCP front end does at EOF
        closed.set()
        thread.join(10.0)
        assert not thread.is_alive()
        [err] = caught
        assert isinstance(err, QueryCancelled)
        assert "closed" in err.reason


class TestDeadline:
    def test_statement_timeout_via_set(self):
        svc = make_service()
        session = svc.create_session()
        svc.execute("SET statement_timeout = 0.001", session=session)
        with pytest.raises(ResourceExhausted) as info:
            svc.execute(SLOW_SQL, session=session)
        assert info.value.resource == "wall_clock"
        # and clearing it makes the query run again
        svc.execute("SET statement_timeout = 0", session=session)
        assert session.statement_timeout is None
        svc.execute("SELECT x FROM t WHERE x < 3", session=session)

    def test_per_query_timeout_tightens_the_session_budget(self):
        svc = make_service()
        session = svc.create_session()
        svc.execute("SET statement_timeout = 3600", session=session)
        with pytest.raises(ResourceExhausted):
            svc.execute(SLOW_SQL, session=session, timeout_seconds=0.001)

    def test_admission_wait_debits_the_same_budget(self):
        # hold the only slot by hand; the queued query's deadline must
        # expire *in the queue* and surface as an admission-phase error
        svc = make_service(max_concurrent=1, max_queue_depth=4)
        ticket = svc.scheduler.admit()
        try:
            with pytest.raises(ResourceExhausted) as info:
                svc.execute("SELECT x FROM t WHERE x < 3",
                            timeout_seconds=0.05)
            assert info.value.phase == "admission"
            assert "queued" in str(info.value)
        finally:
            svc.scheduler.release(ticket)
        # the slot is free again: the same query now runs instantly
        svc.execute("SELECT x FROM t WHERE x < 3", timeout_seconds=5.0)

    def test_set_statement_timeout_requires_a_session(self):
        svc = make_service()
        with pytest.raises(SessionError):
            svc.execute("SET statement_timeout = 1")

    def test_set_rejects_garbage(self):
        svc = make_service()
        session = svc.create_session()
        with pytest.raises(Exception, match="number"):
            svc.execute("SET statement_timeout = 'soon'", session=session)
        with pytest.raises(SessionError, match="unknown session option"):
            svc.execute("SET wrench = 1", session=session)


class TestTierBreaker:
    SQL = "SELECT x FROM t WHERE x < 90"

    @pytest.fixture(autouse=True)
    def hot_fast(self, tier_clock):
        """Functions get hot fast: one call pays for TurboFan."""
        tier_clock.promote_after(liftoff=1, turbofan=1)

    def _service(self, clock):
        svc = make_service(breaker_threshold=2, breaker_cooldown=10.0,
                           breaker_clock=lambda: clock[0])
        engine = svc.db.engine("wasm")
        engine.fault_injector = FaultInjector.always("turbofan.compile")
        return svc

    def test_repeated_bailouts_open_then_degrade_then_recover(self):
        clock = [0.0]
        svc = self._service(clock)
        fingerprints = []

        # episode 1 and 2: fresh compilations, each bailing once
        for _ in range(2):
            trace = QueryTrace()
            svc.execute(self.SQL, trace=trace)
            assert any(kind == "breaker.bailouts"
                       for kind, _ in breaker_events(trace))
            svc.cache.clear()  # force the next compile episode
        fingerprints = list(svc.breakers.states())
        assert len(fingerprints) == 1
        assert svc.breakers.states()[fingerprints[0]] == "open"

        # while open: compilation is pinned to Liftoff — no tier-up is
        # attempted, the query still answers correctly
        trace = QueryTrace()
        result = svc.execute(self.SQL, trace=trace)
        assert ("breaker.degraded",
                {"engine": "wasm[adaptive_stencil]", "state": "open"}) \
            in breaker_events(trace)
        assert len(result) == sum(1 for i in range(1, ROWS + 1)
                                  if i % 97 < 90)
        assert not any(e.kind == "tier_up.failure" for e in trace.events)
        svc.cache.clear()

        # after the cool-down the half-open probe compiles TurboFan
        # again; with the fault gone, the clean episode closes the
        # breaker
        clock[0] += 11.0
        svc.db.engine("wasm").fault_injector = None
        trace = QueryTrace()
        svc.execute(self.SQL, trace=trace)
        assert ("breaker.clean", {"state": "closed"}) \
            in breaker_events(trace)
        assert svc.breakers.states()[fingerprints[0]] == "closed"

    def test_failed_probe_reopens(self):
        clock = [0.0]
        svc = self._service(clock)
        for _ in range(2):
            svc.execute(self.SQL)
            svc.cache.clear()
        clock[0] += 11.0  # half-open; the fault is still active
        svc.execute(self.SQL)
        fingerprint = next(iter(svc.breakers.states()))
        assert svc.breakers.states()[fingerprint] == "open"

    def test_breaker_transitions_are_counted(self):
        before = get_registry().counter(
            "breaker_transitions_total").value(state="open")
        clock = [0.0]
        svc = self._service(clock)
        for _ in range(2):
            svc.execute(self.SQL)
            svc.cache.clear()
        after = get_registry().counter(
            "breaker_transitions_total").value(state="open")
        assert after == before + 1

    def test_breakers_can_be_disabled(self):
        svc = make_service(breaker_threshold=None)
        assert svc.breakers is None
        svc.execute(self.SQL)  # nothing recorded, nothing raised
