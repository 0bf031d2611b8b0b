"""Service-level resilience end to end: one deadline from admission to
the last morsel, cooperative CANCEL from a second session, and the
per-fingerprint tier circuit breakers."""

import threading
import time

import pytest

from repro.db import Database
from repro.errors import (
    CompilationError,
    QueryCancelled,
    QueryError,
    ReproError,
    ResourceExhausted,
    ServiceError,
    SessionError,
)
from repro.observability.metrics import get_registry
from repro.observability.trace import QueryTrace
from repro.robustness import FaultInjector, resilience
from repro.server import QueryService
from repro.server.service import BREAKER_COOLDOWN_SECONDS, BREAKER_THRESHOLD

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


def breaker_states(svc: QueryService) -> dict:
    return {fp: breaker.state for fp, breaker in svc.breakers.items()}


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


class TestFallbackKeepsTheBudget:
    """Every spec of a degraded route runs under the query's deadline,
    cancel token and turnstile, not only the cached head."""

    JOIN = "SELECT COUNT(*) FROM big a, big b WHERE a.id = b.id"

    @pytest.fixture()
    def svc(self):
        db = Database(fallback="default")
        db.execute("CREATE TABLE big (id INT PRIMARY KEY, x INT)")
        db.table("big").append_rows([(i, i % 97) for i in range(40000)])
        db.engine("wasm").fault_injector = FaultInjector.always(
            "trap.morsel")
        return QueryService(db)

    def test_degraded_route_answers_without_a_budget(self, svc):
        result = svc.execute(self.JOIN)
        assert result.rows == [(40000,)]
        assert result.engine == "volcano"

    @staticmethod
    def hold_on_volcano(svc, trace, until):
        """Park the query at its first turnstile pass inside the route's
        last spec until ``until()`` holds; returns the event set then."""
        reached = threading.Event()
        original_gate = svc.scheduler.gate

        def gate(ticket):
            if not reached.is_set() and any(
                    e.attrs.get("engine") == "volcano"
                    for e in trace.find("engine.attempt")):
                reached.set()
                give_up = time.monotonic() + 10.0
                while not until() and time.monotonic() < give_up:
                    time.sleep(0.005)
            original_gate(ticket)

        svc.scheduler.gate = gate
        return reached

    def test_timeout_stops_the_volcano_attempt(self, svc):
        # the budget easily covers the two trapping Wasm attempts; the
        # query is then held inside volcano until it has run out
        trace = QueryTrace()
        reached = self.hold_on_volcano(svc, trace, lambda: all(
            a.deadline.expired for a in svc.active_queries()))
        with pytest.raises(QueryError) as info:
            svc.execute(self.JOIN, timeout_seconds=1.0, trace=trace)
        assert reached.is_set()
        assert [spec for spec, _ in info.value.attempts][-1] == "volcano"
        cause = info.value.__cause__
        assert isinstance(cause, ResourceExhausted)
        assert cause.resource == "wall_clock"

    def test_cancel_stops_the_volcano_attempt(self, svc):
        operator = svc.create_session()
        trace = QueryTrace()
        cancel_sent = threading.Event()
        on_volcano = self.hold_on_volcano(svc, trace, cancel_sent.is_set)
        caught: list = []

        def run_victim():
            try:
                caught.append(svc.execute(self.JOIN, trace=trace))
            except ReproError as err:
                caught.append(err)

        thread = threading.Thread(target=run_victim)
        thread.start()
        assert on_volcano.wait(30.0), "the route never reached volcano"
        [active] = svc.active_queries()
        svc.execute(f"CANCEL {active.id}", session=operator)
        cancel_sent.set()
        thread.join(30.0)
        assert not thread.is_alive()
        [err] = caught
        assert isinstance(err, QueryError)
        assert [spec for spec, _ in err.attempts][-1] == "volcano"
        assert isinstance(err.__cause__, QueryCancelled)
        assert trace.find("query.cancelled")


class TestTierBreaker:
    SQL = "SELECT x FROM t WHERE x < 90"
    ROUTE_ROWS = sum(1 for i in range(1, ROWS + 1) if i % 97 < 90)

    @pytest.fixture(autouse=True)
    def hot_fast(self, tier_clock):
        """Functions get hot fast: one call pays for TurboFan."""
        tier_clock.promote_after(liftoff=1, turbofan=1)

    @pytest.fixture()
    def clock(self, monkeypatch):
        """The breakers' clock, standing still until a test moves it."""
        now = [0.0]
        monkeypatch.setattr(resilience, "_clock", lambda: now[0])
        return now

    @staticmethod
    def _service(*sites):
        svc = make_service()
        svc.db.engine("wasm").fault_injector = FaultInjector.always(
            "turbofan.compile", *sites)
        return svc

    def _open(self, svc, sql=None):
        """Fresh compile episodes, each bailing once, until the
        fingerprint's breaker opens."""
        for _ in range(BREAKER_THRESHOLD):
            trace = QueryTrace()
            svc.execute(sql or self.SQL, trace=trace)
            assert any(kind == "breaker.bailouts"
                       for kind, _ in breaker_events(trace))
            svc.cache.clear()  # force the next compile episode

    def _probe_closes(self, svc, clock):
        """After a cool-down the half-open probe compiles the full
        ladder again; with the faults gone its clean run closes the
        breaker."""
        clock[0] += BREAKER_COOLDOWN_SECONDS + 1
        svc.db.engine("wasm").fault_injector = None
        trace = QueryTrace()
        result = svc.execute(self.SQL, trace=trace)
        assert result.engine == "wasm[adaptive_stencil]"
        assert ("breaker.clean", {"state": "closed"}) \
            in breaker_events(trace)
        assert breaker_states(svc) == {self._fp(svc): "closed"}

    @staticmethod
    def _fp(svc) -> str:
        (fingerprint,) = svc.breakers
        return fingerprint

    def test_repeated_bailouts_open_then_degrade_then_recover(self, clock):
        svc = self._service()
        self._open(svc)
        assert breaker_states(svc) == {self._fp(svc): "open"}

        # while open the breaker edits the route: its head is the
        # Liftoff-only variant, no tier-up is attempted, the query
        # still answers correctly
        trace = QueryTrace()
        result = svc.execute(self.SQL, trace=trace)
        assert ("breaker.degraded",
                {"engine": "wasm[adaptive_stencil]", "state": "open"}) \
            in breaker_events(trace)
        assert result.engine == "wasm[liftoff]"
        assert len(result) == self.ROUTE_ROWS
        assert not any(e.kind == "tier_up.failure" for e in trace.events)
        svc.cache.clear()
        self._probe_closes(svc, clock)

    def test_failed_probe_reopens(self, clock):
        svc = self._service()
        self._open(svc)
        clock[0] += BREAKER_COOLDOWN_SECONDS + 1  # half-open; still faulty
        svc.execute(self.SQL)
        assert breaker_states(svc) == {self._fp(svc): "open"}

    def test_probe_whose_compile_fails_reopens(self, clock):
        # the probe's compile dies (no tier-0, no baseline): the probe
        # never runs, and must not stay in flight
        svc = self._service()
        self._open(svc)
        clock[0] += BREAKER_COOLDOWN_SECONDS + 1
        svc.db.engine("wasm").fault_injector = FaultInjector.always(
            "stencil.assemble", "liftoff.compile")
        trace = QueryTrace()
        with pytest.raises(CompilationError):
            svc.execute(self.SQL, trace=trace)
        assert ("breaker.abandoned", {"state": "open"}) \
            in breaker_events(trace)
        assert breaker_states(svc) == {self._fp(svc): "open"}
        # a full cool-down later the next probe closes the breaker
        self._probe_closes(svc, clock)

    def test_cancelled_probe_then_insert_reopens(self, clock):
        svc = self._service()
        self._open(svc)
        clock[0] += BREAKER_COOLDOWN_SECONDS + 1
        original_gate = svc.scheduler.gate

        def gate(ticket):
            # the probe's first run is cancelled at its first morsel
            for active in svc.active_queries():
                active.token.cancel("test")
            original_gate(ticket)

        svc.scheduler.gate = gate
        with pytest.raises(QueryCancelled):
            svc.execute(self.SQL)
        svc.scheduler.gate = original_gate
        svc.execute("INSERT INTO t VALUES (0, 0)")  # drops the entry
        assert breaker_states(svc) == {self._fp(svc): "open"}
        self._probe_closes(svc, clock)

    def test_per_fingerprint_isolation(self, clock):
        svc = self._service()
        self._open(svc, "SELECT x FROM t WHERE x < 5")
        svc.db.engine("wasm").fault_injector = None
        result = svc.execute(self.SQL)
        assert result.engine == "wasm[adaptive_stencil]"
        assert sorted(breaker_states(svc).values()) == ["closed", "open"]

    def test_breaker_transitions_are_counted(self, clock):
        before = get_registry().counter(
            "breaker_transitions_total").value(state="open")
        self._open(self._service())
        after = get_registry().counter(
            "breaker_transitions_total").value(state="open")
        assert after == before + 1
