"""Service-level chaos: 8 concurrent clients, tight deadlines, faults
at the service's own sites and in the engine — zero hung sessions,
structured errors only, successful results identical to a
single-threaded oracle (engine faults degrade along the database's
fallback chain), and every resilience mechanism visible in traces and
metrics."""

import random
import threading

import pytest

from repro.errors import (
    AdmissionError,
    QueryCancelled,
    ReproError,
    ResourceExhausted,
)
from repro.observability.metrics import get_registry
from repro.db import Database
from repro.observability.trace import QueryTrace
from repro.robustness import FaultInjector
from repro.server import QueryService

pytestmark = pytest.mark.chaos

ROWS = 1200
CLIENTS = 8
QUERIES_PER_CLIENT = 8
JOIN_TIMEOUT = 120.0

POOL = [
    "SELECT x FROM t WHERE x < 10",
    "SELECT id, x FROM t WHERE x >= 90",
    "SELECT x FROM t WHERE x = 7",
    "SELECT id FROM t WHERE x < 3",
]


def populate(svc: QueryService) -> None:
    svc.execute("CREATE TABLE t (id INT PRIMARY KEY, x INT)")
    values = ", ".join(f"({i}, {i % 97})" for i in range(1, ROWS + 1))
    svc.execute(f"INSERT INTO t VALUES {values}")
    svc.db.engine("wasm").morsel_size = 64


@pytest.fixture()
def oracle_rows():
    """Single-threaded, fault-free reference results, one per query."""
    svc = QueryService()
    populate(svc)
    return {sql: svc.execute(sql).rows for sql in POOL}


class TestServiceChaos:
    def test_eight_clients_faults_deadlines_and_cancels(self, oracle_rows):
        registry = get_registry()
        base = {
            "degraded": registry.counter(
                "fallback_degraded_queries_total").total,
            "rejections": registry.counter(
                "admission_rejections_total").total,
            "cancelled": registry.counter("queries_cancelled_total").total,
        }

        svc = QueryService(
            Database(fallback="default"),
            max_concurrent=3, max_queue_depth=4,
            fault_injector=FaultInjector(
                seed=11, rates={"admission": 0.15, "cache.lookup": 0.10}),
        )
        populate(svc)
        svc.db.engine("wasm").fault_injector = FaultInjector(
            seed=13, rates={"turbofan.compile": 0.2, "trap.morsel": 0.03})

        outcomes: list[tuple] = []
        traces: list[QueryTrace] = []
        sink_lock = threading.Lock()
        stop_cancelling = threading.Event()

        def client(index: int) -> None:
            rng = random.Random(1000 + index)
            session = svc.create_session()
            for q in range(QUERIES_PER_CLIENT):
                sql = rng.choice(POOL)
                timeout = 0.05 if rng.random() < 0.25 else None
                trace = QueryTrace()
                try:
                    result = svc.execute(sql, session=session,
                                         timeout_seconds=timeout,
                                         trace=trace)
                    outcome = ("ok", sql, result.rows)
                except ReproError as err:
                    outcome = ("err", sql, err)
                with sink_lock:
                    outcomes.append(outcome)
                    traces.append(trace)
            svc.close_session(session)

        def canceller() -> None:
            rng = random.Random(99)
            while not stop_cancelling.is_set():
                for active in svc.active_queries():
                    if rng.random() < 0.05:
                        svc.cancel_query(active.id, reason="chaos canceller")
                stop_cancelling.wait(0.002)

        workers = [threading.Thread(target=client, args=(i,))
                   for i in range(CLIENTS)]
        chaos = threading.Thread(target=canceller)
        chaos.start()
        for w in workers:
            w.start()
        for w in workers:
            w.join(JOIN_TIMEOUT)
        stop_cancelling.set()
        chaos.join(10.0)

        # 1. zero hung sessions: every worker finished, nothing stayed
        #    admitted or queued, no query is still registered
        assert not any(w.is_alive() for w in workers), "a client hung"
        assert svc.scheduler.active == 0
        assert svc.scheduler.queued == 0
        assert svc.active_queries() == []
        assert len(outcomes) == CLIENTS * QUERIES_PER_CLIENT

        # 2. successful queries return exactly the single-threaded
        #    oracle's rows — same values, same order
        successes = 0
        for kind, sql, payload in outcomes:
            if kind == "ok":
                successes += 1
                assert payload == oracle_rows[sql], sql
        assert successes > 0, "chaos drowned every query"

        # 3. failures are structured taxonomy errors, never raw crashes
        allowed = (AdmissionError, QueryCancelled, ResourceExhausted,
                   ReproError)
        errors = [payload for kind, _, payload in outcomes if kind == "err"]
        for err in errors:
            assert isinstance(err, allowed)

        # 4. every mechanism that fired left its mark in metrics and in
        #    per-query traces
        event_kinds = {e.kind for t in traces for e in t.events}
        # a cancellation after a fallback surfaces as the route's
        # QueryError, chained to the QueryCancelled
        cancelled = [e for e in errors
                     if isinstance(e, QueryCancelled)
                     or isinstance(e.__cause__, QueryCancelled)]
        delta_cancelled = (registry.counter("queries_cancelled_total").total
                           - base["cancelled"])
        assert delta_cancelled == len(cancelled)
        if cancelled:
            assert "query.cancelled" in event_kinds
        degraded_delta = (registry.counter(
            "fallback_degraded_queries_total").total - base["degraded"])
        if degraded_delta:
            assert "engine.attempt_failed" in event_kinds
        shed_delta = (registry.counter("admission_rejections_total").total
                      - base["rejections"])
        if shed_delta:
            assert "admission.shed" in event_kinds
        # the injected morsel traps (3% of ~19 morsels a query, ~64
        # queries) make at least one degraded answer statistically
        # certain, and the shed admissions at least one refusal
        assert degraded_delta > 0
        assert any(isinstance(e, AdmissionError) for e in errors)

    def test_stampede_sheds_with_retry_hint_and_metrics(self):
        svc = QueryService(max_concurrent=1, max_queue_depth=0)
        populate(svc)
        registry = get_registry()
        before = registry.counter("admission_rejections_total").total
        ticket = svc.scheduler.admit()  # occupy the only slot by hand
        try:
            trace = QueryTrace()
            with pytest.raises(AdmissionError) as info:
                svc.execute("SELECT x FROM t WHERE x < 3", trace=trace)
            assert info.value.reason == "queue_full"
            assert info.value.retry_after is not None
            assert any(e.kind == "admission.shed" for e in trace.events)
            assert registry.counter(
                "admission_rejections_total").total == before + 1
        finally:
            svc.scheduler.release(ticket)
