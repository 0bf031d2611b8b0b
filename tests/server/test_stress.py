"""Seeded multi-client stress: concurrent results must equal the oracle.

Eight client threads run a seeded random mix of prepared EXECUTEs and
ad-hoc SELECTs against one shared :class:`QueryService`.  Every result
must be byte-identical to the single-threaded oracle computed up
front, every query's scheduler wait must stay bounded, and the plan
cache must have served the bulk of the load.

Marked ``stress`` so CI can run the class on its own
(``pytest -m stress``); the suite is seeded and fast enough for tier-1
as well.
"""

import random
import threading

import pytest

from repro.server import QueryService

CLIENTS = 8
QUERIES_PER_CLIENT = 12
SEED = 0xC0FFEE

#: (name, PREPARE body, argument choices)
PREPARED = [
    ("by_x", "SELECT id, x FROM t WHERE x < $1 ORDER BY id",
     [15, 35, 60, 90]),
    ("by_grp", "SELECT grp, COUNT(*), SUM(x) FROM t WHERE x < $1 GROUP BY grp",
     [25, 50, 100]),
    ("by_s", "SELECT id FROM t WHERE s = $1",
     ["'k00'", "'k07'", "'k13'"]),
]

ADHOC = [
    "SELECT COUNT(*) FROM t",
    "SELECT grp, MIN(x), MAX(x) FROM t GROUP BY grp",
    "SELECT id, x FROM t ORDER BY x DESC, id LIMIT 5",
]


def build_service() -> QueryService:
    service = QueryService(max_concurrent=4, max_queue_depth=64)
    service.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, grp INT, x INT, s CHAR(4))"
    )
    rng = random.Random(SEED)
    rows = ", ".join(
        f"({i}, {i % 5}, {rng.randrange(100)}, 'k{i % 17:02d}')"
        for i in range(120)
    )
    service.execute(f"INSERT INTO t VALUES {rows}")
    return service


def canonical(result) -> list:
    """Stable bytes-comparable form of a result set."""
    return [tuple(map(repr, row)) for row in result.rows]


@pytest.mark.stress
class TestConcurrentStress:
    def test_eight_clients_match_single_threaded_oracle(self):
        service = build_service()

        # single-threaded oracle for every (statement, argument) pair
        oracle_session = service.create_session()
        oracle = {}
        for name, body, args in PREPARED:
            service.execute(f"PREPARE {name} AS {body}",
                            session=oracle_session)
            for arg in args:
                key = (name, arg)
                result = service.execute(f"EXECUTE {name}({arg})",
                                         session=oracle_session)
                oracle[key] = sorted(canonical(result))
        for sql in ADHOC:
            oracle[sql] = sorted(canonical(service.execute(sql)))

        errors = []
        max_waits = []
        lock = threading.Lock()

        def client(index: int) -> None:
            rng = random.Random(SEED + index)
            session = service.create_session()
            try:
                for name, body, _ in PREPARED:
                    service.execute(f"PREPARE {name} AS {body}",
                                    session=session)
                for _ in range(QUERIES_PER_CLIENT):
                    if rng.random() < 0.7:
                        name, _, args = PREPARED[rng.randrange(len(PREPARED))]
                        arg = args[rng.randrange(len(args))]
                        key = (name, arg)
                        result = service.execute(
                            f"EXECUTE {name}({arg})", session=session
                        )
                    else:
                        key = ADHOC[rng.randrange(len(ADHOC))]
                        result = service.execute(key, session=session)
                    got = sorted(canonical(result))
                    with lock:
                        max_waits.append(result.scheduler_wait_seconds)
                        if got != oracle[key]:
                            errors.append((index, key, got[:3]))
            except Exception as err:  # noqa: BLE001 - collected for assert
                with lock:
                    errors.append((index, repr(err)))
            finally:
                service.close_session(session)

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=90)
        assert not any(t.is_alive() for t in threads), "stress run hung"

        assert not errors, errors[:5]
        # every query observed a bounded scheduler wait
        assert max_waits and max(max_waits) < 30.0
        # the cache carried the load: far more hits than misses
        stats = service.cache.stats
        assert stats["hits"] > stats["misses"]

    def test_admission_pressure_is_survivable(self):
        """Clients hammering a 1-slot scheduler either run or get a
        clean AdmissionError — never a wedge or a wrong result."""
        from repro.errors import AdmissionError

        service = build_service()
        service.scheduler.max_concurrent = 1
        service.scheduler.max_queue_depth = 2
        oracle = sorted(canonical(service.execute(ADHOC[0])))
        outcomes = []
        lock = threading.Lock()

        def client():
            try:
                result = service.execute(ADHOC[0])
                with lock:
                    outcomes.append(sorted(canonical(result)) == oracle)
            except AdmissionError:
                with lock:
                    outcomes.append("refused")

        threads = [threading.Thread(target=client) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(outcomes) == 8
        completed = [o for o in outcomes if o != "refused"]
        assert all(o is True for o in completed)
        assert any(o is True for o in outcomes)  # someone got through


@pytest.mark.stress
class TestNoSharedPerRunState:
    """Two threads on the one registered, never-copied ``wasm`` engine.

    Everything a run is given and everything it measures travels in its
    own ``QueryRun``, so concurrent runs of *different* statements must
    each report exactly their single-threaded per-pipeline record, feed
    the feedback store under their own fingerprint, and a ``CANCEL``
    aimed at one must never abort the other.
    """

    ITERATIONS = 30
    #: name -> (PREPARE body, EXECUTE argument); different pipeline counts
    STATEMENTS = {
        "scan": ("SELECT id FROM t WHERE x < $1", 40),
        "groups": ("SELECT grp, COUNT(*), SUM(x) FROM t WHERE x >= $1 "
                   "GROUP BY grp", 25),
    }

    @staticmethod
    def measured(result) -> list:
        return [(p["function"], p["rows_in"], p["rows_out"])
                for p in result.run.pipeline_stats]

    def test_runs_keep_their_own_records(self):
        import sys

        from repro.errors import QueryCancelled, ServiceError

        service = QueryService(default_engine="wasm", max_concurrent=4)
        service.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT, x INT)")
        rng = random.Random(SEED)
        service.execute("INSERT INTO t VALUES " + ", ".join(
            f"({i}, {i % 5}, {rng.randrange(100)})" for i in range(2000)))
        engine = service.db.engine("wasm")
        assert service.db.resolve_engine("wasm") is engine  # no variant copy
        engine.morsel_size = 64  # many morsel boundaries to interleave at

        sessions = {name: service.create_session()
                    for name in self.STATEMENTS}
        operator = service.create_session()
        expected, fingerprints = {}, {}
        for name, (body, arg) in self.STATEMENTS.items():
            service.execute(f"PREPARE {name} AS {body}",
                            session=sessions[name])
            fingerprints[name] = sessions[name].statement(name).fingerprint
            for _ in range(3):  # past any feedback re-plan
                result = service.execute(f"EXECUTE {name}({arg})",
                                         session=sessions[name])
            expected[name] = (sorted(canonical(result)),
                              self.measured(result))
        assert len(expected["scan"][1]) != len(expected["groups"][1])

        observations = []
        record = service.feedback.record
        service.feedback.record = lambda observation: (
            observations.append(observation), record(observation))[1]

        # the "groups" thread, at its own morsel boundaries, CANCELs
        # every third query the "scan" session has in flight
        victim = sessions["scan"].id
        gate = service.scheduler.gate

        def cancelling_gate(ticket):
            if ticket.session_id != victim:
                for active in service.active_queries():
                    if active.session_id == victim and active.id % 3 == 0:
                        try:
                            service.execute(f"CANCEL {active.id}",
                                            session=operator)
                        except ServiceError:
                            pass  # finished in the meantime
            gate(ticket)

        service.scheduler.gate = cancelling_gate
        errors, cancelled = [], []

        def client(name: str) -> None:
            _, arg = self.STATEMENTS[name]
            for _ in range(self.ITERATIONS):
                try:
                    result = service.execute(f"EXECUTE {name}({arg})",
                                             session=sessions[name])
                except QueryCancelled as err:
                    cancelled.append((name, err.query_id))
                    continue
                except Exception as err:  # noqa: BLE001 - for the assert
                    errors.append((name, repr(err)))
                    continue
                got = (sorted(canonical(result)), self.measured(result))
                if got != expected[name]:
                    errors.append((name, got[1]))

        threads = [threading.Thread(target=client, args=(name,))
                   for name in self.STATEMENTS]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=90)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "stress run hung"

        assert not errors, errors[:5]
        # only the targeted session's queries were ever cancelled
        assert cancelled and {name for name, _ in cancelled} == {"scan"}
        assert all(query_id % 3 == 0 for _, query_id in cancelled)
        # every completed run was recorded under its own fingerprint
        # with its own pipelines' measurements
        by_fp = {fingerprints[name]: [rows_out for _, _, rows_out
                                      in expected[name][1]]
                 for name in self.STATEMENTS}
        assert len(observations) == 2 * self.ITERATIONS - len(cancelled)
        for observation in observations:
            assert [p.rows_out for p in observation.pipelines] \
                == by_fp[observation.fingerprint]
