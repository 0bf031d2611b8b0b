"""The concurrent query service: a thread-safe facade over a Database.

:class:`QueryService` is what a multi-client deployment talks to.  It
adds, on top of :class:`~repro.db.Database`:

* **sessions** with ``PREPARE name AS <select>`` / ``EXECUTE
  name(args)`` / ``DEALLOCATE`` (see :mod:`repro.server.session`),
* a shared **compiled-plan cache** keyed by token-normalized SQL,
  engine spec, and catalog version (:mod:`repro.server.plancache`) —
  a warm ``EXECUTE`` skips parse, plan, code generation *and* tier
  compilation,
* a **fair morsel scheduler** (:mod:`repro.server.scheduler`) that
  admits a bounded number of concurrent queries, sheds load it cannot
  serve in time, and round-robins the rest at morsel boundaries, and
* **service-level resilience** (:mod:`repro.robustness.resilience`):
  every query carries one :class:`Deadline` from admission to its last
  morsel (session ``statement_timeout``, per-query timeouts, and queue
  wait all debit the same budget, which seeds the governor), a
  :class:`CancelToken` checked at the same morsel gate (``CANCEL
  <query_id>`` aborts a running query from another session), an
  optional deterministic :class:`RetryPolicy` for retryable failures,
  and per-fingerprint **tier circuit breakers** that stop repeatedly
  bailing fingerprints from re-attempting TurboFan until a cool-down
  half-opens.

Concurrency model
-----------------
Queries (SELECT/EXECUTE) hold a shared *read* lock for their whole
lifetime; DDL and INSERT take the *write* lock, so data never changes
under a running query's mapped buffers.  After any write the catalog
version is bumped and stale cache entries are purged.  Engine objects
hold knobs only and are shared by all threads: what belongs to one
execution travels in its :class:`~repro.engines.wasm_engine.QueryRun`.
The single-occupancy :class:`WasmExecutable` of a cache entry is
serialized by the entry's lock.  Queries run through
``Database.run_plan`` and writes through ``Database.apply_write``; this
module adds admission, the locks, the cache, breakers and feedback.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import count

from repro.db.database import Database
from repro.engines.wasm_engine import QueryRun
from repro.feedback import (
    FeedbackConfig,
    FeedbackStore,
    observation_from_run,
)
from repro.errors import (
    AnalysisError,
    ConfigError,
    QueryCancelled,
    ServiceError,
    SessionError,
)
from repro.observability.metrics import get_registry
from repro.observability.trace import QueryTrace, trace_event, trace_span
from repro.plan.physical import collect_params
from repro.robustness.fallback import parse_engine_spec
from repro.robustness.resilience import (
    CancelToken,
    Deadline,
    RetryPolicy,
    TierBreakerBoard,
)
from repro.server.plancache import CacheEntry, PlanCache, fingerprint_tokens
from repro.server.scheduler import MorselScheduler
from repro.server.session import PreparedStatement, Session
from repro.sql import ast
from repro.sql.analyzer import analyze
from repro.sql.lexer import tokenize
from repro.sql.parser import parse
from repro.wasm.runtime.engine import pinned_mode

__all__ = ["QueryService"]


class _ReadWriteLock:
    """Writer-priority readers/writer lock.

    Queries are readers (many at once); DDL/INSERT are writers
    (exclusive).  A waiting writer blocks new readers, so a stream of
    queries cannot starve schema changes.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextmanager
    def read(self):
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


@dataclass
class _ActiveQuery:
    """One in-flight query in the service's registry (``SHOW QUERIES``)."""

    id: int
    session_id: int | None
    sql: str
    token: CancelToken
    deadline: Deadline
    started_at: float = field(default_factory=time.perf_counter)

    @property
    def elapsed_seconds(self) -> float:
        return time.perf_counter() - self.started_at


class QueryService:
    """Thread-safe sessions + plan cache + fair scheduling over a DB.

    Args:
        database: the :class:`Database` to serve; a fresh empty one is
            created when omitted.
        default_engine: engine spec for statements that don't name one;
            defaults to the database's own default.
        cache_capacity: plan-cache entries kept (LRU beyond that).
        max_concurrent / max_queue_depth / per_session_limit: admission
            control knobs, see :class:`MorselScheduler`.
        statement_timeout: service-wide default wall-clock budget per
            query, in seconds (sessions and per-query timeouts tighten
            it); ``None`` for unlimited.
        retry_policy: a :class:`RetryPolicy` for service-level retries
            of retryable failures and shed admissions; ``None`` (the
            default) fails fast exactly as before.
        breaker_threshold / breaker_cooldown: per-fingerprint tier
            circuit breakers — after ``breaker_threshold`` TurboFan
            bailouts a fingerprint compiles pinned to Liftoff for
            ``breaker_cooldown`` seconds, then half-opens with one
            probe.  ``breaker_threshold=None`` disables breakers.
        breaker_clock: injectable clock for the breakers (tests).
        fault_injector: a :class:`~repro.robustness.FaultInjector`
            checked at the service's own sites (``admission``,
            ``cache.lookup``; the TCP front end adds ``socket.write``;
            with workers, the pool adds ``worker.dispatch`` /
            ``worker.result``).
        feedback: the feedback-driven adaptivity loop
            (:mod:`repro.feedback`) — every in-process Wasm execution
            is recorded; misestimated plans (Q-Error past the
            threshold) are re-planned once with measured
            cardinalities.  ``True`` (default) uses
            :class:`~repro.feedback.FeedbackConfig` defaults; pass a
            config to tune the threshold or ``False`` to disable.
        workers: worker processes for multi-core execution of Wasm
            queries (``QueryService(workers=4)``); ``0`` keeps
            everything in-process.  Eligible SELECTs are partitioned
            across the pool (dispatch goes through the scheduler's
            turnstile, so parallel queries stay inside the fair
            rotation); a dead or degraded pool silently falls back to
            the in-process path.  Call :meth:`close` to reap the pool.
    """

    def __init__(self, database: Database | None = None,
                 default_engine: str | None = None,
                 cache_capacity: int = 32, max_concurrent: int = 4,
                 max_queue_depth: int = 16,
                 per_session_limit: int | None = None,
                 statement_timeout: float | None = None,
                 retry_policy: RetryPolicy | None = None,
                 breaker_threshold: int | None = 2,
                 breaker_cooldown: float = 30.0,
                 breaker_clock=None,
                 fault_injector=None,
                 workers: int = 0,
                 feedback: bool | FeedbackConfig = True):
        if statement_timeout is not None and statement_timeout <= 0:
            raise ConfigError("statement_timeout must be positive")
        self.db = database if database is not None else Database()
        if workers:
            self.db.enable_parallel(workers, fault_injector=fault_injector)
        self.default_engine = default_engine or self.db.default_engine
        self.cache = PlanCache(cache_capacity)
        self.scheduler = MorselScheduler(
            max_concurrent=max_concurrent,
            max_queue_depth=max_queue_depth,
            per_session_limit=per_session_limit,
        )
        self.statement_timeout = statement_timeout
        self.retry_policy = retry_policy
        self.breakers = (
            TierBreakerBoard(breaker_threshold, breaker_cooldown,
                             clock=breaker_clock)
            if breaker_threshold is not None else None
        )
        self.fault_injector = fault_injector
        if feedback is True:
            self.feedback = FeedbackStore()
        elif isinstance(feedback, FeedbackConfig):
            self.feedback = FeedbackStore(feedback)
        elif isinstance(feedback, FeedbackStore):
            self.feedback = feedback
        else:
            self.feedback = None
        self._state_lock = _ReadWriteLock()
        self._sessions: dict[int, Session] = {}
        self._sessions_lock = threading.Lock()
        self._active: dict[int, _ActiveQuery] = {}
        self._active_lock = threading.Lock()
        self._query_ids = count(1)
        registry = get_registry()
        self._queries = registry.counter(
            "service_queries_total", "Statements the query service ran, by kind"
        )
        self._cancelled = registry.counter(
            "queries_cancelled_total",
            "Queries aborted by cooperative cancellation",
        )

    def close(self) -> None:
        """Release service resources: the worker pool and its shared
        segments (idempotent; the service object stays usable for
        in-process execution)."""
        self.db.close()

    # -- sessions ----------------------------------------------------------

    def create_session(self) -> Session:
        session = Session()
        with self._sessions_lock:
            self._sessions[session.id] = session
        return session

    def close_session(self, session: Session) -> None:
        """Close ``session``, cancelling any query it still has running.

        The TCP front end calls this on disconnect, so a client that
        vanishes mid-query does not keep burning morsels.
        """
        for active in self.active_queries():
            if active.session_id == session.id:
                active.token.cancel(f"session {session.id} closed")
        session.close()
        with self._sessions_lock:
            self._sessions.pop(session.id, None)

    # -- the in-flight registry (SHOW QUERIES / CANCEL) --------------------

    def active_queries(self) -> list[_ActiveQuery]:
        """Snapshot of the queries currently registered (queued or
        running), ordered by query id."""
        with self._active_lock:
            return [self._active[qid] for qid in sorted(self._active)]

    def cancel_query(self, query_id: int,
                     reason: str = "cancelled by request") -> bool:
        """Flip ``query_id``'s cancel token; True if a query was hit.

        The target aborts cooperatively at its next morsel boundary —
        including while parked in the scheduler's turnstile or the
        admission queue — with a structured :class:`QueryCancelled`.
        """
        with self._active_lock:
            active = self._active.get(query_id)
        if active is None:
            return False
        return active.token.cancel(reason)

    @contextmanager
    def _registered(self, sql: str, session: Session | None,
                    timeout_seconds: float | None, qtrace):
        """Register one query run: one deadline + one cancel token.

        The deadline starts *here*, before admission, so queue wait
        debits the same budget the governor later enforces.  Yields the
        registered :class:`_ActiveQuery` (id, token, deadline); counts a
        delivered cancellation on the way out.
        """
        timeout = self.statement_timeout
        if session is not None and session.statement_timeout is not None:
            timeout = (session.statement_timeout if timeout is None
                       else min(timeout, session.statement_timeout))
        deadline = Deadline(timeout) if timeout is not None \
            else Deadline.never()
        if timeout_seconds is not None:
            deadline = deadline.tighten(timeout_seconds)
        query_id = next(self._query_ids)
        token = CancelToken(query_id)
        active = _ActiveQuery(
            id=query_id, session_id=session.id if session else None,
            sql=sql.strip(), token=token, deadline=deadline,
        )
        with self._active_lock:
            self._active[query_id] = active
        trace_event(qtrace, "query.registered", query_id=query_id,
                    timeout=deadline.timeout_seconds)
        try:
            yield active
        except QueryCancelled:
            self._cancelled.inc()
            trace_event(qtrace, "query.cancelled", query_id=query_id,
                        reason=token.reason)
            raise
        finally:
            with self._active_lock:
                self._active.pop(query_id, None)

    # -- the entry point ---------------------------------------------------

    def execute(self, sql: str, session: Session | None = None,
                engine: str | None = None, trace=None,
                timeout_seconds: float | None = None):
        """Parse and run one statement on behalf of ``session``.

        SELECT/EXECUTE return an :class:`~repro.engines.base.
        ExecutionResult` carrying ``result.plan_cache`` (``"hit"`` or
        ``"miss"``) and ``result.query_id``; PREPARE/DEALLOCATE/DDL/
        INSERT/SET/CANCEL return ``None``.  ``timeout_seconds`` is this
        statement's wall-clock budget — admission wait included — and
        tightens (never extends) the session's ``statement_timeout``.
        """
        qtrace = Database._normalize_trace(trace)
        spec = engine or self.default_engine
        with trace_span(qtrace, "parse"):
            stmt = parse(sql)

        if isinstance(stmt, Database.WRITE_STATEMENTS):
            self._queries.inc(kind="write")
            with self._state_lock.write():
                with trace_span(qtrace, "analyze"):
                    analyze(stmt, self.db.catalog)
                self.db.apply_write(stmt)
                self.cache.invalidate(self.db.catalog.version)
                if self.feedback is not None:
                    # superseded versions can never be looked up again
                    self.feedback.prune(self.db.catalog.version)
            return None
        if isinstance(stmt, ast.Prepare):
            self._queries.inc(kind="prepare")
            return self._do_prepare(stmt, sql, session, spec, qtrace)
        if isinstance(stmt, ast.Deallocate):
            self._queries.inc(kind="deallocate")
            self._require_session(session, "DEALLOCATE").deallocate(stmt.name)
            return None
        if isinstance(stmt, ast.SetOption):
            self._queries.inc(kind="set")
            return self._do_set(stmt, session)
        if isinstance(stmt, ast.Cancel):
            self._queries.inc(kind="cancel")
            requester = f"session {session.id}" if session else "the service"
            if not self.cancel_query(
                    stmt.query_id, reason=f"CANCEL issued by {requester}"):
                raise ServiceError(
                    f"no running query with id {stmt.query_id}"
                )
            return None
        if isinstance(stmt, ast.ShowQueries):
            self._queries.inc(kind="show")
            return self._do_show_queries(qtrace)

        # EXECUTE, EXPLAIN and a plain SELECT each run one registered query
        self._queries.inc(kind=type(stmt).__name__.lower())
        with self._registered(sql, session, timeout_seconds,
                              qtrace) as query:
            if isinstance(stmt, ast.Execute):
                result, _, _ = self._do_execute(stmt, session, spec, qtrace,
                                                query)
            elif isinstance(stmt, ast.Explain):
                result = self._do_explain(stmt, sql, session, spec, qtrace,
                                          query)
            else:
                result, _, _ = self._run_select(
                    stmt, fingerprint_tokens(tokenize(sql)), spec, qtrace,
                    query, session=session)
            result.query_id = query.id
        return result

    @staticmethod
    def _require_session(session: Session | None, what: str) -> Session:
        if session is None:
            raise SessionError(f"{what} requires a session; call "
                               f"QueryService.create_session() first")
        return session

    # -- SET / SHOW QUERIES ------------------------------------------------

    def _do_set(self, stmt: ast.SetOption,
                session: Session | None) -> None:
        session = self._require_session(session, "SET")
        if stmt.name != "statement_timeout":
            raise SessionError(
                f"unknown session option {stmt.name!r}; "
                f"have: statement_timeout"
            )
        if stmt.value is None:
            session.statement_timeout = None
            return None
        value = Database._literal_value(stmt.value)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise AnalysisError(
                f"statement_timeout expects seconds as a number, "
                f"got {value!r}"
            )
        if value < 0:
            raise AnalysisError("statement_timeout must be >= 0")
        session.statement_timeout = float(value) if value else None
        return None

    def _do_show_queries(self, qtrace):
        lines = ["id  session  elapsed_s  statement"]
        for active in self.active_queries():
            sql = active.sql.replace("\n", " ")
            if len(sql) > 48:
                sql = sql[:45] + "..."
            lines.append(
                f"{active.id:<3} {active.session_id!s:<8} "
                f"{active.elapsed_seconds:>9.3f}  {sql}"
            )
        return Database._text_result(lines, trace=qtrace)

    # -- PREPARE / EXECUTE -------------------------------------------------

    def _do_prepare(self, stmt: ast.Prepare, sql: str,
                    session: Session | None, spec: str, qtrace) -> None:
        session = self._require_session(session, "PREPARE")
        with self._state_lock.read():
            with trace_span(qtrace, "analyze"):
                analyze(stmt, self.db.catalog)
            # fingerprint the SELECT body: everything after PREPARE name AS
            tokens = tokenize(sql)[3:]
            prepared = PreparedStatement(
                name=stmt.name,
                select=stmt.statement,
                param_types=list(stmt.param_types or []),
                fingerprint=fingerprint_tokens(tokens),
                sql=sql,
            )
            session.add_statement(prepared)
            # warm the cache now so the first EXECUTE is already a hit
            self._cached_entry(prepared.fingerprint, prepared.select,
                               spec, qtrace)
        return None

    def _do_execute(self, stmt: ast.Execute, session: Session | None,
                    spec: str, qtrace, query: _ActiveQuery):
        session = self._require_session(session, "EXECUTE")
        prepared = session.statement(stmt.name)
        values = self._argument_values(stmt, prepared)
        prepared.executions += 1
        return self._run_select(
            prepared.select, prepared.fingerprint, spec, qtrace, query,
            param_values=values, session=session,
        )

    @staticmethod
    def _argument_values(stmt: ast.Execute,
                         prepared: PreparedStatement) -> list | None:
        """EXECUTE arguments coerced to the prepared types (storage repr)."""
        types = prepared.param_types
        if len(stmt.args) != len(types):
            raise SessionError(
                f"prepared statement {prepared.name!r} takes "
                f"{len(types)} argument(s), got {len(stmt.args)}"
            )
        if not types:
            return None
        values = []
        for position, (arg, ty) in enumerate(zip(stmt.args, types), start=1):
            value = Database._literal_value(arg)
            try:
                values.append(ty.to_storage(value))
            except (TypeError, ValueError) as err:
                raise AnalysisError(
                    f"argument {position} of EXECUTE {prepared.name}: "
                    f"{value!r} is not coercible to {ty} ({err})"
                ) from None
        return values

    # -- SELECT through the cache ------------------------------------------

    def _run_select(self, select: ast.Select, fp: str, spec: str, qtrace,
                    query: _ActiveQuery, param_values: list | None = None,
                    session: Session | None = None):
        """The one execution path: admission (shedding + one deadline),
        cache lookup, then ``Database.run_plan`` under the scheduler
        with cancellation checked at every morsel.  Returns ``(result,
        entry, disposition)``.  With a :class:`RetryPolicy` configured,
        shed admissions and retryable engine failures are retried under
        seeded backoff, never past the deadline."""
        session_id = session.id if session is not None else None

        def attempt():
            if self.fault_injector is not None:
                self.fault_injector.check("admission", qtrace)
            ticket = self.scheduler.admit(
                session_id, deadline=query.deadline,
                cancel_token=query.token, trace=qtrace,
            )
            try:
                with self._state_lock.read():
                    entry, disposition = self._cached_entry(
                        fp, select, spec, qtrace)
                    # the governor enforces the same deadline admission
                    # already debited; every morsel — on the pool, every
                    # task batch — passes the scheduler's fair turnstile
                    run = QueryRun(
                        deadline=query.deadline, cancel_token=query.token,
                        morsel_hook=partial(self.scheduler.gate, ticket),
                        param_values=param_values, trace=qtrace,
                    )
                    if entry.parallel_decision is not None:
                        run.dispatcher = partial(
                            self.scheduler.dispatch, ticket,
                            self.db.parallel.pool.run_tasks)
                    with entry.lock:
                        result = self.db.run_plan(
                            entry.plan, spec, run,
                            executable=entry.executable,
                            decision=entry.parallel_decision, fp=fp)
                        if run.prepared is not None:
                            # the parallel route had skipped compilation
                            entry.executable = run.prepared
                        self._note_tier_outcome(fp, entry, qtrace)
                        if self.feedback is not None:
                            self._note_feedback(fp, select, entry, run,
                                                spec, qtrace)
                    result.plan_cache = disposition
                    result.scheduler_wait_seconds = ticket.max_wait_seconds
                    return result, entry, disposition
            finally:
                self.scheduler.release(ticket)

        if self.retry_policy is None:
            return attempt()
        return self.retry_policy.run(
            attempt, deadline=query.deadline, key=f"{query.id}",
            trace=qtrace,
        )

    def _cached_entry(self, fp: str, select: ast.Select, spec: str, qtrace):
        """Look up — or compile and insert — the entry for this query.

        Caller holds the state read lock.  Returns ``(entry,
        disposition)``; on a miss the plan is built and, for Wasm engine
        specs, the query is translated/compiled/instantiated once —
        consulting the fingerprint's tier circuit breaker: while it is
        open, compilation is pinned to Liftoff (no tier-up attempts)
        instead of paying the bailout again.
        """
        if self.fault_injector is not None:
            self.fault_injector.check("cache.lookup", qtrace)
        key = (fp, spec, self.db.catalog.version)
        entry = self.cache.lookup(key)
        if entry is not None:
            trace_event(qtrace, "plancache.hit", engine=spec)
            return entry, "hit"
        trace_event(qtrace, "plancache.miss", engine=spec)
        entry = self._compile_entry(fp, select, spec, qtrace)
        return self.cache.insert(key, entry), "miss"

    def _compile_entry(self, fp: str, select: ast.Select, spec: str,
                       qtrace) -> CacheEntry:
        """Plan (and for Wasm specs compile) one fresh cache entry.

        Analyzes ``select`` first when this thread's AST never was (a
        hit skips analysis).  Consults the feedback store: once it
        asked for a re-plan, the measured cardinalities seed the
        optimizer/analysis.  Caller holds the state read lock.
        """
        if not select.analyzed:
            with trace_span(qtrace, "analyze"):
                analyze(select, self.db.catalog)
        seeds = None
        if self.feedback is not None:
            seeds = self.feedback.observed_seeds(
                fp, self.db.catalog.version
            )
            if seeds is not None:
                trace_event(qtrace, "feedback.seeded",
                            seeds=seeds.describe())
        with trace_span(qtrace, "plan"):
            plan = self.db.plan(select, trace=qtrace, observed=seeds)
        decision = None
        if self.db._parallel_eligible(spec):
            decision = self.db.parallel.decide(plan)
        dispatchable = (decision is not None and decision.mode != "local"
                        and self.db.parallel.healthy)
        engine = self.db.resolve_engine(spec)
        pin = pinned_mode(engine.tier_ladder)
        tier_degraded = (self.breakers is not None and pin is not None
                         and not self.breakers.allow_tier_up(fp))
        if tier_degraded:
            # compile on the variant that runs only the rung failed
            # compiles land on; the cache key and result.engine keep
            # the spec the client asked for
            engine = self.db.resolve_engine(
                f"{parse_engine_spec(spec)[0]}[{pin}]")
            trace_event(qtrace, "breaker.degraded", engine=spec,
                        state=self.breakers.state(fp))
        executable = None
        if not dispatchable:
            # a dispatchable plan compiles in the *workers* (keyed by
            # this entry's fingerprint); the driver-side executable is
            # built by run_plan only if the pool degrades
            executable = engine.prepare_executable(
                plan, self.db.catalog, QueryRun(trace=qtrace))
        return CacheEntry(plan=plan, executable=executable,
                          catalog_version=self.db.catalog.version,
                          analysis=getattr(plan, "analysis", None),
                          tier_degraded=tier_degraded,
                          breaker_pending=(executable is not None
                                           and not tier_degraded),
                          parallel_decision=decision,
                          parameterized=bool(collect_params(plan)))

    def _note_tier_outcome(self, fp: str, entry: CacheEntry,
                           qtrace) -> None:
        """Feed the fingerprint's breaker with this compilation episode.

        New TurboFan bailouts (at instantiation or adaptive tier-up)
        count as failures; the first clean execution of a fresh,
        non-degraded compilation counts as a success — which is what
        closes a half-open breaker after a good probe.
        """
        if self.breakers is None or entry.executable is None:
            return
        stats = entry.executable.instance.stats
        delta = stats.tier_up_failures - entry.bailouts_recorded
        if delta > 0:
            entry.bailouts_recorded = stats.tier_up_failures
            self.breakers.record(fp, delta)
            trace_event(qtrace, "breaker.bailouts", count=delta,
                        state=self.breakers.state(fp))
        elif entry.breaker_pending:
            self.breakers.record(fp, 0)
            trace_event(qtrace, "breaker.clean",
                        state=self.breakers.state(fp))
        entry.breaker_pending = False

    def _note_feedback(self, fp: str, select: ast.Select,
                       entry: CacheEntry, run: QueryRun, spec: str,
                       qtrace) -> None:
        """Record this execution's measurements in the feedback store
        (only in-process Wasm runs have any).

        When the store decides the plan is misestimated (Q-Error past the
        threshold), the entry is *rebuilt in place* under the entry
        lock it already holds: re-planned with the observed cardinality
        seeds and recompiled.  The very next lookup is still a cache
        hit — it just runs the re-optimized executable.  (Threads
        already waiting on the entry lock pick up the new executable
        when they acquire it.)
        """
        observation = observation_from_run(
            run, entry.plan, fp, entry.catalog_version,
            parameterized=entry.parameterized,
        )
        if observation is None:
            return
        decision = self.feedback.record(observation)
        trace_event(qtrace, "feedback.observed",
                    q_error=round(decision.q_error, 3),
                    pipelines=len(observation.pipelines))
        if not decision.replan:
            return
        trace_event(qtrace, "feedback.reoptimize",
                    q_error=round(decision.q_error, 3),
                    pipeline=decision.pipeline)
        fresh = self._compile_entry(fp, select, spec, qtrace)
        for rebuilt in ("plan", "executable", "analysis", "parameterized",
                        "parallel_decision", "tier_degraded",
                        "breaker_pending", "bailouts_recorded"):
            setattr(entry, rebuilt, getattr(fresh, rebuilt))

    # -- EXPLAIN -----------------------------------------------------------

    def _do_explain(self, stmt: ast.Explain, sql: str,
                    session: Session | None, spec: str, qtrace,
                    query: _ActiveQuery):
        """``EXPLAIN [ANALYZE] <select | execute>`` with the cache
        disposition annotated (``cache: hit|miss``)."""
        inner = stmt.statement
        prepared = None
        if isinstance(inner, ast.Execute):
            session = self._require_session(session, "EXPLAIN EXECUTE")
            prepared = session.statement(inner.name)
        if not stmt.analyze:
            with self._state_lock.read():
                if prepared is None:
                    with trace_span(qtrace, "analyze"):
                        analyze(inner, self.db.catalog)
                    return self.db.explain_statement(stmt, spec, qtrace)
                entry, _ = self._cached_entry(
                    prepared.fingerprint, prepared.select, spec, qtrace)
            return Database.explain_result(entry.plan, qtrace)
        run_trace = qtrace if qtrace is not None else QueryTrace()
        if prepared is not None:
            fp = prepared.fingerprint
            result, entry, disposition = self._do_execute(
                inner, session, spec, run_trace, query)
        else:
            # fingerprint the SELECT body: tokens after EXPLAIN ANALYZE
            fp = fingerprint_tokens(tokenize(sql)[2:])
            result, entry, disposition = self._run_select(
                inner, fp, spec, run_trace, query, session=session)
        feedback_lines = None
        if self.feedback is not None:
            feedback_lines = self.feedback.explain_lines(
                fp, entry.catalog_version)
        text = Database.explain_analyze_result(
            entry.plan, spec, result, cache=disposition,
            feedback_lines=feedback_lines,
        )
        text.plan_cache = disposition
        return text
