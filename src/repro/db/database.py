"""The top-level database: catalog + SQL frontend + pluggable engines.

Example::

    from repro.db import Database

    db = Database()
    db.execute("CREATE TABLE r (id INT PRIMARY KEY, x INT, y DOUBLE)")
    db.execute("INSERT INTO r VALUES (1, 10, 0.5), (2, 20, 1.5)")
    result = db.execute("SELECT x, y FROM r WHERE x < 15", engine="wasm")
    print(result.format_table())

Engines: ``"wasm"`` (the paper's architecture — default), ``"volcano"``
(PostgreSQL-like), ``"vectorized"`` (DuckDB-like), ``"hyper"``
(adaptive-compilation HyPer-like).
"""

from __future__ import annotations

import copy
import warnings

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Column, TableSchema
from repro.costmodel import Profile
from repro.engines.base import ExecutionResult
from repro.engines.wasm_engine import QueryRun
from repro.errors import (
    AnalysisError,
    ConfigError,
    EngineError,
    LintError,
    WorkerError,
)
from repro.observability.explain import (
    pipeline_stats_from_trace,
    render_explain_analyze,
)
from repro.observability.metrics import get_registry
from repro.observability.trace import QueryTrace, trace_event, trace_span
from repro.plan.analysis import PlanLinter, analyze_plan
from repro.plan.builder import build_logical_plan
from repro.plan.exprs import bind_params
from repro.plan.logical import LogicalEmpty
from repro.plan.logical import explain as explain_logical
from repro.plan.optimizer import optimize
from repro.plan.physical import (
    collect_params,
    create_physical_plan,
    explain_physical,
    reestimate_with_observed,
)
from repro.plan.pipeline import dissect_into_pipelines
from repro.sql import ast
from repro.robustness.fallback import (
    DEFAULT_CHAIN,
    parse_engine_spec,
    run_route,
)
from repro.sql.analyzer import analyze
from repro.sql.parser import parse
from repro.storage.table import Table

__all__ = ["Database"]


class Database:
    """A single-user, main-memory database with pluggable engines.

    Args:
        default_engine: engine spec queries run on when ``execute`` is
            called without one (e.g. ``"wasm"``, ``"wasm[interpreter]"``).
            Defaults to ``"wasm[adaptive_stencil]"`` — the stencil
            ladder (stencil -> Liftoff -> TurboFan), whose tier-0 entry
            makes cold first results cheapest while hot pipelines still
            climb to optimized code.
        fallback: the fallback chain, kept as the tuple of engine specs
            :attr:`fallback`.  ``None`` (default) or ``()`` disables
            fallback — errors surface exactly as the failing engine
            raised them.  ``"default"`` (or ``True``) is
            :data:`~repro.robustness.DEFAULT_CHAIN`,
            ``wasm[adaptive_stencil] → wasm[interpreter] → volcano``; a
            list/tuple of engine specs customizes it.  A statement's
            route (:meth:`route`) is its own spec, then this chain.
        plan_lint: PlanLinter mode over every planned SELECT —
            ``"off"`` (default), ``"warn"`` (diagnostics become Python
            warnings), or ``"strict"`` (diagnostics raise
            :class:`~repro.errors.LintError`), mirroring the Wasm
            engine's ``lint`` knob one layer up.
        workers: worker *processes* for multi-core execution of Wasm
            queries (``Database(workers=4)``).  ``0`` (default) keeps
            everything in-process.  With workers, eligible plans are
            partitioned over shared-memory columns and merged by
            :class:`~repro.parallel.ParallelExecutor`; anything the
            parallel contract rejects — and any pool failure — degrades
            to the usual in-process path, never to an error.  Call
            :meth:`close` (or use the database as a context manager) to
            reap the pool.
    """

    PLAN_LINT_MODES = ("off", "warn", "strict")

    def __init__(self, default_engine: str = "wasm[adaptive_stencil]",
                 fallback=None, plan_lint: str = "off", workers: int = 0):
        from repro.engines import ENGINES

        if plan_lint not in self.PLAN_LINT_MODES:
            raise ConfigError(
                f"plan_lint must be one of {self.PLAN_LINT_MODES}; "
                f"got {plan_lint!r}"
            )
        if workers < 0:
            raise ConfigError(f"workers must be >= 0, got {workers}")
        if fallback is True or fallback == "default":
            fallback = DEFAULT_CHAIN
        if not isinstance(fallback, (list, tuple, type(None), bool)):
            raise ConfigError(f"fallback must be None, 'default' or a "
                              f"chain of engine specs; got {fallback!r}")
        #: the fallback chain, a tuple of engine specs; ``()`` is off
        self.fallback = tuple(fallback or ())
        for spec in self.fallback:
            parse_engine_spec(spec)
        self.catalog = Catalog()
        self._engines = {name: cls() for name, cls in ENGINES.items()}
        self.default_engine = default_engine
        self.plan_lint = plan_lint
        self.workers = workers
        self._parallel = None  # lazy ParallelExecutor; see .parallel
        registry = get_registry()
        self._queries_total = registry.counter(
            "queries_total", "Queries executed, by engine"
        )
        self._query_seconds = registry.histogram(
            "query_seconds", "End-to-end query time (engine phases)"
        )

    def route(self, spec: str) -> tuple[str, ...]:
        """The engine specs a statement on ``spec`` tries, in order:
        ``spec`` itself, then the fallback chain without it."""
        return (spec, *(s for s in self.fallback if s != spec))

    # -- multi-core execution ----------------------------------------------

    @property
    def parallel(self):
        """The lazy :class:`~repro.parallel.ParallelExecutor`, or
        ``None`` when ``workers=0``.  Workers spawn on first dispatch,
        not here."""
        if self.workers <= 0:
            return None
        if self._parallel is None:
            from repro.parallel import ParallelExecutor

            self._parallel = ParallelExecutor(self.workers)
        return self._parallel

    def enable_parallel(self, workers: int, fault_injector=None) -> None:
        """Turn on (or resize) multi-core execution after construction.

        The query service uses this to thread its fault injector into
        the pool's ``worker.dispatch``/``worker.result`` chaos sites.
        """
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        from repro.parallel import ParallelExecutor

        if self._parallel is not None:
            self._parallel.close()
        self.workers = workers
        self._parallel = ParallelExecutor(workers,
                                          fault_injector=fault_injector)

    def _parallel_eligible(self, spec: str) -> bool:
        """Only the Wasm engine family has the partition-clamp and
        raw-rows hooks workers drive."""
        return self.workers > 0 and parse_engine_spec(spec)[0] == "wasm"

    def _try_parallel(self, plan, spec: str, run: QueryRun, decision=None,
                      fp: str | None = None):
        """One parallel attempt; ``None`` means run in-process instead.

        The query service passes its cached contract ``decision`` and
        the statement fingerprint keying the workers' executable caches;
        bound parameters, deadline, cancel token and the dispatcher
        through the scheduler's turnstile come from ``run``.

        Pool-level failures (:class:`~repro.errors.WorkerError`) degrade
        silently — the query still runs, on the driver.  Real query
        errors from a worker propagate with their original types, just
        like an in-process run.
        """
        executor = self.parallel
        if executor is None or not executor.healthy:
            return None
        try:
            return executor.execute(
                plan, self.catalog, spec, decision=decision, fp=fp,
                params=run.param_values, deadline=run.deadline,
                cancel_token=run.cancel_token, trace=run.trace,
                dispatcher=run.dispatcher,
            )
        except WorkerError as err:
            trace_event(run.trace, "parallel.degraded",
                        error=type(err).__name__, message=str(err))
            get_registry().counter(
                "parallel_degraded_total",
                "Parallel dispatches degraded to in-process execution",
            ).inc()
            return None

    def close(self) -> None:
        """Reap the worker pool and unlink shared segments (idempotent)."""
        if self._parallel is not None:
            self._parallel.close()
            self._parallel = None

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- schema & data ------------------------------------------------------

    def register_table(self, table: Table) -> None:
        """Add a pre-built table (e.g. from the TPC-H generator)."""
        self.catalog.add(table)

    def table(self, name: str) -> Table:
        return self.catalog.get(name)

    def engine(self, name: str):
        try:
            return self._engines[name]
        except KeyError:
            raise EngineError(
                f"unknown engine {name!r}; have {sorted(self._engines)}"
            ) from None

    def resolve_engine(self, spec: str):
        """An engine spec -> a (possibly variant) engine instance.

        ``"wasm"`` returns the registered engine; ``"wasm[interpreter]"``
        returns a shallow copy of it with ``mode`` overridden (shared
        knobs — fault injector, budgets — are preserved, which is what
        the chaos suite relies on: a fallback attempt faces the same
        faults as the primary).  A mode the engine does not have is
        rejected here, before any work is done for the statement.
        """
        name, option = parse_engine_spec(spec)
        if option is None:
            return self.engine(name)
        base = self.engine(name)
        if not base.modes:
            raise ConfigError(
                f"engine {name!r} has no execution modes ({spec!r})"
            )
        if option not in base.modes:
            raise ConfigError(
                f"unknown engine mode {option!r}; have {base.modes}"
            )
        derived = copy.copy(base)  # cheap: engines hold knobs, not state
        derived.mode = option
        return derived

    # -- SQL ---------------------------------------------------------------------

    @staticmethod
    def _normalize_trace(trace):
        """``True`` -> fresh :class:`QueryTrace`; pass traces through."""
        if trace is None or trace is False:
            return None
        if trace is True:
            return QueryTrace()
        return trace  # a QueryTrace (possibly on a fake clock)

    def execute(self, sql: str, engine: str | None = None,
                profile: Profile | None = None, trace=None):
        """Parse, plan, and run one SQL statement.

        SELECT returns an :class:`~repro.engines.base.ExecutionResult`;
        DDL/DML return None.

        ``engine`` is an engine spec (``"wasm"``, ``"wasm[turbofan]"``,
        ``"volcano"``, ...); a SELECT runs on its :meth:`route`, falling
        back along the database's chain when an attempt fails.

        ``trace`` requests a structured trace of the whole query
        lifecycle: pass ``True`` for a fresh
        :class:`~repro.observability.QueryTrace` on the wall clock, or an
        existing ``QueryTrace`` (e.g. on a
        :class:`~repro.observability.FakeClock`) to record into.  The
        trace is attached to the result as ``result.trace``.
        """
        qtrace = self._normalize_trace(trace)
        with trace_span(qtrace, "parse"):
            stmt = parse(sql)
        with trace_span(qtrace, "analyze"):
            analyze(stmt, self.catalog)

        if isinstance(stmt, self.WRITE_STATEMENTS):
            return self.apply_write(stmt)
        if isinstance(stmt, (ast.Prepare, ast.Execute, ast.Deallocate)):
            raise EngineError(
                "PREPARE/EXECUTE/DEALLOCATE need a session — connect "
                "through repro.server.QueryService instead of Database"
            )
        if isinstance(stmt, (ast.Cancel, ast.ShowQueries, ast.SetOption)):
            raise EngineError(
                "CANCEL/SHOW QUERIES/SET need the query service — "
                "connect through repro.server.QueryService instead of "
                "Database"
            )

        if isinstance(stmt, ast.Explain):
            return self.explain_statement(stmt, engine, qtrace, profile)

        with trace_span(qtrace, "plan"):
            plan = self.plan(stmt, trace=qtrace)
        return run_route(
            self.route(engine or self.default_engine),
            lambda spec: self.run_plan(
                plan, spec, QueryRun(profile=profile, trace=qtrace)),
            qtrace)

    #: What :meth:`apply_write` takes: whatever changes catalog or data.
    WRITE_STATEMENTS = (ast.CreateTable, ast.CreateIndex, ast.Insert)

    def apply_write(self, stmt) -> None:
        """Apply one *analyzed* DDL/DML statement — the single write
        path of ``execute`` and of the query service (which calls it
        under its write lock with the statement it already parsed)."""
        if isinstance(stmt, ast.CreateTable):
            schema = TableSchema(stmt.name, [
                Column(col.name, col.ty, col.primary_key)
                for col in stmt.columns
            ])
            self.catalog.add(Table.empty(schema))
            return
        table = self.catalog.get(stmt.table)
        if isinstance(stmt, ast.CreateIndex):
            table.create_index(stmt.column, stmt.name)
        else:
            rows = [
                tuple(self._literal_value(v) for v in row)
                for row in stmt.rows
            ]
            if stmt.columns is not None:
                order = []
                for c in table.schema:
                    try:
                        order.append(stmt.columns.index(c.name))
                    except ValueError:
                        raise AnalysisError(
                            f"INSERT column list for table {stmt.table!r} "
                            f"is missing column {c.name!r}"
                        ) from None
                rows = [tuple(row[i] for i in order) for row in rows]
            table.append_rows(rows)
        self.catalog.bump_version()

    def run_plan(self, plan, spec: str, run: QueryRun, executable=None,
                 decision=None, fp: str | None = None) -> ExecutionResult:
        """Run one planned SELECT on ``spec``: the single execution path
        under ``execute``, ``EXPLAIN ANALYZE``, the query service and
        the parallel workers.

        ``run`` carries what this execution is given and comes back
        filled in as ``result.run``.  With a worker pool and a Wasm spec
        the pool goes first (:meth:`_try_parallel`); when it declines
        the plan runs in-process — re-running the caller's cached
        ``executable``, else from scratch on the engine — with ``run``'s
        deadline, cancel token and turnstile checked either way.  A
        caching caller (it passed its ``decision``) without an
        executable, because the workers were to compile the plan, gets
        one compiled here once the pool degrades: ``run.prepared``.  The
        result is tagged with the requested spec and counted in
        ``queries_total``.
        """
        engine = self.resolve_engine(spec)
        result = None
        if self._parallel_eligible(spec):
            result = self._try_parallel(plan, spec, run, decision, fp)
            if result is None and executable is None \
                    and decision is not None:
                executable = run.prepared = engine.prepare_executable(
                    plan, self.catalog, QueryRun(trace=run.trace))
        if result is not None:
            pass  # the pool answered
        elif executable is not None:
            result = engine.execute_prepared(executable, plan,
                                             self.catalog, run)
        else:
            if run.param_values is not None:
                bind_params(collect_params(plan), run.param_values)
            result = engine.execute(plan, self.catalog, run.profile,
                                    run.trace, run=run)
        result.engine = spec  # report the variant, e.g. wasm[interpreter]
        result.trace = run.trace
        self._queries_total.inc(engine=spec)
        self._query_seconds.observe(sum(result.timings.phases.values()))
        return result

    def explain_statement(self, stmt: ast.Explain, engine: str | None,
                          qtrace, profile: Profile | None = None):
        """An analyzed ``EXPLAIN [ANALYZE] <select>``: the plan (with
        observed stats) as rows."""
        if isinstance(stmt.statement, ast.Execute):
            raise EngineError(
                "EXPLAIN EXECUTE needs a session — connect through "
                "repro.server.QueryService instead of Database"
            )
        with trace_span(qtrace, "plan"):
            plan = self.plan(stmt.statement, trace=qtrace)
        if not stmt.analyze:
            return self.explain_result(plan, qtrace)
        # ANALYZE executes the query for real — under a trace, always,
        # on the resolved engine alone (no fallback: the annotation must
        # describe the engine the user asked about).
        spec = engine or self.default_engine
        run = QueryRun(profile=profile,
                       trace=qtrace if qtrace is not None else QueryTrace())
        trace_event(run.trace, "engine.attempt", engine=spec)
        return self.explain_analyze_result(
            plan, spec, self.run_plan(plan, spec, run))

    @classmethod
    def explain_result(cls, plan, trace=None) -> ExecutionResult:
        """Plain ``EXPLAIN``: the physical plan as a one-column result."""
        lines = ["EXPLAIN"] + explain_physical(plan).split("\n")
        return cls._text_result(lines, trace=trace)

    @classmethod
    def explain_analyze_result(cls, plan, spec: str,
                               executed: ExecutionResult,
                               cache: str | None = None,
                               feedback_lines: list[str] | None = None,
                               ) -> ExecutionResult:
        """``EXPLAIN ANALYZE`` of a finished traced run, for both front
        doors: per-pipeline stats folded from ``executed.trace``, the
        annotated plan, the per-worker task lines when the pool produced
        the rows.  The service adds ``cache`` and ``feedback_lines``."""
        stats = pipeline_stats_from_trace(
            executed.trace, dissect_into_pipelines(plan)
        )
        if executed.run is not None:
            shapes = {p.index: p.shape for p in executed.run.pipelines}
            for stat in stats:
                stat.shape = shapes.get(stat.index, "")
        lines = render_explain_analyze(
            plan, executed.trace, stats, spec,
            total_rows=len(executed.rows), cache=cache,
            feedback_lines=feedback_lines,
        )
        if executed.parallel is not None:
            from repro.parallel.executor import parallel_explain_lines

            lines += parallel_explain_lines(executed.parallel)
        result = cls._text_result(lines, trace=executed.trace)
        result.pipeline_stats = stats
        result.analyzed = executed  # the real result, for assertions
        return result

    @staticmethod
    def _text_result(lines: list[str], trace=None) -> ExecutionResult:
        from repro.sql.types import varchar

        width = max([len(line) for line in lines] + [1])
        result = ExecutionResult(
            column_names=["plan"],
            column_types=[varchar(width)],
            rows=[(line,) for line in lines],
            engine="",
        )
        result.trace = trace
        return result

    def plan(self, stmt: ast.Select, trace=None, observed=None):
        """Analyzed SELECT -> optimized physical plan.

        Runs the column-fact dataflow (:mod:`repro.plan.analysis`) over
        the optimized logical plan: a root proven empty is folded to an
        empty-relation operator (no code is ever generated or compiled
        for it), and the :class:`PlanAnalysis` rides on the physical
        root as ``plan.analysis`` for engines, EXPLAIN, and the plan
        cache.  Under ``plan_lint="warn"``/``"strict"`` the PlanLinter
        checks inter-operator invariants inside a ``plan.lint`` span and
        its findings are *enforced*: warnings, or a
        :class:`~repro.errors.LintError`.

        ``observed`` (an :class:`~repro.plan.cardinality.
        ObservedCardinalities` from the feedback store) re-plans with
        measured cardinalities: join ordering is costed with truth, the
        analysis row bounds tighten, and the physical estimates — which
        size breaker heaps — follow the measurements.
        """
        return self._plan(stmt, trace, observed, enforce_lint=True)[1]

    def _plan(self, stmt: ast.Select, trace, observed, enforce_lint: bool):
        """Build, optimize, analyze, lint, fold, lower: the six steps
        under :meth:`plan` and :meth:`explain`.  Returns the logical
        plan as lowered and the physical plan.

        The one place lint policy is decided: ``plan`` *enforces* (a
        strict database raises, a warning one warns); ``explain`` only
        records the diagnostics on the analysis, whose rendering shows
        them — it must not refuse to show the plan it complains about."""
        logical = build_logical_plan(stmt, self.catalog)
        dropped: list[str] = []
        optimized = optimize(logical, self.catalog, report=dropped,
                             observed=observed)
        with trace_span(trace, "plan.analysis"):
            analysis = analyze_plan(optimized, self.catalog,
                                    observed=observed)
            analysis.dropped_conjuncts = dropped
        if self.plan_lint != "off":
            with trace_span(trace, "plan.lint"):
                diagnostics = PlanLinter(optimized).lint()
                analysis.lint = list(diagnostics)
                if enforce_lint:
                    if diagnostics and self.plan_lint == "strict":
                        raise LintError(diagnostics)
                    for diag in diagnostics:
                        warnings.warn(f"plan lint: {diag.render()}")
        if analysis.proven_empty:
            optimized = LogicalEmpty(optimized.output_columns,
                                     analysis.empty_reason)
        physical = create_physical_plan(optimized, self.catalog)
        if observed:
            reestimate_with_observed(physical, observed)
        physical.analysis = analysis
        return optimized, physical

    def explain(self, sql: str) -> str:
        """Logical plan, physical plan, analysis facts, and pipelines.

        Plans exactly as :meth:`plan` does, except that plan-lint
        diagnostics are *shown* (``lint:`` lines of the analysis
        section) under ``"warn"`` and ``"strict"`` alike, never raised."""
        stmt = parse(sql)
        analyze(stmt, self.catalog)
        logical, physical = self._plan(stmt, None, None, enforce_lint=False)
        parts = [
            "== logical ==",
            explain_logical(logical),
            "== physical ==",
            explain_physical(physical),
            "== analysis ==",
            *(physical.analysis.describe() or ["(no derived facts)"]),
            "== pipelines ==",
            *(p.describe() for p in dissect_into_pipelines(physical)),
        ]
        return "\n".join(parts)

    @staticmethod
    def _literal_value(expr: ast.Expr):
        if isinstance(expr, ast.Unary) and expr.op == "-":
            return -Database._literal_value(expr.operand)
        if isinstance(expr, ast.Literal):
            return expr.value
        raise EngineError("INSERT values must be literals")
