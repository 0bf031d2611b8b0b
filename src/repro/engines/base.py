"""Engine interface, result sets, and phase timings."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.costmodel import Profile, cost_report
from repro.plan.physical import PhysicalOperator
from repro.robustness.governor import ResourceGovernor
from repro.sql.types import DataType

__all__ = ["Timings", "ExecutionResult", "QueryEngine", "Stopwatch"]


@dataclass
class Timings:
    """Per-phase wall-clock times of one query, in seconds.

    Phase names follow the paper's Figure 10: translation of the QEP to
    the engine's format, per-tier compilation, and execution.  Engines
    fill only the phases they have.
    """

    phases: dict[str, float] = field(default_factory=dict)

    def add(self, phase: str, seconds: float) -> None:
        self.phases[phase] = self.phases.get(phase, 0.0) + seconds

    def get(self, phase: str) -> float:
        return self.phases.get(phase, 0.0)

    @property
    def total_compilation(self) -> float:
        return sum(
            v for k, v in self.phases.items() if k != "execution"
        )

    @property
    def execution(self) -> float:
        return self.get("execution")

    def __str__(self) -> str:  # pragma: no cover - formatting
        return ", ".join(
            f"{k}={v * 1000:.2f}ms" for k, v in self.phases.items()
        )


class Stopwatch:
    """Context manager recording one phase into a :class:`Timings`."""

    def __init__(self, timings: Timings, phase: str):
        self.timings = timings
        self.phase = phase

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.timings.add(self.phase, time.perf_counter() - self._start)


@dataclass
class ExecutionResult:
    """Rows plus metadata from one query execution.

    ``rows`` hold Python-level values (dates as :class:`datetime.date`,
    decimals as floats, strings as ``str``).
    """

    column_names: list[str]
    column_types: list[DataType]
    rows: list[tuple]
    engine: str = ""
    timings: Timings = field(default_factory=Timings)
    profile: Profile | None = None
    #: Engines that failed before this result was produced, as
    #: ``(engine_spec, error_description)`` pairs — degradation through
    #: the fallback chain is observable, never silent.
    fallback_attempts: list[tuple[str, str]] = field(default_factory=list)
    #: The :class:`~repro.observability.QueryTrace` recorded for this
    #: query, when tracing was requested; ``None`` otherwise.
    trace: object | None = None
    #: The :class:`~repro.engines.wasm_engine.QueryRun` that produced
    #: this result (per-pipeline measurements, tier stats, shapes);
    #: ``None`` from engines that keep no such record.
    run: object | None = None
    #: The pool's dispatch report (mode, partitions, per-task morsels)
    #: when worker processes produced the rows; ``None`` in-process.
    parallel: dict | None = None

    @property
    def degraded(self) -> bool:
        """True when the result came from a fallback engine."""
        return bool(self.fallback_attempts)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def to_dicts(self) -> list[dict]:
        return [dict(zip(self.column_names, row)) for row in self.rows]

    def column(self, name: str) -> list:
        index = self.column_names.index(name)
        return [row[index] for row in self.rows]

    @property
    def modeled(self):
        """The cost-model report, if the run was instrumented."""
        if self.profile is None:
            return None
        return cost_report(self.profile)

    def format_table(self, max_rows: int = 20) -> str:
        """A small aligned text table (for examples and debugging)."""
        header = self.column_names
        shown = [
            tuple(str(v) for v in row) for row in self.rows[:max_rows]
        ]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in shown)) if shown
            else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(header, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        for row in shown:
            lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
        if len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows)} rows total)")
        return "\n".join(lines)


class QueryEngine:
    """Interface all engines implement.

    ``trace`` is an optional
    :class:`~repro.observability.QueryTrace`; engines that support
    structured tracing record their phase/pipeline/morsel spans into it,
    others at minimum wrap execution in an ``execution`` span.
    """

    name = "abstract"

    #: The execution modes an engine spec ``name[mode]`` may select.
    modes: tuple[str, ...] = ()
    #: The code tiers this engine's functions climb, lowest first; empty
    #: for engines without a ladder (nothing to guard with a breaker).
    tier_ladder: tuple[str, ...] = ()
    #: A :class:`~repro.robustness.FaultInjector` (the Wasm engine's
    #: knob), checked at the ``trap.morsel`` site of :meth:`run_gate`.
    fault_injector = None

    def execute(self, plan: PhysicalOperator, catalog: Catalog,
                profile: Profile | None = None,
                trace=None, run=None) -> ExecutionResult:
        """Run ``plan``.  ``run``, a
        :class:`~repro.engines.wasm_engine.QueryRun` with this
        ``profile`` and ``trace``, arms what the caller wants checked
        while the plan runs: its cancel token, its deadline and the
        scheduler's turnstile (:meth:`run_gate`)."""
        raise NotImplementedError

    def run_gate(self, run):
        """The per-morsel prologue of ``run``, composed once from what
        is armed — cancellation, the governor's clock (one is made from
        ``run.deadline`` when the run has none), the engine's
        ``trap.morsel`` fault site, the scheduler's turnstile, in that
        order — as ``gate(pipeline_index=None, morsel=None)``.  Wasm and
        hyper call it before each morsel, volcano every few scanned
        rows, vectorized before each operator.  ``None`` when nothing
        is armed, so an unarmed run pays for no check at all."""
        if run is None:
            return None
        if run.governor is None and run.deadline is not None:
            run.governor = ResourceGovernor(deadline=run.deadline).start()
            run.governor.phase, run.governor.trace = "execution", run.trace
        token, governor = run.cancel_token, run.governor
        injector, hook = self.fault_injector, run.morsel_hook
        checks = [check for armed, check in (
            (token is not None, lambda p, m: token.raise_if_cancelled(
                phase="execution", pipeline_index=p, morsel=m)),
            (governor is not None and governor.timed,
             lambda p, m: governor.check(pipeline_index=p, morsel=m)),
            (injector is not None,
             lambda p, m: injector.check("trap.morsel", run.trace)),
            (hook is not None, lambda p, m: hook()),
        ) if armed]
        if not checks:
            return None

        def gate(pipeline_index=None, morsel=None):
            for check in checks:
                check(pipeline_index, morsel)
        return gate

    def prepare_executable(self, plan: PhysicalOperator, catalog: Catalog,
                           run=None):
        """Compile ``plan`` into something a plan cache can re-run, or
        ``None`` — the default — for engines that interpret the plan on
        every :meth:`execute`."""
        return None

    @staticmethod
    def finalize_rows(plan: PhysicalOperator, storage_rows) -> ExecutionResult:
        """Convert storage-representation rows to Python-level values."""
        types = plan.output_types
        rows = [
            tuple(ty.from_storage(v) for ty, v in zip(types, row))
            for row in storage_rows
        ]
        return ExecutionResult(
            column_names=[c.name for c in plan.output],
            column_types=types,
            rows=rows,
        )

    def execute_folded(self, plan, profile: Profile | None = None,
                       trace=None) -> ExecutionResult:
        """Run a plan proven empty by static analysis.

        Nothing is translated, generated, or compiled — the result is
        the plan's schema with zero rows, and the trace carries only an
        ``execution`` span annotated with the empty proof (the missing
        ``compile.*``/``translation`` spans are the observable win).
        """
        from repro.observability.trace import trace_span

        timings = Timings()
        with trace_span(trace, "execution", engine=self.name,
                        folded=plan.reason):
            pass
        timings.add("execution", 0.0)
        result = self.finalize_rows(plan, [])
        result.engine = self.name
        result.timings = timings
        result.profile = profile
        result.trace = trace
        return result
