"""Exception hierarchy of the repro database system.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch a single base class.  The hierarchy mirrors the layered
architecture: SQL frontend errors, catalog errors, planning errors, Wasm
(compilation/validation/trap) errors, and engine errors.

Each class carries a ``retryable`` flag, the contract the fallback chain
in :mod:`repro.robustness.fallback` is built on:

* **retryable** — the failure is specific to one execution strategy
  (a trap in generated code, a tier compiler giving up, an engine running
  out of its memory budget); re-running the same query on a different
  engine can legitimately succeed.
* **not retryable** — the failure is a property of the query or the data
  (syntax errors, unknown columns, invalid configuration) or of the
  overall budget (a wall-clock timeout); every engine would fail the same
  way, or retrying would violate the budget that just fired.

See DESIGN.md ("Robustness & error taxonomy") for the full table.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by this library."""

    #: Whether a fallback chain may re-run the query on another engine
    #: after this error.  See the module docstring for the contract.
    retryable: bool = False


# --------------------------------------------------------------------------
# SQL frontend
# --------------------------------------------------------------------------

class SqlError(ReproError):
    """Base class for errors in the SQL frontend."""


class LexError(SqlError):
    """Raised when the tokenizer encounters malformed input.

    Carries the 1-based ``line`` and ``column`` of the offending character.
    """

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (at line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(SqlError):
    """Raised when the parser encounters a syntax error."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        if line:
            message = f"{message} (at line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class AnalysisError(SqlError):
    """Raised by semantic analysis: unknown names, type mismatches, ..."""


# --------------------------------------------------------------------------
# Catalog / storage
# --------------------------------------------------------------------------

class CatalogError(ReproError):
    """Unknown or duplicate tables/columns, schema violations."""


class StorageError(ReproError):
    """Errors in the storage layer (layout, capacity, type mismatch)."""


class RewiringError(StorageError):
    """Errors in the rewired address space (overlap, out of window, ...).

    Retryable: rewiring is an execution strategy of the Wasm engine; an
    interpreter or Volcano run does not depend on the failed mapping.
    """

    retryable = True


# --------------------------------------------------------------------------
# Planning
# --------------------------------------------------------------------------

class PlanError(ReproError):
    """Errors while building or optimizing query plans."""


class UnsupportedFeatureError(PlanError):
    """A SQL feature that is recognized but not implemented by a backend.

    Retryable: raised per backend, so another engine in the fallback
    chain may well support the feature.
    """

    retryable = True


# --------------------------------------------------------------------------
# WebAssembly substrate
# --------------------------------------------------------------------------

class WasmError(ReproError):
    """Base class for errors in the WebAssembly substrate."""


class EncodeError(WasmError):
    """Raised when a module cannot be encoded to the binary format."""


class DecodeError(WasmError):
    """Raised when a binary module is malformed."""


class ValidationError(WasmError):
    """Raised when a module fails validation (type checking)."""


class LintError(ValidationError):
    """Raised under ``EngineConfig(lint="strict")`` when the module
    linter finds diagnostics (unreachable code, provably-trapping
    accesses, dead stores, ...).

    Like :class:`ValidationError` it is not retryable per engine — the
    generated module is the same on every tier — but callers can inspect
    ``diagnostics`` for the structured findings.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        summary = "\n".join(f"  {d}" for d in self.diagnostics)
        super().__init__(
            f"module failed lint with {len(self.diagnostics)} "
            f"diagnostic(s):\n{summary}"
        )


class Trap(WasmError):
    """A WebAssembly trap: execution aborted with a runtime error.

    Mirrors the traps of the Wasm spec: out-of-bounds memory access,
    integer divide by zero, unreachable, call-stack exhaustion, ...

    When the trap fires while the host drives a query, the Wasm engine
    annotates it with ``phase``, ``pipeline_index``, and ``morsel`` so
    that the failure can be located without a debugger.  Traps are
    retryable: the volcano engine raises an :class:`EngineError` for the
    same arithmetic fault, or succeeds when the trap was spurious
    (injected, or a miscompilation of one tier).
    """

    retryable = True

    def __init__(self, kind: str, message: str = ""):
        super().__init__(f"wasm trap: {kind}" + (f": {message}" if message else ""))
        self.kind = kind
        self.phase: str | None = None
        self.pipeline_index: int | None = None
        self.morsel: int | None = None


class CompilationError(WasmError):
    """Raised when a tier compiler cannot compile a function.

    Retryable: the adaptive engine pins the function to Liftoff when
    TurboFan fails; if the baseline tier itself fails, the fallback chain
    re-runs on the interpreter or a non-compiling engine.
    """

    retryable = True


class StencilError(CompilationError):
    """Raised when the tier-0 stencil assembler cannot assemble a function.

    Retryable like every compilation failure: the engine falls back to
    the Liftoff path for the affected function, so a query never fails
    because the cheapest tier declined it.
    """

    retryable = True


# --------------------------------------------------------------------------
# Engines
# --------------------------------------------------------------------------

class EngineError(ReproError):
    """Errors during query execution in any engine.

    Retryable: execution errors are engine-specific by definition.
    """

    retryable = True


class ConfigError(ReproError):
    """Invalid engine or robustness configuration (bad tiering mode,
    non-positive thresholds, malformed fallback chain, ...).

    Not retryable: the configuration is wrong for every engine.
    """


class ResourceExhausted(ReproError):
    """A per-query resource budget was exceeded.

    Carries the exhausted ``resource`` (``"wall_clock"`` or
    ``"memory_pages"``), the budget and observed usage, and — when raised
    while a query is running — the execution ``phase``, ``pipeline_index``
    and ``morsel`` at which the governor tripped.

    Retryability depends on the resource: blowing the *memory* budget is
    an artifact of one engine's data structures, so another engine may
    fit (``retryable`` is True for ``memory_pages``); a *wall-clock*
    timeout already consumed the query's time budget, so retrying on a
    (typically slower) fallback engine would only make it worse
    (``retryable`` is False for ``wall_clock``).
    """

    def __init__(self, resource: str, message: str = "", *,
                 limit: float | None = None, used: float | None = None,
                 phase: str | None = None, pipeline_index: int | None = None,
                 morsel: int | None = None):
        detail = message or f"{resource} budget exceeded"
        parts = [detail]
        if limit is not None:
            parts.append(f"limit={limit}")
        if used is not None:
            parts.append(f"used={used}")
        if phase is not None:
            parts.append(f"phase={phase}")
        if pipeline_index is not None:
            parts.append(f"pipeline={pipeline_index}")
        if morsel is not None:
            parts.append(f"morsel={morsel}")
        super().__init__(" ".join(parts))
        self.resource = resource
        self.limit = limit
        self.used = used
        self.phase = phase
        self.pipeline_index = pipeline_index
        self.morsel = morsel

    @property
    def retryable(self) -> bool:  # type: ignore[override]
        return self.resource != "wall_clock"


class ServiceError(ReproError):
    """Base class for errors raised by the concurrent query service."""


class SessionError(ServiceError):
    """Session-level misuse: unknown or duplicate prepared statements,
    statements that need a session issued without one, closed sessions.

    Not retryable: the request is wrong on every engine.
    """


class AdmissionError(ServiceError):
    """The scheduler refused to admit a query (queue full, per-session
    limit reached, or the query's deadline cannot survive the queue).
    Not retryable through the engine *fallback chain*: the service
    does not resubmit it either.  A client may back off and resubmit,
    guided by ``retry_after``.

    Attributes:
        reason: structured shed reason (``"queue_full"``,
            ``"session_limit"``, ``"deadline"``, or ``"injected"``).
        retry_after: the scheduler's hint, in seconds, for when a
            resubmission is likely to be admitted (``None`` when the
            refusal is not load-related, e.g. a session limit).
    """

    def __init__(self, message: str, *, reason: str = "queue_full",
                 retry_after: float | None = None):
        if retry_after is not None:
            message = f"{message} (retry after {retry_after:.3f}s)"
        super().__init__(message)
        self.reason = reason
        self.retry_after = retry_after


class QueryCancelled(ServiceError):
    """A query was cooperatively cancelled at a morsel boundary.

    Raised by :meth:`~repro.robustness.resilience.CancelToken.
    raise_if_cancelled` — from the scheduler's turnstile, the admission
    queue, or the Wasm engine's morsel loop — when another session (or
    the disconnecting client itself) issued ``CANCEL <query_id>``.

    Not retryable: the cancellation was deliberate; re-running the
    query on a fallback engine would undo it.
    """

    def __init__(self, message: str = "query cancelled", *,
                 query_id: int | None = None, reason: str | None = None,
                 phase: str | None = None, pipeline_index: int | None = None,
                 morsel: int | None = None):
        parts = [message]
        if query_id is not None:
            parts.append(f"query_id={query_id}")
        if reason is not None and reason != "cancelled":
            parts.append(f"reason={reason}")
        if phase is not None:
            parts.append(f"phase={phase}")
        if pipeline_index is not None:
            parts.append(f"pipeline={pipeline_index}")
        if morsel is not None:
            parts.append(f"morsel={morsel}")
        super().__init__(" ".join(parts))
        self.query_id = query_id
        self.reason = reason
        self.phase = phase
        self.pipeline_index = pipeline_index
        self.morsel = morsel


class QueryError(ReproError):
    """A query failed on every engine the fallback chain tried.

    ``attempts`` is the ordered list of ``(engine_spec, error)`` pairs;
    ``__cause__`` chains to the last error, whose own ``__cause__`` (via
    the per-attempt errors) preserves every original traceback.

    Not retryable: it already *is* the outcome of the fallback route.
    """

    def __init__(self, message: str,
                 attempts: list[tuple[str, BaseException]] | None = None):
        attempts = attempts or []
        if attempts:
            trail = "; ".join(
                f"[{i + 1}] {spec}: {type(err).__name__}: {err}"
                for i, (spec, err) in enumerate(attempts)
            )
            message = f"{message} — attempts: {trail}"
        super().__init__(message)
        self.attempts = attempts

    @property
    def causes(self) -> list[BaseException]:
        return [err for _, err in self.attempts]


class WorkerError(ServiceError):
    """A morsel-worker task failed for a reason specific to the worker
    pool — the dispatch channel, the worker process, or the shared-
    memory attachment — not to the query itself.

    Retryable: the same query run in-process is expected to succeed —
    ``Database.run_plan`` does exactly that with every ``WorkerError``
    the pool raises, so none reaches a client.
    """

    retryable = True


class WorkerCrash(WorkerError):
    """A worker process died (or stopped responding) mid-task.

    The pool replaces the worker; the interrupted task surfaces as this
    structured, retryable error, on which ``Database.run_plan`` runs the
    query in-process instead.

    Attributes:
        worker_id: the pool slot whose process died.
        phase: ``"dispatch"`` (send failed), ``"result"`` (reply lost),
            or ``"timeout"`` (no reply within the task budget).
    """

    def __init__(self, message: str, *, worker_id: int | None = None,
                 phase: str = "result"):
        if worker_id is not None:
            message = f"{message} (worker {worker_id}, {phase})"
        super().__init__(message)
        self.worker_id = worker_id
        self.phase = phase
