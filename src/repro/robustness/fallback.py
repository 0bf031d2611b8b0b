"""Graceful degradation: re-run a failed statement on the next engine.

The paper's architecture already *contains* a degradation ladder — the
same physical plan executes on the adaptive Wasm engine, on the Wasm
reference interpreter, and on the Volcano engine, in strictly decreasing
order of sophistication and strictly increasing order of simplicity (and
hence trustworthiness).  A statement's *route* makes that ladder
explicit: the engine spec it asked for, then the database's fallback
chain.  When an attempt fails with a *retryable* error (see
:mod:`repro.errors`), the statement transparently re-runs on the next
spec.  Both front doors — ``Database.execute`` and the query service —
run their routes through :func:`run_route`; it is the only loop over a
statement's engine specs.

An engine spec is an engine name with an optional bracketed variant:
``"wasm"``, ``"wasm[interpreter]"`` (the Wasm engine forced to the
reference interpreter — no compilation at all), ``"volcano"``.  The
default chain is :data:`DEFAULT_CHAIN`,
``wasm[adaptive_stencil] → wasm[interpreter] → volcano``.

Outcome contract of :func:`run_route`:

* first success wins; failed earlier attempts are reported on the result
  (``ExecutionResult.fallback_attempts``) — degradation is observable,
  never silent;
* a failure on a route of one spec (no fallback configured) re-raises
  the original exception unchanged;
* a non-retryable error stops the route immediately;
* when more than one attempt failed, the caller gets one structured
  :class:`~repro.errors.QueryError` carrying the full
  ``(engine_spec, error)`` attempt trail, chained (``__cause__``) to the
  last underlying error.
"""

from __future__ import annotations

import re

from repro.errors import ConfigError, QueryError, ReproError
from repro.observability.metrics import get_registry
from repro.observability.trace import trace_event

__all__ = ["DEFAULT_CHAIN", "parse_engine_spec", "run_route"]

#: The default degradation ladder of the paper's architecture.
DEFAULT_CHAIN = ("wasm[adaptive_stencil]", "wasm[interpreter]", "volcano")

_SPEC_RE = re.compile(r"^(?P<name>[a-z_][a-z0-9_]*)"
                      r"(\[(?P<option>[a-z0-9_]+)\])?$")


def parse_engine_spec(spec: str) -> tuple[str, str | None]:
    """``"wasm[interpreter]"`` -> ``("wasm", "interpreter")``."""
    match = _SPEC_RE.match(spec)
    if match is None:
        raise ConfigError(f"malformed engine spec {spec!r}")
    return match.group("name"), match.group("option")


def run_route(specs, run_one, trace=None):
    """Try ``run_one(spec)`` for each spec of a route until one succeeds.

    Every attempt is an ``engine.attempt`` event in ``trace`` and every
    failed one an ``engine.attempt_failed`` event.  Returns the winning
    result with ``fallback_attempts`` set to the ``(spec, "Error:
    message")`` pairs that preceded it; raises per the outcome contract
    in the module docstring.
    """
    attempts_counter = get_registry().counter(
        "fallback_attempts_total", "Engine attempts, by spec and outcome"
    )
    failures: list[tuple[str, ReproError]] = []
    for spec in specs:
        trace_event(trace, "engine.attempt", engine=spec)
        try:
            result = run_one(spec)
        except ReproError as err:
            trace_event(trace, "engine.attempt_failed", engine=spec,
                        error=type(err).__name__)
            attempts_counter.inc(engine=spec, outcome="error")
            failures.append((spec, err))
            if len(failures) < len(specs) and err.retryable:
                continue
            if len(failures) == 1:
                raise  # no fallback was attempted: surface the original
            if not err.retryable:
                message = ("query aborted by a non-retryable error "
                           "after fallback")
            else:
                message = "query failed on every engine of the chain"
            raise QueryError(message, attempts=failures) from err
        attempts_counter.inc(engine=spec, outcome="ok")
        if failures:
            get_registry().counter(
                "fallback_degraded_queries_total",
                "Queries answered by a fallback engine",
            ).inc()
        result.fallback_attempts = [
            (failed, f"{type(err).__name__}: {err}")
            for failed, err in failures
        ]
        return result
    raise ConfigError("no engines to attempt")
