"""Execution guardrails: budgets, graceful degradation, fault injection.

Four cooperating layers keep a query from taking the system down:

* :mod:`repro.robustness.governor` — per-query resource budgets
  (wall-clock, linear-memory pages), enforced at morsel boundaries and
  in the rewired address space,
* :mod:`repro.robustness.fallback` — the degradation ladder: a failed
  attempt re-runs on the next engine spec of the statement's route
  (``wasm[adaptive_stencil] → wasm[interpreter] → volcano`` by
  default), the same loop behind ``Database.execute`` and the query
  service,
* :mod:`repro.robustness.resilience` — one deadline and one cancel
  token per query, and the circuit breaker the query service keeps per
  statement fingerprint over TurboFan bailouts,
* :mod:`repro.robustness.faults` — deterministic, seeded fault injection
  at named engine sites, so the chaos suite can prove that every
  injected failure still yields a correct query result.
"""

from repro.robustness.fallback import (
    DEFAULT_CHAIN,
    parse_engine_spec,
    run_route,
)
from repro.robustness.faults import (
    ENGINE_FAULT_SITES,
    FAULT_SITES,
    PARALLEL_FAULT_SITES,
    SERVICE_FAULT_SITES,
    FaultInjector,
)
from repro.robustness.governor import ResourceGovernor
from repro.robustness.resilience import CancelToken, CircuitBreaker, Deadline

__all__ = [
    "CancelToken",
    "CircuitBreaker",
    "DEFAULT_CHAIN",
    "Deadline",
    "ENGINE_FAULT_SITES",
    "FAULT_SITES",
    "FaultInjector",
    "ResourceGovernor",
    "PARALLEL_FAULT_SITES",
    "SERVICE_FAULT_SITES",
    "parse_engine_spec",
    "run_route",
]
