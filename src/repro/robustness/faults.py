"""Deterministic fault injection for the execution stack.

Robustness claims are only as good as their tests, and the interesting
failures — TurboFan rejecting a hot function mid-query, ``memory.grow``
failing under pressure, a trap at morsel 4711 — are practically
impossible to provoke organically at test scale.  The
:class:`FaultInjector` makes them reproducible: named *sites* in the
engine call :meth:`check`, and a seeded per-site RNG decides whether the
site raises the exact exception class the real failure would raise.

Sites (see :data:`FAULT_SITES`):

========================  ====================================================
``turbofan.compile``      the optimizing tier fails (tier-up or enforced
                          compilation) — raises ``CompilationError``
``liftoff.compile``       the baseline tier fails at instantiation —
                          raises ``CompilationError``
``stencil.assemble``      the tier-0 stencil assembly declines — raises
                          ``CompilationError`` (the engine falls back
                          to the Liftoff path)
``memory.grow``           the module's ``memory.grow`` is denied — raises
                          ``ResourceExhausted("memory_pages")``
``rewire.chunk``          re-wiring the next chunk of a windowed table
                          fails — raises ``RewiringError``
``trap.morsel``           a trap fires at a morsel boundary — raises
                          ``Trap("out of bounds memory access")``
``admission``             the service refuses admission — raises
                          ``AdmissionError`` with a retry-after hint
``cache.lookup``          the plan-cache lookup fails transiently —
                          raises ``EngineError`` (retryable)
``socket.write``          the TCP front end's reply write fails —
                          raises ``BrokenPipeError`` (connection drop)
``worker.dispatch``       sending a task to a pool worker fails (the
                          worker died between queries) — raises
                          ``WorkerCrash(phase="dispatch")``
``worker.result``         a pool worker is lost after its result was
                          read off the pipe — raises
                          ``WorkerCrash(phase="result")``
========================  ====================================================

Determinism: decisions depend only on ``(seed, site, per-site trial
number)``.  Two runs with the same seed and the same call sequence inject
the same faults, which is what lets the chaos suite assert *results*
rather than merely "it didn't crash".
"""

from __future__ import annotations

import random

from repro.errors import (
    AdmissionError,
    CompilationError,
    ConfigError,
    EngineError,
    ResourceExhausted,
    RewiringError,
    Trap,
    WorkerCrash,
)
from repro.observability.metrics import get_registry
from repro.observability.trace import trace_event

__all__ = ["ENGINE_FAULT_SITES", "FAULT_SITES", "PARALLEL_FAULT_SITES",
           "SERVICE_FAULT_SITES", "FaultInjector"]


def _compile_fault(site: str) -> CompilationError:
    tier = site.split(".")[0]
    return CompilationError(f"injected fault: {tier} compilation failed")


def _grow_fault(site: str) -> ResourceExhausted:
    return ResourceExhausted(
        "memory_pages", "injected fault: memory.grow denied"
    )


def _rewire_fault(site: str) -> RewiringError:
    return RewiringError("injected fault: rewire_next_chunk failed")


def _trap_fault(site: str) -> Trap:
    return Trap("out of bounds memory access", "injected fault at morsel")


def _admission_fault(site: str) -> AdmissionError:
    return AdmissionError("injected fault: admission refused",
                          reason="injected", retry_after=0.005)


def _cache_fault(site: str) -> EngineError:
    return EngineError("injected fault: plan-cache lookup failed")


def _socket_fault(site: str) -> BrokenPipeError:
    return BrokenPipeError("injected fault: socket write failed")


def _worker_fault(site: str) -> WorkerCrash:
    phase = site.split(".")[1]
    return WorkerCrash(f"injected fault: worker lost at {phase}",
                       phase=phase)


#: Sites instrumented inside the execution engine (reachable from
#: ``Database.execute``); the engine-level chaos sweep iterates these.
ENGINE_FAULT_SITES = {
    "turbofan.compile": _compile_fault,
    "liftoff.compile": _compile_fault,
    "stencil.assemble": _compile_fault,
    "memory.grow": _grow_fault,
    "rewire.chunk": _rewire_fault,
    "trap.morsel": _trap_fault,
}

#: Sites instrumented in the query service and its TCP front end
#: (reachable only through ``QueryService``); the multi-client chaos
#: scenario exercises these.
SERVICE_FAULT_SITES = {
    "admission": _admission_fault,
    "cache.lookup": _cache_fault,
    "socket.write": _socket_fault,
}

#: Sites instrumented around the worker-process pool's pipe protocol
#: (reachable when a query is dispatched in parallel); the worker-fault
#: chaos suite exercises these.
PARALLEL_FAULT_SITES = {
    "worker.dispatch": _worker_fault,
    "worker.result": _worker_fault,
}

#: site name -> factory building the exception that site raises when hit.
FAULT_SITES = {**ENGINE_FAULT_SITES, **SERVICE_FAULT_SITES,
               **PARALLEL_FAULT_SITES}


class FaultInjector:
    """Seeded, per-site fault injection.

    Args:
        seed: master seed; every decision derives from it.
        rates: mapping of site name to fire probability in ``[0, 1]``.
            Sites not listed never fire.  A rate of ``1.0`` fires on
            every trial (subject to ``max_fires``).
        max_fires: cap on how often each listed site may fire (``None``
            for unlimited).  ``max_fires=1`` models a transient fault
            that the retry policy should absorb.
    """

    def __init__(self, seed: int = 0,
                 rates: dict[str, float] | None = None,
                 max_fires: int | None = None):
        rates = dict(rates or {})
        for site, rate in rates.items():
            if site not in FAULT_SITES:
                raise ConfigError(
                    f"unknown fault site {site!r}; "
                    f"have {sorted(FAULT_SITES)}"
                )
            if not (0.0 <= rate <= 1.0):
                raise ConfigError(
                    f"fault rate for {site!r} must be in [0, 1], got {rate}"
                )
        self.seed = seed
        self.rates = rates
        self.max_fires = max_fires
        self.trials: dict[str, int] = {}
        self.fired: dict[str, int] = {}
        self._rngs = {
            site: random.Random(f"{seed}:{site}") for site in rates
        }

    @classmethod
    def always(cls, *sites: str, seed: int = 0,
               max_fires: int | None = None) -> "FaultInjector":
        """An injector that fires deterministically at the given sites."""
        return cls(seed=seed, rates={s: 1.0 for s in sites},
                   max_fires=max_fires)

    # -- the site API ------------------------------------------------------------

    def check(self, site: str, trace=None) -> None:
        """Called by instrumented code; raises the site's fault or returns.

        ``trace`` is the visiting query's
        :class:`~repro.observability.QueryTrace`, if it has one: a fault
        that fires is recorded there as a ``fault.injected`` event, so
        chaos runs are auditable post-hoc — and, the injector being
        shared by every query of an engine, in no other query's trace.

        Unlisted sites return immediately, so threading an injector
        through the engine costs one dict lookup per site visit.
        """
        rate = self.rates.get(site)
        if rate is None:
            return
        self.trials[site] = self.trials.get(site, 0) + 1
        if self.max_fires is not None \
                and self.fired.get(site, 0) >= self.max_fires:
            return
        if rate < 1.0 and self._rngs[site].random() >= rate:
            return
        self.fired[site] = self.fired.get(site, 0) + 1
        trace_event(trace, "fault.injected", site=site,
                    trial=self.trials[site], fired=self.fired[site])
        get_registry().counter(
            "faults_injected_total", "Faults injected, by site"
        ).inc(site=site)
        raise FAULT_SITES[site](site)

    @property
    def total_fired(self) -> int:
        return sum(self.fired.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FaultInjector(seed={self.seed}, rates={self.rates}, "
                f"fired={self.fired})")
