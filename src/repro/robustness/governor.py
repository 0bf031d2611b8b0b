"""Per-query resource budgets: wall-clock time and linear-memory pages.

Real V8 contains both of these guards: an interrupt check at loop back
edges (``--wasm-max-mem-pages`` style limits, stack guards, termination
requests) and a hard cap on how far ``memory.grow`` may take a module.
Our reproduction gets the equivalent by construction: the host drives
queries **morsel-wise**, so every morsel boundary is a natural interrupt
check, and every page the module acquires goes through the rewired
:class:`~repro.storage.rewiring.AddressSpace`, a single choke point.

The :class:`ResourceGovernor` exploits exactly those two choke points:

* :meth:`check` is called by the Wasm engine at each morsel boundary
  (and between pipelines) with the current execution position; it raises
  :class:`~repro.errors.ResourceExhausted` with full phase context when
  the wall-clock budget is blown.
* :meth:`charge_pages` is called by ``AddressSpace._reserve`` (and hence
  by ``LinearMemory.grow``, ``alloc``, and ``map_buffer``) before pages
  are handed out; it raises when the peak-page budget would be exceeded.

A governor is cheap enough to create per query; both budgets are
optional, and a governor with neither budget never raises.
"""

from __future__ import annotations

import time

from repro.errors import ConfigError, ResourceExhausted
from repro.observability.metrics import get_registry
from repro.observability.trace import trace_event

__all__ = ["ResourceGovernor"]


class ResourceGovernor:
    """Enforces one query's budgets at morsel and allocation boundaries.

    Args:
        timeout_seconds: wall-clock budget for the whole query (compile
            plus execution), or ``None`` for unlimited.
        max_memory_pages: peak 64 KiB pages the query's address space may
            hold (tables, constants, heap, results — everything the query
            maps or grows), or ``None`` for unlimited.
    """

    def __init__(self, timeout_seconds: float | None = None,
                 max_memory_pages: int | None = None,
                 deadline=None):
        if timeout_seconds is not None and timeout_seconds <= 0:
            raise ConfigError("timeout_seconds must be positive")
        if max_memory_pages is not None and max_memory_pages <= 0:
            raise ConfigError("max_memory_pages must be positive")
        self.timeout_seconds = timeout_seconds
        self.max_memory_pages = max_memory_pages
        #: Optional :class:`~repro.robustness.resilience.Deadline` the
        #: query has carried since admission.  The governor honors the
        #: *earlier* of its own ``timeout_seconds`` and this deadline,
        #: which is how queue wait debits the same budget execution does.
        self.deadline = deadline
        self.pages_charged = 0
        self.peak_pages = 0
        #: Current query phase; the engine updates it as the query moves
        #: through translation/compilation/execution so that allocation
        #: sites (which don't know the phase) still report it.
        self.phase = "setup"
        #: Optional :class:`~repro.observability.QueryTrace`; budget
        #: checks are recorded only when a budget is actually configured,
        #: so un-budgeted queries keep clean traces.
        self.trace = None
        self._deadline: float | None = None
        self._started_at: float | None = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "ResourceGovernor":
        """Arm the wall clock; called once when query processing begins."""
        self._started_at = time.perf_counter()
        if self.timeout_seconds is not None:
            self._deadline = self._started_at + self.timeout_seconds
        return self

    @property
    def elapsed_seconds(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.perf_counter() - self._started_at

    # -- wall clock --------------------------------------------------------------

    @property
    def timed(self) -> bool:
        """Whether a wall-clock budget is armed; :meth:`check` is a
        no-op otherwise, so per-morsel callers may skip it."""
        return self._deadline is not None or self.deadline is not None

    def check(self, phase: str | None = None,
              pipeline_index: int | None = None,
              morsel: int | None = None) -> None:
        """Raise :class:`ResourceExhausted` if the deadline has passed."""
        if not self.timed:
            return
        trace_event(self.trace, "governor.check",
                    phase=phase if phase is not None else self.phase,
                    pipeline=pipeline_index, morsel=morsel)
        get_registry().counter(
            "governor_checks_total", "Budget checks at morsel boundaries"
        ).inc()
        own_expired = (self._deadline is not None
                       and time.perf_counter() >= self._deadline)
        shared_expired = self.deadline is not None and self.deadline.expired
        if not own_expired and not shared_expired:
            return
        limit = self.timeout_seconds
        if own_expired is False and shared_expired:
            limit = self.deadline.timeout_seconds
        trace_event(self.trace, "governor.exhausted", resource="wall_clock",
                    phase=phase if phase is not None else self.phase,
                    pipeline=pipeline_index, morsel=morsel)
        get_registry().counter(
            "governor_exhausted_total", "Budget exhaustions, by resource"
        ).inc(resource="wall_clock")
        raise ResourceExhausted(
            "wall_clock",
            "query exceeded its wall-clock budget"
            + (" (deadline carried from admission)" if shared_expired
               and not own_expired else ""),
            limit=limit,
            used=round(self.elapsed_seconds, 4),
            phase=phase if phase is not None else self.phase,
            pipeline_index=pipeline_index,
            morsel=morsel,
        )

    # -- memory ------------------------------------------------------------------

    def ensure_pages(self, npages: int,
                     phase: str | None = None) -> None:
        """Raise if charging ``npages`` would exceed the budget.

        Non-mutating: lets allocation sites refuse an oversized request
        *before* committing resources (e.g. before ``alloc`` constructs
        its backing buffer), without double-charging when the reservation
        later goes through :meth:`charge_pages`.
        """
        total = self.pages_charged + npages
        if self.max_memory_pages is not None and total > self.max_memory_pages:
            trace_event(self.trace, "governor.exhausted",
                        resource="memory_pages",
                        phase=phase if phase is not None else self.phase,
                        requested=npages, limit=self.max_memory_pages)
            get_registry().counter(
                "governor_exhausted_total",
                "Budget exhaustions, by resource",
            ).inc(resource="memory_pages")
            raise ResourceExhausted(
                "memory_pages",
                f"allocating {npages} pages would exceed the budget",
                limit=self.max_memory_pages,
                used=total,
                phase=phase if phase is not None else self.phase,
            )

    def charge_pages(self, npages: int,
                     phase: str | None = None) -> None:
        """Account ``npages`` newly reserved pages against the budget.

        Called *before* the reservation takes effect so that a denied
        allocation leaves the address space untouched.  Mappings are
        never recycled within a query (the space is torn down whole), so
        the running total is also the peak.
        """
        self.ensure_pages(npages, phase)
        self.pages_charged += npages
        self.peak_pages = max(self.peak_pages, self.pages_charged)
