"""Cooperative, morsel-fair scheduling of concurrent queries.

Morsel-wise execution gives the host a natural preemption granule: the
generated code returns to the host after every ``pipeline_i(begin,
end)`` call, so a scheduler that parks threads *between* morsels can
interleave N queries fairly without OS-level preemption or signal
handling — exactly the adaptive engine's trick of swapping code at
call boundaries, applied to CPU time instead of tiers.

Three mechanisms, all in :class:`MorselScheduler`:

* **Admission control with load shedding** — at most ``max_concurrent``
  queries run at once; excess queries wait in a bounded queue.  A full
  queue, a session exceeding ``per_session_limit``, or a query whose
  :class:`~repro.robustness.resilience.Deadline` cannot plausibly
  survive the queue is *shed* immediately with
  :class:`~repro.errors.AdmissionError` carrying a ``retry_after`` hint
  (an EWMA of recent slot-hold times) instead of blocking blindly.
* **One budget** — a queued query's admission wait debits the same
  :class:`Deadline` that later seeds the governor's wall-clock check,
  so queue time is never free; the deadline expiring in the queue
  raises :class:`~repro.errors.ResourceExhausted` with
  ``phase="admission"``.
* **Round-robin turnstile** — every admitted query holds a
  :class:`Ticket`; the run's ``morsel_hook`` calls
  :meth:`MorselScheduler.gate` before each morsel, which blocks until
  it is that ticket's turn.  A ticket's :class:`CancelToken` wakes a
  parked gate (or a queued admission) immediately, so ``CANCEL``
  aborts within one morsel even for queries that are waiting, not
  running.

Wait times (admission and per-morsel) are published to the metrics
registry as the ``scheduler_wait_seconds`` histogram, labeled by
``stage``; refusals as ``admission_rejections_total`` by ``reason``.
"""

from __future__ import annotations

import threading
import time
from itertools import count

from repro.errors import AdmissionError, ResourceExhausted
from repro.observability.metrics import get_registry
from repro.observability.trace import trace_event
from repro.robustness.resilience import CancelToken, Deadline

__all__ = ["MorselScheduler", "Ticket"]


class Ticket:
    """One admitted query's claim on the scheduler.

    Created by :meth:`MorselScheduler.admit`; passed (via the run's
    ``morsel_hook``) to :meth:`~MorselScheduler.gate` at each morsel
    boundary and returned through :meth:`~MorselScheduler.release` when
    the query finishes — success, cancellation, or failure.
    """

    __slots__ = ("id", "session_id", "in_rotation", "max_wait_seconds",
                 "deadline", "cancel_token", "admitted_at")

    def __init__(self, ticket_id: int, session_id: object,
                 deadline: Deadline | None = None,
                 cancel_token: CancelToken | None = None):
        self.id = ticket_id
        self.session_id = session_id
        self.in_rotation = False
        #: Longest single wait this ticket experienced (admission or
        #: morsel gate) — the bounded-wait assertion of the stress suite.
        self.max_wait_seconds = 0.0
        self.deadline = deadline
        self.cancel_token = cancel_token
        self.admitted_at: float | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging
        return f"Ticket({self.id}, session={self.session_id!r})"


class MorselScheduler:
    """Admission control, load shedding, and a fair morsel turnstile.

    Args:
        max_concurrent: queries allowed to execute simultaneously.
        max_queue_depth: queries allowed to *wait* for admission; the
            next one is shed with :class:`AdmissionError`.
        per_session_limit: in-flight (admitted or queued) queries one
            session may have; ``None`` for unlimited.
    """

    #: EWMA smoothing for the slot-hold estimate behind ``retry_after``.
    _EWMA_ALPHA = 0.3

    def __init__(self, max_concurrent: int = 4, max_queue_depth: int = 16,
                 per_session_limit: int | None = None):
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")
        self.max_concurrent = max_concurrent
        self.max_queue_depth = max_queue_depth
        self.per_session_limit = per_session_limit
        self._cond = threading.Condition()
        self._ids = count(1)
        self._running: set[int] = set()      # admitted ticket ids
        self._queued = 0
        self._per_session: dict[object, int] = {}
        # round-robin state: rotation order and whose turn it is
        self._rotation: list[int] = []
        self._turn = 0
        # EWMA of how long tickets hold their slot (admission -> release);
        # the basis of the retry-after hint handed to shed clients
        self._avg_hold_seconds = 0.0
        self._wait_hist = get_registry().histogram(
            "scheduler_wait_seconds",
            "Time queries spent waiting on the scheduler, by stage",
        )
        self._rejections = get_registry().counter(
            "admission_rejections_total",
            "Queries refused admission, by reason",
        )

    # -- admission ---------------------------------------------------------

    def retry_after_hint(self) -> float:
        """Seconds until a resubmission plausibly finds a free slot.

        Queue position over drain rate: each of the ``max_concurrent``
        slots frees every ``avg_hold`` seconds, so a full queue drains
        one slot roughly every ``avg_hold / max_concurrent``.
        """
        hold = self._avg_hold_seconds or 0.005
        waiting = self._queued + 1
        return round(hold * waiting / self.max_concurrent, 6)

    def _shed(self, reason: str, message: str,
              retry_after: float | None, trace=None) -> AdmissionError:
        self._rejections.inc(reason=reason)
        trace_event(trace, "admission.shed", reason=reason,
                    retry_after=retry_after)
        return AdmissionError(message, reason=reason,
                              retry_after=retry_after)

    def admit(self, session_id: object = None,
              timeout: float | None = None,
              deadline: Deadline | None = None,
              cancel_token: CancelToken | None = None,
              trace=None) -> Ticket:
        """Block until a run slot is free; returns the query's ticket.

        ``deadline`` is the query's end-to-end budget — the wait debits
        it, and it travels on the ticket so the same object later seeds
        the governor.  ``timeout`` (legacy) tightens the deadline for
        the admission wait alone.  Sheds with :class:`AdmissionError`
        (queue full, session over limit, deadline shorter than the
        expected wait); raises :class:`ResourceExhausted` if the
        deadline expires *while* queued and :class:`QueryCancelled` if
        the token flips while queued.
        """
        wait_deadline = deadline if deadline is not None else Deadline.never()
        if timeout is not None:
            wait_deadline = wait_deadline.tighten(timeout)
        start = time.perf_counter()
        with self._cond:
            if cancel_token is not None:
                cancel_token.raise_if_cancelled(phase="admission")
            if (self.per_session_limit is not None
                    and self._per_session.get(session_id, 0)
                    >= self.per_session_limit):
                raise self._shed(
                    "session_limit",
                    f"session {session_id!r} already has "
                    f"{self.per_session_limit} queries in flight",
                    None, trace,
                )
            must_wait = len(self._running) >= self.max_concurrent
            if must_wait and self._queued >= self.max_queue_depth:
                raise self._shed(
                    "queue_full",
                    f"admission queue full ({self.max_concurrent} running, "
                    f"{self._queued} queued)",
                    self.retry_after_hint(), trace,
                )
            if must_wait and deadline is not None:
                # deadline-aware shedding: don't queue a query whose
                # budget the expected wait would consume anyway
                left = deadline.remaining()
                expected = (self._avg_hold_seconds * (self._queued + 1)
                            / self.max_concurrent)
                if left is not None and (left <= 0 or left < expected):
                    raise self._shed(
                        "deadline",
                        f"deadline ({left:.3f}s left) shorter than the "
                        f"expected admission wait ({expected:.3f}s)",
                        self.retry_after_hint(), trace,
                    )
            self._per_session[session_id] = \
                self._per_session.get(session_id, 0) + 1
            self._queued += 1
            try:
                while len(self._running) >= self.max_concurrent:
                    if cancel_token is not None:
                        cancel_token.raise_if_cancelled(phase="admission")
                    remaining = wait_deadline.remaining()
                    if remaining is not None and remaining <= 0:
                        if deadline is not None and deadline.expired:
                            self._rejections.inc(reason="deadline")
                            trace_event(trace, "admission.shed",
                                        reason="deadline_expired")
                            raise ResourceExhausted(
                                "wall_clock",
                                "deadline expired while queued for "
                                "admission",
                                limit=deadline.timeout_seconds,
                                used=round(
                                    time.perf_counter() - start, 4),
                                phase="admission",
                            )
                        raise self._shed(
                            "timeout",
                            f"admission timed out after {timeout}s",
                            self.retry_after_hint(), trace,
                        )
                    self._cond.wait(remaining)
            except BaseException:
                self._queued -= 1
                self._session_done(session_id)
                raise
            self._queued -= 1
            ticket = Ticket(next(self._ids), session_id,
                            deadline=deadline, cancel_token=cancel_token)
            self._running.add(ticket.id)
            if cancel_token is not None:
                # wake this ticket's parked gate the moment it is
                # cancelled, instead of at its next turn
                cancel_token.on_cancel(self._notify_all)
        waited = time.perf_counter() - start
        ticket.admitted_at = time.perf_counter()
        ticket.max_wait_seconds = max(ticket.max_wait_seconds, waited)
        self._wait_hist.observe(waited, stage="admission")
        return ticket

    def _notify_all(self) -> None:
        with self._cond:
            self._cond.notify_all()

    def _session_done(self, session_id: object) -> None:
        left = self._per_session.get(session_id, 0) - 1
        if left <= 0:
            self._per_session.pop(session_id, None)
        else:
            self._per_session[session_id] = left

    # -- the turnstile -----------------------------------------------------

    def gate(self, ticket: Ticket) -> None:
        """Wait for ``ticket``'s turn; called once per morsel.

        The first call enrolls the ticket in the rotation.  The gate
        passes when the rotation points at this ticket (or the ticket
        runs alone), then advances the turn so the next active query
        gets the next slice.  A cancelled token aborts the wait with
        :class:`QueryCancelled` — ``release`` (in the caller's
        ``finally``) repairs the rotation.
        """
        token = ticket.cancel_token
        if token is not None:
            token.raise_if_cancelled(phase="execution")
        start = time.perf_counter()
        with self._cond:
            if not ticket.in_rotation:
                # join just past the current turn: the newcomer waits
                # one full round before its first morsel, never zero
                position = self._turn + 1 if self._rotation else 0
                self._rotation.insert(min(position, len(self._rotation)),
                                      ticket.id)
                ticket.in_rotation = True
            if len(self._rotation) > 1:
                while self._rotation[self._turn] != ticket.id:
                    if token is not None and token.cancelled:
                        token.raise_if_cancelled(phase="execution")
                    self._cond.wait()
                self._turn = (self._turn + 1) % len(self._rotation)
                self._cond.notify_all()
            else:
                self._turn = 0
        waited = time.perf_counter() - start
        ticket.max_wait_seconds = max(ticket.max_wait_seconds, waited)
        self._wait_hist.observe(waited, stage="morsel")

    def dispatch(self, ticket: Ticket, run_tasks, tasks: list,
                 deadline=None, cancel_token=None, trace=None) -> list:
        """Ship one parallel query's task batch through the turnstile.

        This is how the scheduler acts as the *dispatcher* for
        multi-process execution: the driver thread passes the same
        morsel gate as in-process queries (fairness and cancellation
        are checked before anything reaches a worker pipe), then hands
        the batch to ``run_tasks`` — the pool, or whatever the tests
        inject.  The workers burn their morsels off-GIL; the driver
        thread holds only its ticket while it waits.
        """
        self.gate(ticket)
        start = time.perf_counter()
        trace_event(trace, "scheduler.dispatch", ticket=ticket.id,
                    tasks=len(tasks))
        try:
            return run_tasks(tasks,
                             deadline=deadline or ticket.deadline,
                             cancel_token=cancel_token
                             or ticket.cancel_token,
                             trace=trace)
        finally:
            waited = time.perf_counter() - start
            ticket.max_wait_seconds = max(ticket.max_wait_seconds, waited)
            self._wait_hist.observe(waited, stage="dispatch")

    def release(self, ticket: Ticket) -> None:
        """Return ``ticket``'s slot; wakes waiting admissions and gates."""
        with self._cond:
            if ticket.admitted_at is not None:
                held = time.perf_counter() - ticket.admitted_at
                self._avg_hold_seconds = (
                    held if self._avg_hold_seconds == 0.0
                    else (1 - self._EWMA_ALPHA) * self._avg_hold_seconds
                    + self._EWMA_ALPHA * held
                )
                ticket.admitted_at = None
            self._running.discard(ticket.id)
            self._session_done(ticket.session_id)
            if ticket.in_rotation:
                index = self._rotation.index(ticket.id)
                self._rotation.pop(index)
                if self._rotation:
                    if index < self._turn:
                        self._turn -= 1
                    self._turn %= len(self._rotation)
                else:
                    self._turn = 0
                ticket.in_rotation = False
            self._cond.notify_all()

    # -- introspection -----------------------------------------------------

    @property
    def active(self) -> int:
        """Queries currently admitted (running or between morsels)."""
        with self._cond:
            return len(self._running)

    @property
    def queued(self) -> int:
        with self._cond:
            return self._queued
