"""Service-level resilience primitives: one budget from admission to
the last morsel.

The paper's morsel-wise execution gives the host a preemption point
after every ``pipeline_i(begin, end)`` call; the resource governor and
the fair scheduler already use it.  This module closes the loop at the
*service* level with three primitives:

* :class:`Deadline` — one monotonic expiry carried by a query from
  admission to the last morsel.  Session ``statement_timeout``, a
  client-supplied per-query timeout, and the scheduler's admission wait
  all debit the same budget (queue time is not free), and the same
  object seeds the :class:`~repro.robustness.governor.ResourceGovernor`
  wall-clock check.
* :class:`CancelToken` — cooperative cancellation, checked at the same
  morsel-boundary gate the scheduler and governor use.  ``CANCEL
  <query_id>`` from another session flips the token; the running query
  aborts within one morsel with a structured
  :class:`~repro.errors.QueryCancelled`.
* :class:`CircuitBreaker` — the query service keeps one per statement
  fingerprint over TurboFan bailouts: a fingerprint whose compilations
  repeatedly bail has its route's head pinned to the cheap tier for a
  cool-down, then half-opens with a single probe.

Everything here is deterministic under an injected clock, so the chaos
suite can assert transitions, not just survival.
"""

from __future__ import annotations

import threading
import time

from repro.errors import ConfigError, QueryCancelled

__all__ = ["CancelToken", "CircuitBreaker", "Deadline"]

#: The clock every CircuitBreaker reads; tests swap it.
_clock = time.perf_counter


class Deadline:
    """A monotonic expiry shared by every stage of one query.

    Args:
        timeout_seconds: budget from *now*; ``None`` means unlimited
            (the deadline never expires).
        clock: zero-argument monotonic clock; defaults to
            :func:`time.perf_counter`.  Everyone holding this deadline
            reads the same clock, so admission wait, governor checks,
            and retry sleeps all debit one budget.
    """

    __slots__ = ("timeout_seconds", "expires_at", "_clock")

    def __init__(self, timeout_seconds: float | None = None, *, clock=None):
        if timeout_seconds is not None and timeout_seconds <= 0:
            raise ConfigError("deadline timeout_seconds must be positive")
        self._clock = clock if clock is not None else time.perf_counter
        self.timeout_seconds = timeout_seconds
        self.expires_at = (None if timeout_seconds is None
                           else self._clock() + timeout_seconds)

    @classmethod
    def never(cls, *, clock=None) -> "Deadline":
        """A deadline that never expires (unlimited budget)."""
        return cls(None, clock=clock)

    def remaining(self) -> float | None:
        """Seconds left, clamped at 0.0; ``None`` for unlimited."""
        if self.expires_at is None:
            return None
        return max(0.0, self.expires_at - self._clock())

    @property
    def expired(self) -> bool:
        return (self.expires_at is not None
                and self._clock() >= self.expires_at)

    def clamp(self, seconds: float) -> float:
        """``seconds`` capped to what is left of the budget."""
        left = self.remaining()
        return seconds if left is None else min(seconds, left)

    def tighten(self, timeout_seconds: float | None) -> "Deadline":
        """The earlier of this deadline and ``now + timeout_seconds``.

        Used to combine a session ``statement_timeout`` with a stricter
        per-query timeout; the shared clock is preserved.
        """
        if timeout_seconds is None:
            return self
        other = Deadline(timeout_seconds, clock=self._clock)
        if self.expires_at is None or other.expires_at < self.expires_at:
            return other
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        left = self.remaining()
        return (f"Deadline(unlimited)" if left is None
                else f"Deadline(remaining={left:.4f}s)")


class CancelToken:
    """A thread-safe one-shot cancellation flag.

    The canceller (another session, the TCP front end on disconnect,
    an operator script) calls :meth:`cancel`; the running query calls
    :meth:`raise_if_cancelled` at every morsel boundary — the same gate
    the governor and the fair scheduler already use — and aborts with a
    structured :class:`~repro.errors.QueryCancelled` within one morsel.

    ``on_cancel`` callbacks let blocking waiters (a query parked in the
    scheduler's turnstile or the admission queue) be woken immediately
    instead of at their next poll.
    """

    __slots__ = ("_lock", "_cancelled", "reason", "query_id", "_callbacks")

    def __init__(self, query_id: int | None = None):
        self._lock = threading.Lock()
        self._cancelled = False
        self.reason: str | None = None
        self.query_id = query_id
        self._callbacks: list = []

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self, reason: str = "cancelled") -> bool:
        """Flip the token; returns True on the first (effective) call."""
        with self._lock:
            if self._cancelled:
                return False
            self._cancelled = True
            self.reason = reason
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback()
        return True

    def on_cancel(self, callback) -> None:
        """Run ``callback`` when the token is cancelled (immediately if
        it already is).  Callbacks fire exactly once, without the lock
        held."""
        with self._lock:
            if not self._cancelled:
                self._callbacks.append(callback)
                return
        callback()

    def raise_if_cancelled(self, *, phase: str | None = None,
                           pipeline_index: int | None = None,
                           morsel: int | None = None) -> None:
        """Abort the caller with :class:`QueryCancelled` if cancelled."""
        if self._cancelled:
            raise QueryCancelled(
                reason=self.reason, query_id=self.query_id, phase=phase,
                pipeline_index=pipeline_index, morsel=morsel,
            )


class CircuitBreaker:
    """A three-state breaker: ``closed -> open -> half_open -> closed``.

    ``closed``
        failures accumulate; reaching ``failure_threshold`` opens the
        breaker.  Successes do *not* reset the count — the failures
        being guarded (TurboFan bailouts) occur once per compilation
        episode and are interleaved with cheap successful runs, so a
        consecutive-failure reset would never trip.
    ``open``
        :meth:`allow` answers False for ``cooldown_seconds``; the
        caller degrades (pins the cheap tier) instead of paying the
        failure again.
    ``half_open``
        after the cool-down one probe is let through; its success
        closes the breaker (and clears the count), its failure — or
        its end without a report (:meth:`abandon_probe`) — re-opens it
        for another full cool-down.

    Thread-safe; reads the module's ``_clock`` at every call, so tests
    can swap it.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

    def __init__(self, failure_threshold: int = 2,
                 cooldown_seconds: float = 30.0, *, on_transition=None):
        if failure_threshold < 1:
            raise ConfigError("failure_threshold must be >= 1")
        if cooldown_seconds <= 0:
            raise ConfigError("cooldown_seconds must be positive")
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at: float | None = None
        self._probe_in_flight = False

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    @property
    def failures(self) -> int:
        with self._lock:
            return self._failures

    def _transition(self, new_state: str) -> None:
        old, self._state = self._state, new_state
        self._probe_in_flight = False
        if new_state == self.OPEN:
            self._opened_at = _clock()
        if old != new_state and self._on_transition is not None:
            self._on_transition(old, new_state)

    def _maybe_half_open(self) -> None:
        if (self._state == self.OPEN
                and _clock() - self._opened_at >= self.cooldown_seconds):
            self._transition(self.HALF_OPEN)

    def allow(self) -> bool:
        """May the guarded (expensive) path be attempted right now?

        In ``half_open`` exactly one caller gets True (the probe);
        everyone else keeps degrading until the probe resolves.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == self.CLOSED:
                return True
            if self._state == self.HALF_OPEN and not self._probe_in_flight:
                self._probe_in_flight = True
                return True
            return False

    def record_failure(self, count: int = 1) -> None:
        """One failing episode of the guarded path."""
        with self._lock:
            self._maybe_half_open()
            if self._state == self.HALF_OPEN:
                self._transition(self.OPEN)
                return
            self._failures += count
            if (self._state == self.CLOSED
                    and self._failures >= self.failure_threshold):
                self._transition(self.OPEN)

    def record_success(self) -> None:
        """A successful episode; closes the breaker after a good probe."""
        with self._lock:
            self._maybe_half_open()
            if self._state == self.HALF_OPEN:
                self._failures = 0
                self._transition(self.CLOSED)

    def abandon_probe(self) -> None:
        """An episode ended without reporting (its compile failed, its
        run was cancelled or fell back): a probe in flight counts as a
        failed one, so the breaker re-opens for a full cool-down.
        Outside a probe there is nothing to count."""
        with self._lock:
            self._maybe_half_open()
            if self._state == self.HALF_OPEN and self._probe_in_flight:
                self._transition(self.OPEN)
