"""Service-level resilience primitives: one budget from admission to
the last morsel.

The paper's morsel-wise execution gives the host a preemption point
after every ``pipeline_i(begin, end)`` call; PR 1 used it for resource
budgets and PR 4 for fair scheduling.  This module closes the loop at
the *service* level with four cooperating primitives:

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
* :class:`RetryPolicy` — deterministic (seeded) exponential backoff
  with jitter for *retryable* taxonomy errors and shed admissions,
  never sleeping past the deadline.
* :class:`CircuitBreaker` / :class:`TierBreakerBoard` — per-fingerprint
  breakers over TurboFan bailouts: a fingerprint whose compilations
  repeatedly bail stops attempting the expensive tier for a cool-down,
  then half-opens with a single probe.

Everything here is deterministic under injected clocks and seeds, so
the chaos suite can assert transitions, not just survival.
"""

from __future__ import annotations

import random
import threading
import time

from repro.errors import AdmissionError, ConfigError, QueryCancelled, ReproError
from repro.observability.metrics import get_registry
from repro.observability.trace import trace_event

__all__ = [
    "CancelToken",
    "CircuitBreaker",
    "Deadline",
    "RetryPolicy",
    "TierBreakerBoard",
]


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


class RetryPolicy:
    """Deterministic service-level retries: seeded backoff plus jitter.

    A retry is attempted only when the error is *retryable* per the
    taxonomy in :mod:`repro.errors` — or is an
    :class:`~repro.errors.AdmissionError`, which is exactly the "back
    off and resubmit" contract shedding advertises — and only when the
    backoff sleep still fits inside the query's :class:`Deadline`.
    Delays depend on ``(seed, key, attempt)`` alone, so two runs with
    the same seed retry at the same instants.

    Args:
        max_attempts: total tries per query (first attempt included).
        base_delay: backoff before the first retry, in seconds.
        multiplier: exponential growth factor per retry.
        jitter: fraction of the delay randomized away (``0.5`` means the
            actual delay is uniform in ``[0.5 * d, d]``).
        seed: master seed for the jitter stream.
        sleep: injectable sleep function (tests pass a recorder).
    """

    def __init__(self, max_attempts: int = 3, base_delay: float = 0.01,
                 multiplier: float = 2.0, jitter: float = 0.5,
                 seed: int = 0, sleep=time.sleep):
        if max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if base_delay < 0 or multiplier < 1 or not (0.0 <= jitter <= 1.0):
            raise ConfigError(
                "base_delay must be >= 0, multiplier >= 1, jitter in [0, 1]"
            )
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.jitter = jitter
        self.seed = seed
        self._sleep = sleep

    @staticmethod
    def is_retryable(error: BaseException) -> bool:
        """The service-level retry contract (see class docstring)."""
        if isinstance(error, AdmissionError):
            return True
        return bool(getattr(error, "retryable", False))

    def delay(self, key: str, attempt: int) -> float:
        """The deterministic backoff before retry number ``attempt``."""
        raw = self.base_delay * (self.multiplier ** attempt)
        if self.jitter == 0.0:
            return raw
        rng = random.Random(f"{self.seed}:{key}:{attempt}")
        return raw * (1.0 - self.jitter * rng.random())

    def run(self, attempt_fn, deadline: Deadline | None = None,
            key: str = "", trace=None):
        """Call ``attempt_fn()`` until success or the policy gives up.

        Re-raises the last error when attempts are exhausted, the error
        is not retryable, or the deadline cannot absorb the backoff.
        ``AdmissionError.retry_after`` hints raise the backoff floor.
        """
        retries = get_registry().counter(
            "service_retries_total", "Service-level query retries, by error"
        )
        for attempt in range(self.max_attempts):
            try:
                return attempt_fn()
            except ReproError as err:
                if attempt + 1 >= self.max_attempts \
                        or not self.is_retryable(err):
                    raise
                pause = self.delay(key, attempt)
                hint = getattr(err, "retry_after", None)
                if hint is not None:
                    pause = max(pause, hint)
                if deadline is not None:
                    left = deadline.remaining()
                    if left is not None and pause >= left:
                        raise  # the backoff would outlive the budget
                trace_event(trace, "retry.backoff", attempt=attempt + 1,
                            delay=round(pause, 6),
                            error=type(err).__name__)
                retries.inc(error=type(err).__name__)
                if pause > 0:
                    self._sleep(pause)
        raise AssertionError("unreachable")  # pragma: no cover


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
        closes the breaker (and clears the count), its failure re-opens
        it for another full cool-down.

    Thread-safe; the clock is injectable for deterministic tests.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

    def __init__(self, failure_threshold: int = 2,
                 cooldown_seconds: float = 30.0, *, clock=None,
                 on_transition=None):
        if failure_threshold < 1:
            raise ConfigError("failure_threshold must be >= 1")
        if cooldown_seconds <= 0:
            raise ConfigError("cooldown_seconds must be positive")
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock if clock is not None else time.perf_counter
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
        if old != new_state and self._on_transition is not None:
            self._on_transition(old, new_state)

    def _maybe_half_open(self) -> None:
        if (self._state == self.OPEN
                and self._clock() - self._opened_at
                >= self.cooldown_seconds):
            self._transition(self.HALF_OPEN)
            self._probe_in_flight = False

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
                self._probe_in_flight = False
                self._opened_at = self._clock()
                self._transition(self.OPEN)
                return
            self._failures += count
            if (self._state == self.CLOSED
                    and self._failures >= self.failure_threshold):
                self._opened_at = self._clock()
                self._transition(self.OPEN)

    def record_success(self) -> None:
        """A successful episode; closes the breaker after a good probe."""
        with self._lock:
            self._maybe_half_open()
            if self._state == self.HALF_OPEN:
                self._probe_in_flight = False
                self._failures = 0
                self._transition(self.CLOSED)


class TierBreakerBoard:
    """Per-fingerprint circuit breakers over TurboFan bailouts.

    The plan cache consults the board before compiling a fingerprint:
    while that fingerprint's breaker is open, compilation is pinned to
    the degraded tier (Liftoff, no tier-up attempts) so the query stops
    paying the bailout on every fresh compilation episode — the
    persistent-regression case the JIT empirical study documents.

    Transitions are published as ``breaker.{open,half_open,close}``
    trace-style metrics (``breaker_transitions_total``); the service
    additionally records per-query ``breaker.*`` trace events.
    """

    def __init__(self, failure_threshold: int = 2,
                 cooldown_seconds: float = 30.0, *, clock=None):
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: dict[str, CircuitBreaker] = {}
        self._transitions = get_registry().counter(
            "breaker_transitions_total",
            "Tier circuit-breaker transitions, by new state",
        )

    def _breaker(self, fingerprint: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(fingerprint)
            if breaker is None:
                breaker = CircuitBreaker(
                    self.failure_threshold, self.cooldown_seconds,
                    clock=self._clock,
                    on_transition=lambda old, new:
                        self._transitions.inc(state=new),
                )
                self._breakers[fingerprint] = breaker
            return breaker

    def allow_tier_up(self, fingerprint: str) -> bool:
        """False while the fingerprint should stay on the cheap tier."""
        return self._breaker(fingerprint).allow()

    def record(self, fingerprint: str, bailouts: int) -> None:
        """Outcome of one compilation episode: ``bailouts`` new TurboFan
        failures (0 means the episode was clean)."""
        breaker = self._breaker(fingerprint)
        if bailouts > 0:
            breaker.record_failure(bailouts)
        else:
            breaker.record_success()

    def state(self, fingerprint: str) -> str:
        return self._breaker(fingerprint).state

    def states(self) -> dict[str, str]:
        """Snapshot of every tracked fingerprint's breaker state."""
        with self._lock:
            items = list(self._breakers.items())
        return {fp: b.state for fp, b in items}
