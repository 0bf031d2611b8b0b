"""Unit tests for the resilience primitives (deadline, token,
breaker) on injected clocks — no threads, no engine."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import ConfigError, QueryCancelled
from repro.robustness import resilience
from repro.robustness.resilience import CancelToken, CircuitBreaker, Deadline


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_unlimited_never_expires(self):
        d = Deadline.never()
        assert d.remaining() is None
        assert not d.expired
        assert d.clamp(1.5) == 1.5

    def test_budget_debits_on_the_shared_clock(self):
        clock = FakeClock()
        d = Deadline(1.0, clock=clock)
        assert d.remaining() == pytest.approx(1.0)
        clock.advance(0.6)
        assert d.remaining() == pytest.approx(0.4)
        assert d.clamp(2.0) == pytest.approx(0.4)
        clock.advance(0.5)
        assert d.expired
        assert d.remaining() == 0.0

    def test_tighten_takes_the_earlier_expiry(self):
        clock = FakeClock()
        d = Deadline(10.0, clock=clock)
        tighter = d.tighten(1.0)
        assert tighter.remaining() == pytest.approx(1.0)
        # a looser per-query timeout never extends the session budget
        assert d.tighten(60.0) is d
        assert Deadline.never(clock=clock).tighten(2.0).remaining() \
            == pytest.approx(2.0)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ConfigError):
            Deadline(0.0)
        with pytest.raises(ConfigError):
            Deadline(-1.0)


class TestCancelToken:
    def test_one_shot(self):
        token = CancelToken(query_id=7)
        assert not token.cancelled
        token.raise_if_cancelled()  # no-op while live
        assert token.cancel("first") is True
        assert token.cancel("second") is False
        assert token.reason == "first"

    def test_raise_carries_structured_context(self):
        token = CancelToken(query_id=7)
        token.cancel("operator said so")
        with pytest.raises(QueryCancelled) as info:
            token.raise_if_cancelled(phase="execution",
                                     pipeline_index=2, morsel=5)
        err = info.value
        assert err.query_id == 7
        assert err.reason == "operator said so"
        assert err.phase == "execution"
        assert err.pipeline_index == 2
        assert err.morsel == 5
        assert not err.retryable  # a cancelled query must not be retried

    def test_callbacks_fire_once_even_when_registered_late(self):
        token = CancelToken()
        fired = []
        token.on_cancel(lambda: fired.append("early"))
        token.cancel()
        token.on_cancel(lambda: fired.append("late"))
        token.cancel()
        assert fired == ["early", "late"]


@pytest.fixture()
def clock(monkeypatch) -> FakeClock:
    """The breakers' clock, standing still until a test advances it."""
    fake = FakeClock()
    monkeypatch.setattr(resilience, "_clock", fake)
    return fake


class TestCircuitBreaker:
    def test_failures_accumulate_without_reset_on_success(self, clock):
        # bailouts happen once per compile episode, interleaved with
        # cheap successful runs — consecutive-failure semantics would
        # never trip, so successes must NOT clear the count while closed
        breaker = CircuitBreaker(failure_threshold=2, cooldown_seconds=5.0)
        breaker.record_failure()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.failures == 1
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_half_open_single_probe_then_close(self, clock):
        transitions = []
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=5.0,
            on_transition=lambda old, new: transitions.append((old, new)),
        )
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow() is True      # the probe
        assert breaker.allow() is False     # everyone else keeps degrading
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()
        assert transitions == [("closed", "open"), ("open", "half_open"),
                               ("half_open", "closed")]

    def test_failed_probe_reopens_for_a_full_cooldown(self, clock):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=5.0)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()            # the probe failed
        assert breaker.state == CircuitBreaker.OPEN
        clock.advance(4.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.allow()


class BreakerModel:
    """The documented transitions of :class:`CircuitBreaker`, restated
    on a clock the machine below owns."""

    THRESHOLD, COOLDOWN = 2, 5.0

    def __init__(self, clock: FakeClock):
        self.clock, self.state, self.failures = clock, "closed", 0
        self.opened_at, self.probe, self.transitions = 0.0, False, []

    def go(self, state: str) -> None:
        self.transitions.append((self.state, state))
        self.state, self.probe = state, False
        self.opened_at = self.clock.now

    def settle(self) -> None:
        if self.state == "open" \
                and self.clock.now - self.opened_at >= self.COOLDOWN:
            self.go("half_open")

    def allow(self) -> bool:
        self.settle()
        grant = self.state == "closed" or (self.state == "half_open"
                                           and not self.probe)
        self.probe |= self.state == "half_open"
        return grant

    def failure(self, count: int) -> None:
        self.settle()
        if self.state == "half_open":
            return self.go("open")
        self.failures += count
        if self.state == "closed" and self.failures >= self.THRESHOLD:
            self.go("open")

    def success(self) -> None:
        self.settle()
        if self.state == "half_open":
            self.failures = 0
            self.go("closed")

    def abandon_probe(self) -> None:
        self.settle()
        if self.state == "half_open" and self.probe:
            self.go("open")


class BreakerMachine(RuleBasedStateMachine):
    """Random interleavings of the breaker's inputs against the model:
    same answers from ``allow``, same state, count and transitions."""

    def __init__(self):
        super().__init__()
        self.clock = FakeClock()
        self.real_clock, resilience._clock = resilience._clock, self.clock
        self.model = BreakerModel(self.clock)
        self.transitions: list = []
        self.breaker = CircuitBreaker(
            BreakerModel.THRESHOLD, BreakerModel.COOLDOWN,
            on_transition=lambda old, new:
                self.transitions.append((old, new)),
        )

    def teardown(self):
        resilience._clock = self.real_clock

    @rule()
    def allow(self):
        assert self.breaker.allow() == self.model.allow()

    @rule(count=st.integers(1, 3))
    def failure(self, count):
        self.breaker.record_failure(count)
        self.model.failure(count)

    @rule()
    def success(self):
        self.breaker.record_success()
        self.model.success()

    @rule()
    def abandoned_probe(self):
        self.breaker.abandon_probe()
        self.model.abandon_probe()

    @rule(seconds=st.sampled_from([0.5, BreakerModel.COOLDOWN - 0.5,
                                   BreakerModel.COOLDOWN, 12.0]))
    def advance(self, seconds):
        self.clock.advance(seconds)

    @invariant()
    def agrees_with_the_model(self):
        state = self.breaker.state
        self.model.settle()
        assert state == self.model.state
        assert self.breaker.failures == self.model.failures
        assert self.transitions == self.model.transitions


TestBreakerMachine = BreakerMachine.TestCase
TestBreakerMachine.settings = settings(max_examples=150,
                                       stateful_step_count=30,
                                       deadline=None)
