"""Shared pytest configuration: per-test timeout cap and the chaos marker.

Tier-1 runs with a 120 s per-test wall-clock cap so that a hung query
(the exact failure class the robustness layer exists to prevent) fails
fast instead of stalling CI.  When the ``pytest-timeout`` plugin is
installed it provides the cap; this conftest carries a minimal
SIGALRM-based fallback so the cap holds on bare environments too, with
the same ``timeout`` ini key and ``@pytest.mark.timeout(N)`` marker.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager

import pytest

import repro.wasm.runtime.engine as engine_module

try:
    import pytest_timeout  # noqa: F401
    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False


def pytest_addoption(parser):
    if not _HAVE_PYTEST_TIMEOUT:
        parser.addini(
            "timeout",
            "per-test timeout in seconds (built-in SIGALRM fallback, "
            "used when pytest-timeout is not installed)",
            default="",
        )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "chaos: deterministic fault-injection tests "
        "(run only these with -m chaos, skip with -m 'not chaos')",
    )
    config.addinivalue_line(
        "markers",
        "stress: multi-threaded query-service stress tests "
        "(run only these with -m stress, skip with -m 'not stress')",
    )
    if not _HAVE_PYTEST_TIMEOUT:
        config.addinivalue_line(
            "markers",
            "timeout(seconds): per-test wall-clock cap "
            "(SIGALRM fallback implementation)",
        )


def _timeout_seconds(item) -> float | None:
    marker = item.get_closest_marker("timeout")
    if marker is not None and marker.args:
        return float(marker.args[0])
    ini = item.config.getini("timeout")
    return float(ini) if ini else None


if not _HAVE_PYTEST_TIMEOUT:

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_call(item):
        seconds = _timeout_seconds(item)
        usable = (
            seconds
            and hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread()
        )
        if not usable:
            return (yield)

        def on_alarm(signum, frame):
            pytest.fail(
                f"Timeout: test exceeded the {seconds:g}s cap", pytrace=False
            )

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return (yield)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


# -- deterministic tier-ups ---------------------------------------------------

class _PinnedRates(engine_module.CompileRates):
    """The real running mean, except for tiers a test pinned."""

    def __init__(self):
        super().__init__()
        self.pinned: dict[str, float] = {}

    def estimate(self, tier: str, instructions: int) -> float:
        if tier in self.pinned:
            return self.pinned[tier]
        return super().estimate(tier, instructions)


class TierClock:
    """The tier-up meter's clock, driven by the test.

    ``now`` moves only when the test moves it, plus ``step`` seconds at
    every reading — so with a step, each metered call that makes no
    metered calls itself measures exactly one step.  ``rates`` are the
    compile rates the engine sees while the fixture is active: fresh
    (seeded) ones, so nothing leaks between tests.
    """

    def __init__(self):
        self.now = 0.0
        self.step = 0.0
        self.rates = _PinnedRates()

    def __call__(self) -> float:
        self.now += self.step
        return self.now

    def promote_after(self, **calls: int) -> None:
        """Make tier-ups a matter of counting: every clock reading is a
        second apart and compiling for ``tier`` is estimated at
        ``calls[tier]`` seconds whatever the function's size, so a
        function is promoted to ``tier`` by the first call after the
        ``calls[tier]`` it has run.  (A call that makes metered calls
        of its own counts for more than one.)"""
        self.step = 1.0
        self.rates.pinned = {tier: float(n) for tier, n in calls.items()}


@contextmanager
def installed_tier_clock():
    """Replace the engine module's one clock name and its process-wide
    compile rates with a fresh :class:`TierClock` inside the block."""
    clock = TierClock()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "_clock", clock)
        patch.setattr(engine_module, "compile_rates", clock.rates)
        yield clock


@pytest.fixture()
def tier_clock():
    """The one way tests get deterministic tier-ups (a wider-scoped
    fixture uses :func:`installed_tier_clock` itself)."""
    with installed_tier_clock() as clock:
        yield clock
