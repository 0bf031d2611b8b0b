"""The runtime statistics store behind feedback-driven re-planning.

The compiling engine already *measures* everything interesting about a
query it runs — per-pipeline output cardinalities — and then throws it
away.  This module keeps the last measurement.  A :class:`FeedbackStore`
records one :class:`QueryObservation` per execution, keyed exactly like
the plan cache (statement fingerprint x catalog version: any DDL or
INSERT bumps the version, so per-version observations describe frozen
data), and turns it into one decision:

* **Q-Error re-optimization** — the classic estimation-quality metric
  ``max(est/meas, meas/est)`` per pipeline.  When the worst pipeline's
  Q-Error crosses ``FeedbackConfig.q_error_threshold`` the store asks
  the service to *re-plan* the cached statement with the measured
  cardinalities injected as
  :class:`~repro.plan.cardinality.ObservedCardinalities` seeds (join
  ordering, analysis row bounds, heap sizing all consume them).

``feedback_*`` metrics and the ``feedback:`` lines EXPLAIN ANALYZE
renders make the mechanism visible per query.

A re-plan fires at most **once** per (fingerprint, catalog version):
the first execution after it produces a new compiled entry, and
flapping between plans would throw away warm tier state for nothing.
Which *tier* runs a pipeline is not decided here — that is the engine's
own morsel-wise ladder (:data:`repro.wasm.runtime.engine.TIER_LADDERS`).
The store is thread-safe — the service records observations from
concurrently running queries.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.observability.metrics import get_registry
from repro.plan.cardinality import ObservedCardinalities

__all__ = [
    "FeedbackConfig",
    "FeedbackDecision",
    "FeedbackStore",
    "PipelineObservation",
    "QueryObservation",
    "q_error",
]

def q_error(estimated: float, measured: float) -> float:
    """The Q-Error of one cardinality estimate: ``max(e/m, m/e)``.

    Both sides are clamped to ``>= 1`` first — the usual convention, so
    an estimate of 0.3 against a measurement of 0 is a perfect 1.0, not
    a division by zero — making 1.0 the best possible score and the
    metric symmetric in over- and underestimation.
    """
    estimated = max(float(estimated), 1.0)
    measured = max(float(measured), 1.0)
    return max(estimated / measured, measured / estimated)


@dataclass(frozen=True)
class FeedbackConfig:
    """Policy knobs of the feedback loop.

    Args:
        q_error_threshold: worst per-pipeline Q-Error at or above which
            the cached plan is re-planned with measured cardinalities —
            on the first execution that proves the estimate wrong
            (waiting would just run the bad plan again).  ``None``
            disables re-optimization.
        max_fingerprints: bound on tracked (fingerprint, version) pairs;
            least-recently-recorded entries are evicted beyond it.
    """

    q_error_threshold: float | None = 4.0
    max_fingerprints: int = 256

    def __post_init__(self):
        if self.q_error_threshold is not None \
                and self.q_error_threshold < 1.0:
            raise ConfigError(
                f"q_error_threshold must be >= 1.0 (1.0 is a perfect "
                f"estimate), got {self.q_error_threshold!r}"
            )
        if self.max_fingerprints < 1:
            raise ConfigError("max_fingerprints must be >= 1")


@dataclass
class PipelineObservation:
    """One pipeline of one execution, measured.

    ``estimated_rows`` is the planner's prediction of this pipeline's
    output (see :func:`~repro.plan.pipeline.estimated_rows_out` — for a
    group-by sink it predicts *groups*, matching what the engine
    measures).  The seed slots say what the measurement is valid
    evidence *for*; ``None`` means the pipeline's shape makes it
    unusable as that kind of seed (a LIMIT truncated it, a group-by
    counted groups rather than input, ...).
    """

    function: str
    estimated_rows: float
    rows_out: int
    #: ``rows_out`` is the post-filter cardinality of this scan binding.
    binding: str | None = None
    #: ``rows_out`` is the output cardinality of the join over exactly
    #: this set of bindings.
    join_key: frozenset | None = None
    #: estimate and measurement count the same thing (Q-Error is valid).
    comparable: bool = True

    @property
    def q_error(self) -> float:
        return q_error(self.estimated_rows, self.rows_out)


@dataclass
class QueryObservation:
    """Everything one execution taught us about one cached statement."""

    fingerprint: str
    catalog_version: int
    pipelines: list[PipelineObservation] = field(default_factory=list)
    #: measured result cardinality (``None`` when a LIMIT truncated it).
    root_rows: float | None = None
    #: ``$n``-parameterized statements' cardinalities vary per binding:
    #: their measurements may seed the (perf-only) optimizer but never
    #: the analysis row bounds.
    parameterized: bool = False

    @property
    def worst_q_error(self) -> float:
        errors = [p.q_error for p in self.pipelines if p.comparable]
        return max(errors) if errors else 1.0

    def seeds(self) -> ObservedCardinalities:
        return ObservedCardinalities(
            bindings={p.binding: p.rows_out for p in self.pipelines
                      if p.binding is not None},
            joins={p.join_key: p.rows_out for p in self.pipelines
                   if p.join_key is not None},
            root_rows=self.root_rows,
            parameterized=self.parameterized,
        )


@dataclass
class FeedbackDecision:
    """What the store wants done after recording one observation."""

    #: rebuild the cached entry, re-planned with observed cardinality
    #: seeds.
    replan: bool = False
    #: the worst per-pipeline Q-Error of the recorded execution.
    q_error: float = 1.0
    #: the pipeline function with that worst Q-Error (when comparable).
    pipeline: str | None = None


class _Tracked:
    """Mutable per-(fingerprint, version) state; guarded by the store."""

    __slots__ = ("last", "replanned", "executions")

    def __init__(self, last: QueryObservation):
        self.last = last
        self.replanned = False
        self.executions = 0


class FeedbackStore:
    """Thread-safe runtime statistics keyed like the plan cache."""

    def __init__(self, config: FeedbackConfig | None = None):
        self.config = config if config is not None else FeedbackConfig()
        self._lock = threading.Lock()
        self._tracked: OrderedDict[tuple, _Tracked] = OrderedDict()
        registry = get_registry()
        self._observations = registry.counter(
            "feedback_observations_total",
            "Executions recorded by the feedback store",
        )
        self._replans = registry.counter(
            "feedback_replans_total",
            "Plans invalidated for Q-Error re-optimization",
        )
        self._q_error = registry.histogram(
            "feedback_q_error",
            "Worst per-pipeline Q-Error per recorded execution",
        )

    # -- recording ---------------------------------------------------------

    def record(self, observation: QueryObservation) -> FeedbackDecision:
        """Record one execution; returns what should happen next.

        ``replan`` asks the caller to rebuild the statement's plan-cache
        entry with observed-cardinality seeds.  It fires at most once
        per (fingerprint, catalog version).
        """
        decision = FeedbackDecision(q_error=observation.worst_q_error)
        for pipeline in observation.pipelines:
            if pipeline.comparable \
                    and pipeline.q_error == decision.q_error:
                decision.pipeline = pipeline.function
                break
        key = (observation.fingerprint, observation.catalog_version)
        with self._lock:
            tracked = self._tracked.get(key)
            if tracked is None:
                tracked = self._tracked[key] = _Tracked(observation)
            self._tracked.move_to_end(key)
            while len(self._tracked) > self.config.max_fingerprints:
                self._tracked.popitem(last=False)
            tracked.executions += 1
            tracked.last = observation

            threshold = self.config.q_error_threshold
            if (threshold is not None and not tracked.replanned
                    and decision.q_error >= threshold
                    and bool(observation.seeds())):
                tracked.replanned = True
                decision.replan = True
        self._observations.inc()
        self._q_error.observe(decision.q_error)
        if decision.replan:
            self._replans.inc()
        return decision

    # -- what the next compilation consumes --------------------------------

    def observed_seeds(self, fp: str,
                       catalog_version: int) -> ObservedCardinalities | None:
        """Measured cardinalities for planning ``fp`` at this catalog
        version, or ``None`` until :meth:`record` decided to re-plan.

        Seeds are gated on the replan decision rather than mere
        existence: a plan whose estimates were fine keeps its
        estimates."""
        with self._lock:
            tracked = self._tracked.get((fp, catalog_version))
            if tracked is None or not tracked.replanned:
                return None
            seeds = tracked.last.seeds()
            return seeds if seeds else None

    # -- observability -----------------------------------------------------

    def explain_lines(self, fp: str, catalog_version: int) -> list[str]:
        """``feedback:`` lines for EXPLAIN ANALYZE — the statement's
        last observation and the decision in force."""
        with self._lock:
            tracked = self._tracked.get((fp, catalog_version))
            if tracked is None:
                return []
            lines = [
                f"feedback: observations={tracked.executions} "
                f"q_error={tracked.last.worst_q_error:.2f}"
            ]
            if tracked.replanned:
                lines.append(
                    "feedback: re-planned with observed cardinalities "
                    f"({tracked.last.seeds().describe()})"
                )
            return lines

    def stats(self) -> dict:
        """Point-in-time snapshot (tests, the bench harness artifact)."""
        with self._lock:
            fingerprints = {}
            for (fp, version), tracked in self._tracked.items():
                fingerprints[f"{fp} @v{version}"] = {
                    "executions": tracked.executions,
                    "q_error": tracked.last.worst_q_error,
                    "replanned": tracked.replanned,
                    # always empty; benchmarks/ledger/layers.py reads it
                    "route": {},
                }
            return {
                "tracked": len(self._tracked),
                "fingerprints": fingerprints,
            }

    def prune(self, current_version: int) -> int:
        """Drop observations of superseded catalog versions (their keys
        can never be looked up again); returns how many were dropped."""
        with self._lock:
            stale = [key for key in self._tracked
                     if key[1] != current_version]
            for key in stale:
                del self._tracked[key]
            return len(stale)
