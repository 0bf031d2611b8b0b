"""Feedback-driven re-planning: measure, remember, re-plan.

The paper's engine adapts *within* one execution (morsel-wise tier-up);
which tier runs a pipeline is decided there and nowhere else.  This
package closes one loop *across* executions: a :class:`FeedbackStore`
records what the last run of a cached statement actually measured,
detects misestimates by Q-Error, and asks for one re-plan with observed
cardinalities (:class:`~repro.plan.cardinality.ObservedCardinalities`).
"""

from repro.feedback.harvest import observation_from_run
from repro.feedback.store import (
    FeedbackConfig,
    FeedbackDecision,
    FeedbackStore,
    PipelineObservation,
    QueryObservation,
    q_error,
)

__all__ = [
    "FeedbackConfig",
    "FeedbackDecision",
    "FeedbackStore",
    "PipelineObservation",
    "QueryObservation",
    "observation_from_run",
    "q_error",
]
