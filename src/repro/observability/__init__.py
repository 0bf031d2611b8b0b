"""Query observability: structured traces, metrics, ``EXPLAIN ANALYZE``.

Three cooperating layers make the engine's temporal behaviour — the
substance of the paper's claims — inspectable:

* :mod:`repro.observability.trace` — a per-query :class:`QueryTrace` of
  timestamped, typed span/event records with an injectable monotonic
  clock (deterministic under :class:`FakeClock`);
* :mod:`repro.observability.metrics` — the process-wide
  :data:`REGISTRY` of counters, gauges, and fixed-bucket histograms
  that every subsystem publishes into, exportable as a dict or in
  Prometheus text format;
* :mod:`repro.observability.explain` — the ``EXPLAIN ANALYZE``
  renderer: the physical plan annotated with per-pipeline morsel
  counts, rows produced, and per-tier timings read back from a trace.

Trace event taxonomy (the kinds producers emit):

==========================  =================================================
``parse``/``analyze``/      frontend and planning phases (spans, emitted by
``plan``                    :class:`~repro.db.Database`)
``translation``             plan -> Wasm translation span, containing one
``codegen.pipeline``        span per generated pipeline function
``validate``/``lint``       module checks inside the engine
``compile.<tier>``          per-tier compilation spans (``functions`` attr at
                            instantiation, ``function`` at a promotion); the
                            kinds are the ``span`` column of the runtime's
                            tier table (``compile.interpreter`` binds only)
``engine.attempt``          one execution attempt starts (``engine`` attr)
``engine.attempt_failed``   ... and failed; the fallback chain advances
``execution``               the morsel-driving span
``pipeline``                one pipeline's span (``morsels``, ``rows_out``)
``morsel``                  one morsel invocation (``pipeline``, ``morsel``,
                            ``begin``, ``end``, ``tier`` that ran it)
``tier_up``                 adaptive recompilation patched in optimized code
                            (``elided`` bounds checks, ``prefiltered`` loops
                            of the function that moved)
``tier_up.failure``         a tier's compile failed (at instantiation or at a
                            promotion); the function is pinned to the rung
                            the tier table says it lands on
``rewire.chunk``            the host re-wired the next chunk of a windowed
                            table (Figure 5)
``governor.check``          a budget check ran (only when budgets are set)
``governor.exhausted``      ... and aborted the query
``fault.injected``          a seeded fault fired (``site`` attr)
``tier_stats``              end-of-query tier accounting snapshot; where
                            TurboFan split a filtered-scan loop also
                            ``loops_prefiltered`` and this run's
                            ``prefilter_rows_seen``/``prefilter_rows_kept``
==========================  =================================================
"""

from repro.observability.explain import (
    PipelineStats,
    pipeline_stats_from_trace,
    render_explain_analyze,
)
from repro.observability.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    get_registry,
)
from repro.observability.trace import (
    FakeClock,
    QueryTrace,
    TraceEvent,
    trace_event,
    trace_span,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "FakeClock",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PipelineStats",
    "QueryTrace",
    "REGISTRY",
    "TraceEvent",
    "get_registry",
    "pipeline_stats_from_trace",
    "render_explain_analyze",
    "trace_event",
    "trace_span",
]
