"""``EXPLAIN ANALYZE``: the physical plan annotated with observed stats.

The renderer consumes a :class:`~repro.observability.trace.QueryTrace`
recorded during a real execution and folds it back onto the plan:

* per **pipeline** — morsel count, rows handed to the sink (or the
  result), and execution time split by the tier that actually ran each
  morsel (the paper's adaptive story, made visible per query);
* per **tier** — functions compiled, tier-ups and their failures,
  bounds checks the interval analysis elided, and one line per tier-up
  decision with the meter reading that triggered it;
* per **phase** — parse, analyze, plan, translation (with per-pipeline
  codegen), validation, lint, per-tier compilation, execution.

All numbers derive from trace events, so an ``EXPLAIN ANALYZE`` under a
:class:`~repro.observability.trace.FakeClock` is fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.wasm.runtime.engine import COMPILED_TIERS, TIERS

__all__ = [
    "PipelineStats",
    "pipeline_stats_from_trace",
    "render_explain_analyze",
]

#: Phase span kinds rendered in the summary line, in lifecycle order.
_PHASE_KINDS = (
    "parse", "analyze", "plan", "plan.analysis", "plan.lint",
    "translation", "validate", "lint",
    *(TIERS[tier].span for tier in COMPILED_TIERS), "execution",
)

#: Execution tiers in ladder order; the ``tiers:`` line is data-driven
#: over whichever ``<tier>_functions`` attributes the trace's
#: ``tier_stats`` event actually carries, so a new tier shows up by
#: being a row of the runtime's tier table, not by editing the renderer.
_TIER_ORDER = COMPILED_TIERS


@dataclass
class PipelineStats:
    """Observed execution statistics of one pipeline."""

    index: int
    function: str = ""
    source: str = ""
    description: str = ""
    morsels: int = 0
    #: Rows this pipeline handed to its sink (hash-table entries, sort
    #: rows) or, for the final pipeline, rows delivered to the result.
    rows_out: int | None = None
    #: The planner's estimate of ``rows_out`` (set when the plan
    #: dissection is available) — rendered as ``est=`` next to the
    #: measured rows, so misestimates are visible per pipeline.
    est: float | None = None
    tier_morsels: dict[str, int] = field(default_factory=dict)
    tier_seconds: dict[str, float] = field(default_factory=dict)
    rewires: int = 0
    #: Backend operator-shape descriptor (the stencil-cache key's
    #: plan-level counterpart); empty when the engine doesn't report one.
    shape: str = ""


def pipeline_stats_from_trace(trace, pipelines=None) -> list[PipelineStats]:
    """Fold a trace's pipeline/morsel/rewire events into per-pipeline stats.

    ``pipelines`` (the plan dissection) is optional; when given, each
    stat gets the pipeline's human-readable ``describe()`` string.
    """
    stats: dict[int, PipelineStats] = {}

    def stat_for(index) -> PipelineStats:
        if index not in stats:
            stats[index] = PipelineStats(index=index)
        return stats[index]

    for event in trace.events:
        if event.kind == "pipeline":
            stat = stat_for(event.attrs["pipeline"])
            stat.function = event.attrs.get("function", stat.function)
            stat.source = event.attrs.get("source", stat.source)
            if "morsels" in event.attrs:
                stat.morsels = event.attrs["morsels"]
            if "rows_out" in event.attrs:
                stat.rows_out = event.attrs["rows_out"]
        elif event.kind == "morsel":
            stat = stat_for(event.attrs.get("pipeline"))
            tier = event.attrs.get("tier") or "?"
            stat.tier_morsels[tier] = stat.tier_morsels.get(tier, 0) + 1
            stat.tier_seconds[tier] = (
                stat.tier_seconds.get(tier, 0.0) + event.duration
            )
        elif event.kind == "rewire.chunk":
            stat = stat_for(event.attrs.get("pipeline"))
            stat.rewires += 1

    if pipelines is not None:
        from repro.plan.pipeline import estimated_rows_out

        for pipeline in pipelines:
            if pipeline.index in stats:
                stats[pipeline.index].description = pipeline.describe()
                stats[pipeline.index].est = estimated_rows_out(pipeline)
    return [stats[index] for index in sorted(stats)]


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.3f}ms"


def _tier_up_lines(trace) -> list[str]:
    """One line per tier-up decision of this execution, in event order:
    which function moved between which rungs and what its meter read —
    time spent against the estimated compile time."""
    lines = []
    for event in trace.events:
        if event.kind not in ("tier_up", "tier_up.failure"):
            continue
        attrs = event.attrs
        label = "tier-up" if event.kind == "tier_up" else "tier-up failed"
        function = attrs.get("name") or f"function {attrs.get('function')}"
        lines.append(f"  {label}: {function} {attrs['from_tier']}"
                     f"->{attrs['to_tier']} spent={attrs['spent_ms']:.3f}ms "
                     f"est-compile={attrs['estimated_compile_ms']:.3f}ms")
    return lines


def render_explain_analyze(plan, trace, stats: list[PipelineStats],
                           engine_spec: str,
                           total_rows: int | None = None,
                           cache: str | None = None,
                           feedback_lines: list[str] | None = None,
                           ) -> list[str]:
    """The annotated plan as text lines (one per output row).

    ``cache`` is the plan-cache disposition of this execution —
    ``"hit"`` or ``"miss"`` — when the query ran through the query
    service; ``None`` (standalone execution) omits the line.
    ``feedback_lines`` are the feedback store's ``feedback:`` lines for
    this statement (observation count, worst Q-Error, the re-plan
    decision in force), rendered after the tier summary.
    """
    from repro.plan.physical import explain_physical

    lines = [f"EXPLAIN ANALYZE (engine={engine_spec})"]
    if cache is not None:
        lines.append(f"cache: {cache}")
    lines.extend(explain_physical(plan).split("\n"))

    analysis = getattr(plan, "analysis", None)
    if analysis is not None:
        derived = analysis.describe()
        if derived:
            lines.append("analysis:")
            lines.extend(f"  {line}" for line in derived)

    if stats:
        lines.append("pipelines:")
        for stat in stats:
            header = stat.description or f"P{stat.index}: {stat.function}"
            lines.append(f"  {header}")
            detail = [f"morsels={stat.morsels}"]
            if stat.rows_out is not None:
                detail.append(f"rows={stat.rows_out}")
                if stat.est is not None:
                    detail.append(f"est={stat.est:g}")
            if stat.rewires:
                detail.append(f"rewires={stat.rewires}")
            for tier in sorted(stat.tier_morsels):
                detail.append(
                    f"{tier}={stat.tier_morsels[tier]} morsel(s)"
                    f"/{_ms(stat.tier_seconds.get(tier, 0.0))}"
                )
            lines.append("    " + "  ".join(detail))
            if stat.shape:
                lines.append(f"    shape: {stat.shape}")

    tier_events = trace.find("tier_stats")
    if tier_events:
        attrs = tier_events[-1].attrs
        parts = [
            f"{tier}={attrs[f'{tier}_functions']} fn"
            for tier in _TIER_ORDER if f"{tier}_functions" in attrs
        ]
        parts.append(
            f"tier-ups={attrs.get('tier_ups', 0)} "
            f"(failures={attrs.get('tier_up_failures', 0)}) "
            f"bounds-checks-elided={attrs.get('bounds_checks_elided', 0)}"
        )
        if "stencil_cache_hits" in attrs:
            parts.append(
                f"stencil-cache={attrs['stencil_cache_hits']} hit(s)"
                f"/{attrs.get('stencil_cache_misses', 0)} miss(es)"
            )
        if "loops_prefiltered" in attrs:
            parts.append(
                f"prefiltered={attrs['loops_prefiltered']} loop(s) "
                f"kept {attrs['prefilter_rows_kept']}"
                f"/{attrs['prefilter_rows_seen']} row(s)"
            )
        lines.append("tiers: " + " ".join(parts))
        lines.extend(_tier_up_lines(trace))

    if feedback_lines:
        lines.extend(feedback_lines)

    phases = [
        f"{kind}={_ms(trace.total_seconds(kind))}"
        for kind in _PHASE_KINDS if trace.find(kind)
    ]
    if phases:
        lines.append("phases: " + " ".join(phases))
    if total_rows is not None:
        lines.append(f"result: {total_rows} row(s)")
    return lines
