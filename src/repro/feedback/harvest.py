"""Turning one execution's engine measurements into an observation.

The Wasm engine records per-pipeline ``{rows_in, rows_out, morsels,
seconds}`` unconditionally (no trace needed) in the run's
:class:`~repro.engines.wasm_engine.QueryRun`.  This module pairs those
with the plan's pipeline dissection and decides, pipeline by pipeline, what each
measurement is *valid evidence for* — the part that needs care, because
the engine's counting semantics differ by pipeline shape:

* a **final** pipeline is measured by rows drained to the result,
* a pipeline sinking into a **join/sort** breaker is measured by rows
  *inserted* (its own output),
* a pipeline sinking into a **group-by** is measured by the hash
  table's *entry count* — groups, not input rows — and a scalar
  aggregate always measures 1.

So a group-by sink's measurement is comparable against the planner's
*group* estimate (Q-Error) but is never a scan-cardinality seed; a
pipeline with a LIMIT is truncated and is neither; a filtered scan
feeding a join is both a Q-Error sample and a post-filter binding seed
the optimizer can re-plan with.
"""

from __future__ import annotations

from repro.feedback.store import PipelineObservation, QueryObservation
from repro.plan import physical as P
from repro.plan.pipeline import dissect_into_pipelines, estimated_rows_out

__all__ = ["observation_from_run"]


def observation_from_run(run, plan, fp: str, catalog_version: int,
                         parameterized: bool = False,
                         ) -> QueryObservation | None:
    """Build a :class:`QueryObservation` from one run's record.

    Returns ``None`` when the run measured no pipelines (non-Wasm
    engines, folded-to-empty plans, parallel dispatch where
    measurements live in the workers).
    """
    stats = run.pipeline_stats
    if not stats:
        return None
    try:
        pipelines = dissect_into_pipelines(plan)
    except Exception:
        return None
    if len(pipelines) != len(stats):
        return None  # plan/engine disagree (defensive; never expected)

    observed = []
    root_rows = None
    for stat, pipeline in zip(stats, pipelines):
        info = _classify(pipeline)
        observation = PipelineObservation(
            function=stat["function"],
            estimated_rows=estimated_rows_out(pipeline),
            rows_out=stat["rows_out"],
            binding=info["binding"],
            join_key=info["join_key"],
            comparable=info["comparable"],
        )
        observed.append(observation)
        if pipeline.sink is None and info["comparable"]:
            root_rows = float(stat["rows_out"])

    return QueryObservation(
        fingerprint=fp,
        catalog_version=catalog_version,
        pipelines=observed,
        root_rows=root_rows,
        parameterized=parameterized,
    )


def _classify(pipeline) -> dict:
    """What this pipeline's ``rows_out`` measurement is evidence for."""
    has_limit = any(isinstance(op, P.Limit) for op in pipeline.operators)
    counts_groups = isinstance(pipeline.sink,
                               (P.HashGroupBy, P.ScalarAggregate))
    joins = [op for op in pipeline.operators
             if isinstance(op, (P.HashJoin, P.NestedLoopJoin))]

    # LIMIT truncates the count mid-stream: not comparable to the full-
    # cardinality estimate, not a seed.  Group sinks measure groups:
    # comparable to the planner's group estimate, but not a row seed.
    comparable = not has_limit

    binding = None
    if (comparable and not counts_groups and not joins
            and isinstance(pipeline.source, (P.SeqScan, P.IndexSeek))
            and any(isinstance(op, P.Filter) for op in pipeline.operators)
            and all(isinstance(op, (P.Filter, P.Project))
                    for op in pipeline.operators)):
        # rows_out is the post-filter cardinality of this one scan —
        # the seed the optimizer's base-relation candidates consume
        binding = pipeline.source.binding

    join_key = None
    if comparable and not counts_groups and joins:
        last = joins[-1]
        after = pipeline.operators[pipeline.operators.index(last) + 1:]
        if all(isinstance(op, P.Project) for op in after):
            # nothing after the last join changes cardinality: rows_out
            # is the measured output of the join over these bindings
            join_key = frozenset(col.ref[0] for col in last.output)

    return {"comparable": comparable, "binding": binding,
            "join_key": join_key}
