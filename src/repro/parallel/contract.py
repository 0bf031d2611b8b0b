"""The parallel-safety contract: which plans may be partitioned, how.

Workers execute the *complete* compiled query, with exactly one
pipeline's :class:`~repro.plan.physical.SeqScan` clamped to a row range
(the partition).  Non-partitioned pipelines — join builds, constant
subplans — run redundantly in every worker, which is always correct
(the build side sees all rows regardless of how the probe side is
split).  The driver then merges the partitions' *storage-level* rows:

``concat``
    The final pipeline streams straight from the partitioned scan
    (filters, projections, probed joins in between are all
    tuple-at-a-time).  Concatenating partition outputs in partition
    order reproduces the sequential scan order byte-identically.

``group`` / ``scalar``
    The final pipeline iterates a :class:`HashGroupBy` /
    :class:`ScalarAggregate` whose *input* pipeline is partitioned.
    Each worker produces partial groups; the driver combines them
    key-by-key with engine-exact arithmetic (see
    :mod:`repro.parallel.merge`) and finalizes once.

Everything the contract cannot *prove* safe degrades to ``whole`` —
ship the untouched query to a single worker (still off the driver's
GIL, trivially bit-identical) — or ``local`` (not worth dispatching at
all, e.g. folded-empty plans).

Safety rules enforced here, each with a recorded reason:

* partitioned scans must be ``SeqScan`` (an ``IndexSeek`` range is not
  a row range);
* aggregate merging requires an ``order_free`` row of
  :data:`~repro.plan.exprs.AGGREGATES` whose state is one field, so a
  worker's finalized row *is* its partial state: COUNT, integer/decimal
  SUM (i64 wraparound), MIN/MAX.  Float SUM is rejected (float addition
  is not associative, and byte-identical results are the contract);
  AVG ships whole because its state is two fields (sum and count) and
  workers ship finalized rows;
* nothing may post-process the merge boundary except a pure
  slot-projection (a ``HAVING`` filter over partial groups, a Sort, or
  a Limit between partitions would observe partial state);
* the slot-projection is stripped from the plan workers run, so the
  driver merges *full* breaker rows (keys + every aggregate) — merging
  projected rows would conflate distinct groups whose keys were
  projected away.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.plan import physical as P
from repro.plan.exprs import Slot
from repro.plan.pipeline import dissect_into_pipelines

__all__ = ["ParallelDecision", "plan_contract"]

@dataclass
class ParallelDecision:
    """How (whether) a physical plan executes across workers.

    Attributes:
        mode: ``"partitioned"`` (split one scan, merge partials),
            ``"whole"`` (one worker runs the query untouched), or
            ``"local"`` (do not dispatch).
        reason: why this mode was chosen (surfaced in EXPLAIN).
        table_name / binding: the partitioned scan, when partitioned.
        merge: ``"concat"`` | ``"group"`` | ``"scalar"``.
        key_count: leading merged-row fields that are group keys.
        agg_kinds: aggregate kind per trailing merged-row field.
        agg_float: whether each aggregate's storage value is a float
            (min/max via float compare, never summed).
        projection: slot indexes the driver applies after merging, or
            ``None`` when the plan's own output is the merge layout.
        worker_plan: the plan workers execute — the original root, or
            the root with a trailing pure slot-projection stripped.
    """

    mode: str
    reason: str
    table_name: str | None = None
    binding: str | None = None
    merge: str = "concat"
    key_count: int = 0
    agg_kinds: list[str] = field(default_factory=list)
    agg_float: list[bool] = field(default_factory=list)
    projection: list[int] | None = None
    worker_plan: P.PhysicalOperator | None = None
    #: Filled by the executor: pickled worker plan + its content hash
    #: (the hash keys worker-side executable caches).
    plan_bytes: bytes | None = None
    fingerprint: str | None = None

    @property
    def partitioned(self) -> bool:
        return self.mode == "partitioned"


def _local(reason: str) -> ParallelDecision:
    return ParallelDecision(mode="local", reason=reason)


def _whole(reason: str) -> ParallelDecision:
    return ParallelDecision(mode="whole", reason=reason)


def _slot_projection(op: P.Project) -> list[int] | None:
    """The slot mapping of a pure projection, or None if impure."""
    slots = []
    for expr in op.exprs:
        if not isinstance(expr, Slot):
            return None
        slots.append(expr.index)
    return slots


def _aggregate_safety(aggregates) -> str | None:
    """Why these aggregates cannot be merged, or None if they can."""
    for agg in aggregates:
        row = agg.row
        if len(row.fields) != 1:
            return (f"{agg.kind} state is {len(row.fields)} fields;"
                    f" workers ship finalized rows")
        if not row.order_free:
            return f"float {agg.kind} is not associative"
    return None


def plan_contract(plan: P.PhysicalOperator) -> ParallelDecision:
    """Decide how ``plan`` may execute across worker processes."""
    if isinstance(plan, P.EmptyResult):
        return _local("plan folded to empty result")

    pipelines = dissect_into_pipelines(plan)
    if not pipelines:
        return _local("no pipelines")
    final = pipelines[-1]
    if final.sink is not None:  # pragma: no cover - dissection invariant
        decision = _whole("final pipeline has a sink")
    else:
        breaker = final.source
        if isinstance(breaker, (P.HashGroupBy, P.ScalarAggregate)):
            decision = _aggregate_contract(plan, pipelines, final, breaker)
        elif isinstance(breaker, P.Sort):
            decision = _whole("Sort requires a global order")
        else:
            decision = _concat_contract(plan, final)
    if decision.mode == "whole":
        decision.worker_plan = plan  # ship the query untouched
    return decision


def _concat_contract(plan, final) -> ParallelDecision:
    if not isinstance(final.source, P.SeqScan):
        return _whole(
            f"final pipeline streams from "
            f"{type(final.source).__name__}, not a SeqScan"
        )
    for op in final.operators:
        if isinstance(op, (P.Limit, P.Sort)):
            return _whole(
                f"{type(op).__name__} cannot span partitions"
            )
    scan = final.source
    return ParallelDecision(
        mode="partitioned",
        reason=f"concat-merge over scan of {scan.table_name}",
        table_name=scan.table_name,
        binding=scan.binding,
        merge="concat",
        worker_plan=plan,
    )


def _aggregate_contract(plan, pipelines, final, breaker) -> ParallelDecision:
    why = _aggregate_safety(breaker.aggregates)
    if why is not None:
        return _whole(why)

    # Nothing but a pure slot-projection may sit between the breaker
    # and the result: a HAVING filter, Sort, or Limit here would see
    # *partial* groups.
    projection = None
    if len(final.operators) == 1 and isinstance(final.operators[0],
                                                P.Project):
        projection = _slot_projection(final.operators[0])
        if projection is None:
            return _whole("result projection computes over groups")
    elif final.operators:
        kinds = ", ".join(type(op).__name__ for op in final.operators)
        return _whole(f"{kinds} between aggregation and result")

    # The pipeline that fills the breaker is the one we partition.
    feeding = [p for p in pipelines if p.sink is breaker]
    if len(feeding) != 1:  # pragma: no cover - dissection invariant
        return _whole("ambiguous aggregation input pipeline")
    if not isinstance(feeding[0].source, P.SeqScan):
        return _whole(
            f"aggregation input streams from "
            f"{type(feeding[0].source).__name__}, not a SeqScan"
        )
    for op in feeding[0].operators:
        if isinstance(op, (P.Limit, P.Sort)):
            return _whole(
                f"{type(op).__name__} below aggregation cannot "
                f"span partitions"
            )
    scan = feeding[0].source

    if isinstance(breaker, P.HashGroupBy):
        merge = "group"
        key_count = len(breaker.keys)
    else:
        merge = "scalar"
        key_count = 0
    # Workers run the plan rooted at the breaker: the driver needs the
    # full key+aggregate rows to merge, and applies `projection` after.
    worker_plan = breaker if projection is not None else plan
    return ParallelDecision(
        mode="partitioned",
        reason=f"{merge}-merge over scan of {scan.table_name}",
        table_name=scan.table_name,
        binding=scan.binding,
        merge=merge,
        key_count=key_count,
        agg_kinds=[agg.kind for agg in breaker.aggregates],
        agg_float=[agg.ty.is_floating for agg in breaker.aggregates],
        projection=projection,
        worker_plan=worker_plan,
    )
