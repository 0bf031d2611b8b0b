"""Aggregate accumulation shared by the interpreting engines.

A state is the flat list of every aggregate's :class:`StateField`
accumulators, in order; what each field does is its row of
:data:`~repro.plan.exprs.AGGREGATES`.
"""

from __future__ import annotations

from repro.plan.exprs import Aggregate

__all__ = ["new_states", "update_states", "finalize_states"]


def new_states(aggregates: list[Aggregate]) -> list:
    """Every aggregate's state fields at their identities."""
    return [f.identity(f.acc_type(agg))
            for agg in aggregates for f in agg.row.fields]


def update_states(states: list, aggregates: list[Aggregate], values: list):
    """Fold one input row's aggregate argument values into the states."""
    j = 0
    for agg, value in zip(aggregates, values):
        for f in agg.row.fields:
            states[j] = f.step(states[j], value)
            j += 1


def finalize_states(states: list, aggregates: list[Aggregate]) -> list:
    """Accumulators -> output values (storage representation)."""
    out = []
    j = 0
    for agg in aggregates:
        row = agg.row
        n = len(row.fields)
        out.append(row.finalize(states[j:j + n], agg.scale))
        j += n
    return out
