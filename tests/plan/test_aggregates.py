"""Properties of the ``AGGREGATES`` table every engine reads."""

from functools import reduce

from hypothesis import given, settings, strategies as st

from repro.plan.exprs import AGGREGATES, wrap64
from repro.sql import types as T

I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1
i64 = st.one_of(st.integers(I64_MIN, I64_MAX),
                st.sampled_from([I64_MIN, I64_MAX, 0, -1, 1, 2**53]))


def fold(row, values):
    """One partition's state as the Wasm engine leaves it: each field
    folded from its identity, held as an i64."""
    state = []
    for f in row.fields:
        acc = f.identity(T.INT64)
        for v in values:
            acc = f.step(acc, v)
        state.append(wrap64(acc))
    return state


def bits(value):
    return value.hex() if isinstance(value, float) else value


def test_only_float_sums_are_order_dependent():
    assert {key for key, row in AGGREGATES.items() if not row.order_free} \
        == {("SUM", False), ("AVG", False)}


@settings(max_examples=200, deadline=None)
@given(values=st.lists(i64, max_size=40),
       cuts=st.lists(st.integers(0, 40), max_size=4))
def test_order_free_rows_combine_to_the_sequential_fold(values, cuts):
    bounds = [0] + sorted(min(c, len(values)) for c in cuts) + [len(values)]
    chunks = [values[a:b] for a, b in zip(bounds, bounds[1:])]
    for row in {id(r): r for r in AGGREGATES.values()}.values():
        if not row.order_free:
            continue
        partials = [fold(row, chunk) for chunk in chunks]
        combined = [
            reduce(f.combine, (p[j] for p in partials))
            for j, f in enumerate(row.fields)
        ]
        assert bits(row.finalize(combined)) == \
            bits(row.finalize(fold(row, values))), row
