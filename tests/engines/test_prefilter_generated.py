"""Generated predicates over generated tables: the prefiltered TurboFan
loop must return what Liftoff and the vectorized engine return.

The first slice of ROADMAP item 3's generator, aimed at the one loop
shape TurboFan now splits (:mod:`repro.wasm.runtime.prefilter`): random
tables (every storage type; NaN, signed zeros, infinities, i64
extremes, empty tables, sizes on either side of the prefilter's row
floor and of one morsel) x random ``AND``/``OR``/``NOT``/``BETWEEN``/
``IN``/arithmetic predicates at selectivities from none to all x the
four sinks a filtered scan feeds (scalar aggregate, projection, hash
group-by, join build/probe), through every door: ``Database.execute``,
a query-service miss and hit, ``PREPARE``/``EXECUTE`` with re-binding.

So that the property cannot pass vacuously, an *anchored* predicate —
one plain column-vs-literal conjunct the plan analysis cannot fold —
must have made TurboFan split a loop.
"""

import datetime as dt
import functools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.backend.context import MORSEL_SIZE
from repro.catalog.schema import Column, TableSchema
from repro.db import Database
from repro.server import QueryService
from repro.sql import types as T
from repro.storage.table import Table
from repro.wasm.runtime.prefilter import MIN_ROWS

ENGINES = ("wasm[turbofan]", "wasm[liftoff]", "vectorized")
SIZES = (0, 1, MIN_ROWS - 1, MIN_ROWS, MIN_ROWS + 1, 300, 2500,
         MORSEL_SIZE - 1, MORSEL_SIZE + MIN_ROWS - 1, MORSEL_SIZE + 700)
EPOCH = dt.date(1970, 1, 1)
DAY0 = (dt.date(1994, 1, 1) - EPOCH).days

I64_EDGES = [-2**63, 2**63 - 1, 0, -1, 2**31, -2**31 - 1, 2**53 + 1]
F64_EDGES = [math.nan, 0.0, -0.0, math.inf, -math.inf, 1e308, 5e-324]


def _mix(rng, rows, regular, edges, dtype):
    """Mostly ``regular`` values, one row in six an edge case."""
    values = np.asarray(regular, dtype=dtype)
    special = rng.random(rows) < 1 / 6
    picks = np.asarray(edges, dtype=dtype)[rng.integers(0, len(edges), rows)]
    return np.where(special, picks, values)


@functools.lru_cache(maxsize=None)
def service(rows: int, seed: int) -> QueryService:
    """One database (and a query service over it) per table shape."""
    rng = np.random.default_rng([rows, seed])
    schema = TableSchema("t", [
        Column("id", T.INT32), Column("a", T.INT32), Column("b", T.INT64),
        Column("d", T.DOUBLE), Column("dt", T.DATE),
        Column("p", T.decimal(12, 2)), Column("c", T.char(4)),
        Column("g", T.INT32)])
    db = Database(default_engine="wasm[turbofan]")
    db.register_table(Table.from_arrays(schema, {
        "id": np.arange(rows, dtype=np.int32),
        "a": rng.integers(-50, 50, rows),
        "b": _mix(rng, rows, rng.integers(-1000, 1000, rows), I64_EDGES,
                  np.int64),
        "d": _mix(rng, rows, np.round(rng.uniform(-10, 10, rows), 3),
                  F64_EDGES, np.float64),
        "dt": DAY0 + rng.integers(0, 1000, rows),
        "p": rng.integers(0, 100_000, rows),
        "c": np.asarray([b"aa", b"bb", b"cc", b""],
                        dtype="S4")[rng.integers(0, 4, rows)],
        "g": rng.integers(0, 7, rows),
    }))
    db.execute("CREATE TABLE u (k INT PRIMARY KEY, w INT)")
    db.execute("INSERT INTO u VALUES " + ", ".join(
        f"({k}, {k * 10})" for k in range(5)))
    return QueryService(db)


# -- the predicate grammar ------------------------------------------------------

_CMP = ["=", "<>", "<", "<=", ">", ">="]


def _date(day: int) -> str:
    return f"DATE '{(EPOCH + dt.timedelta(days=DAY0 + day)).isoformat()}'"


@st.composite
def atom(draw) -> str:
    """One comparison; literals range past both ends of the column so
    selectivities run from nothing to everything."""
    op = draw(st.sampled_from(_CMP))
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return f"a {op} {draw(st.integers(-60, 60))}"
    if kind == 1:
        return f"b {op} {draw(st.sampled_from(I64_EDGES + [-999, 5, 640]))}"
    if kind == 2:
        value = draw(st.sampled_from([-11.0, -3.5, 0.0, 0.001, 9.999, 1e308]))
        return f"d {op} {value!r}"
    if kind == 3:
        return f"dt {op} {_date(draw(st.integers(-10, 1010)))}"
    if kind == 4:
        cents = draw(st.integers(-100, 100_100))
        return f"p {op} {cents / 100:.2f}"
    if kind == 5:
        lo = draw(st.integers(-60, 40))
        return f"a BETWEEN {lo} AND {lo + draw(st.integers(0, 60))}"
    if kind == 6:
        members = draw(st.lists(st.integers(-1, 7), min_size=1, max_size=4))
        return f"g IN ({', '.join(map(str, members))})"
    if kind == 7:
        k = draw(st.integers(-3, 3))
        return (f"a * {k} + g {op} {draw(st.integers(-100, 100))}")
    if kind == 8:
        return f"p * 2 - 100.00 {op} {draw(st.integers(0, 2000))}.50"
    text = draw(st.sampled_from(["aa", "bb", "zz", ""]))
    return f"c {draw(st.sampled_from(['=', '<>', '<']))} '{text}'"


@st.composite
def predicate(draw, depth: int = 0) -> str:
    if depth >= 2 or draw(st.integers(0, 2)) == 0:
        return draw(atom())
    joined = f" {draw(st.sampled_from(['AND', 'OR']))} ".join(
        draw(predicate(depth + 1)) for _ in range(draw(st.integers(2, 3))))
    return f"{'NOT ' if draw(st.booleans()) else ''}({joined})"


#: A conjunct every tier lowers; no analysis folds it either when the
#: literal lies strictly inside the column's range (:func:`splits`).
anchor = st.tuples(st.sampled_from(["<", "<=", ">", ">="]),
                   st.integers(-40, 40))


def splits(svc: QueryService, k: int) -> bool:
    """Does ``a <op> k`` keep some of t's rows and reject others, as
    far as min/max statistics can tell?"""
    a = svc.db.table("t").column("a").values
    return len(a) > 0 and a.min() < k < a.max()

SINKS = {
    "scalar": ("SELECT COUNT(*), SUM(a), SUM(p), AVG(b), AVG(p), MIN(d), "
               "MAX(d) FROM t WHERE {where}"),
    "projection": "SELECT id, b, d, c FROM t WHERE {where}",
    "group_by": ("SELECT g, COUNT(*), SUM(p), MIN(a), AVG(b), MAX(d) "
                 "FROM t WHERE {where} GROUP BY g"),
    "join": ("SELECT t.id, u.w FROM t, u WHERE t.g = u.k AND {where}"),
}

# -- comparison -------------------------------------------------------------------


def canon(rows) -> list:
    """A sorted multiset with NaN made comparable."""
    return sorted(
        tuple("nan" if isinstance(v, float) and math.isnan(v) else v
              for v in row).__repr__() for row in rows)


def assert_every_door_agrees(svc: QueryService, sql: str) -> object:
    """Rows of ``sql`` from every engine through ``Database.execute``
    and from a service miss and hit; returns the TurboFan result."""
    results = {spec: svc.db.execute(sql, engine=spec) for spec in ENGINES}
    expected = canon(results["vectorized"].rows)
    for spec, result in results.items():
        assert canon(result.rows) == expected, (spec, sql)
    for _ in range(2):
        served = svc.execute(sql, engine="wasm[turbofan]")
        assert canon(served.rows) == expected, (served.plan_cache, sql)
    assert served.plan_cache == "hit"
    return results["wasm[turbofan]"]


_SETTINGS = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow,
                                            HealthCheck.data_too_large])


@_SETTINGS
@given(rows=st.sampled_from(SIZES), seed=st.integers(0, 2),
       sink=st.sampled_from(sorted(SINKS)), fixed=st.none() | anchor,
       rest=predicate())
def test_filtered_scans_agree_across_tiers_and_doors(rows, seed, sink,
                                                     fixed, rest):
    svc = service(rows, seed)
    where = rest if fixed is None else f"a {fixed[0]} {fixed[1]} AND {rest}"
    result = assert_every_door_agrees(svc, SINKS[sink].format(where=where))
    # (a ``rest`` the plan analysis proves false folds the whole plan
    # away: nothing is compiled, there is no run record)
    if (fixed is not None and splits(svc, fixed[1])
            and result.run is not None):
        stats = result.run.tier_stats
        assert stats.loops_prefiltered >= 1, where
        # every morsel of the scan that reaches the row floor is masked
        full, tail = divmod(rows, MORSEL_SIZE)
        assert stats.prefilter_rows_seen == full * MORSEL_SIZE + (
            tail if tail >= MIN_ROWS else 0), where


@_SETTINGS
@given(rows=st.sampled_from(SIZES), seed=st.integers(0, 2),
       sink=st.sampled_from(sorted(SINKS)), rest=predicate(),
       bindings=st.lists(st.tuples(st.integers(-60, 60),
                                   st.integers(-100, 100_100)),
                         min_size=2, max_size=3))
def test_prepared_predicates_rebind(rows, seed, sink, rest, bindings):
    """``$n`` slots are loads at a constant address: read once per
    call, so each EXECUTE filters by *its* arguments."""
    svc = service(rows, seed)
    session = svc.create_session()
    template = SINKS[sink].format(where=f"a < {{0}} AND p >= {{1}} "
                                        f"AND {rest}")
    svc.execute(f"PREPARE q AS {template.format('$1', '$2')}",
                session=session, engine="wasm[turbofan]")
    for a_max, cents in bindings + bindings[:1]:
        literal = template.format(a_max, f"{cents / 100:.2f}")
        expected = canon(svc.db.execute(literal, engine="vectorized").rows)
        got = svc.execute(f"EXECUTE q({a_max}, {cents / 100:.2f})",
                          session=session, engine="wasm[turbofan]")
        assert canon(got.rows) == expected, literal
        # (nothing folds a comparison with a parameter; ``rest`` may
        # still fold the whole plan away)
        if rows and got.run is not None:
            assert got.run.tier_stats.loops_prefiltered >= 1, literal


@pytest.mark.parametrize("sink", sorted(SINKS))
@pytest.mark.parametrize("where", [
    "a < 10",
    "d >= 0.5 AND dt < DATE '1995-06-01'",
    "NOT (b > 100 OR p < 250.00)",
    "a BETWEEN -5 AND 5 AND c = 'aa'",        # the CHAR compare is deferred
    "g IN (1, 3) AND a * 2 + g > 7",
])
def test_the_pass_fires_for_every_sink(sink, where):
    svc = service(2500, 0)
    result = assert_every_door_agrees(svc, SINKS[sink].format(where=where))
    stats = result.run.tier_stats
    assert stats.loops_prefiltered >= 1
    assert 0 < stats.prefilter_rows_kept < stats.prefilter_rows_seen == 2500
    assert result.rows       # each of these keeps something
