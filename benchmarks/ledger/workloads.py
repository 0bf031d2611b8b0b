"""The five workloads: their tables, statement streams and sizes.

Everything here is a pure function of ``--seed``: the same seed gives
the same tables and the same SQL, in the same order.  The program under
test only ever sees the generated tables and statement texts.

Operation counts are fixed (a closed loop sends the next statement when
the previous returns): each workload names how many blocks of
statements one client sends per second of ``--seconds``, calibrated so
the timed window lasts about ``--seconds`` on the 2-core reference box.
Both commits of a comparison therefore run the *same* statements.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.bench.tpch import QUERIES, generate_tpch
from repro.bench.workloads import (
    grouping_table,
    join_tables,
    selection_table,
    selectivity_threshold,
    sorting_table,
)
from repro.catalog.schema import Column, TableSchema
from repro.sql import types as T
from repro.storage.table import Table

__all__ = ["Statement", "Workload", "WORKLOADS"]


@dataclass(frozen=True)
class Statement:
    """One generated statement.

    ``sql`` is what the program receives; ``ref_sql`` is the equivalent
    plain SELECT the oracle engines run (``None`` for writes);
    ``ordered`` says the statement has a total ORDER BY, so rows compare
    as a list rather than a sorted multiset.
    """

    cls: str
    sql: str
    ref_sql: str | None
    ordered: bool = False

    @property
    def is_write(self) -> bool:
        return self.ref_sql is None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    front: str                    # "database" | "service"
    clients: int
    block: int                    # statements per block (one balanced mix)
    blocks_per_second: float      # per client, per second of --seconds
    warm_blocks: int              # untimed blocks run first (full-size runs)
    tables: Callable[[int], list[Table]]
    draw: Callable[[random.Random, int], list[Statement]]
    prepares: tuple[str, ...] = ()
    write_every: int = 0          # client 0's every Nth statement is an INSERT
    gc_blocks: int = 0            # single client: gc.collect() every N blocks
    trace_sample: int = 200       # statements the traced run replays at most

    def blocks(self, seconds: float) -> int:
        return max(int(round(self.blocks_per_second * seconds)), 1)

    def warm_stream(self, seed: int, seconds: float) -> list[Statement]:
        blocks = self.warm_blocks if seconds >= 10 else min(self.warm_blocks, 1)
        rng = random.Random(f"{self.name}/{seed}/warm")
        return self.draw(rng, blocks * self.block)

    def streams(self, seed: int, seconds: float) -> list[list[Statement]]:
        """One pre-generated statement list per client."""
        count = self.blocks(seconds) * self.block
        out = []
        for client in range(self.clients):
            rng = random.Random(f"{self.name}/{seed}/client{client}")
            reads = self.draw(rng, count)
            if self.write_every and client == 0:
                reads = _interleave_writes(reads, self.write_every)
            out.append(reads)
        return out


# -- TPC-H ------------------------------------------------------------------

TPCH_SCALE = 0.01


def _tpch_tables(seed: int) -> list[Table]:
    return list(generate_tpch(TPCH_SCALE, seed=seed).values())


def _tpch_draw(rng: random.Random, count: int) -> list[Statement]:
    """Passes over Q1/Q3/Q6/Q12/Q14, each pass in a seeded order."""
    names = list(QUERIES)
    out: list[Statement] = []
    while len(out) < count:
        rng.shuffle(names)
        for name in names:
            sql = " ".join(QUERIES[name].split())
            out.append(Statement(name, sql, sql,
                                 ordered=name not in ("q6", "q14")))
    return out[:count]


# -- compile_bound: many distinct small statements --------------------------

MICRO_ROWS = 256
_CMP = ("<", "<=", ">", ">=")


def _micro_tables(seed: int) -> list[Table]:
    build, probe = join_tables(64, MICRO_ROWS, seed=seed * 7 + 3)
    return [
        selection_table(MICRO_ROWS, seed=seed * 7 + 1),
        grouping_table(MICRO_ROWS, distinct=4, seed=seed * 7 + 2),
        build, probe,
        sorting_table(MICRO_ROWS, distinct=64, seed=seed * 7 + 4),
    ]


def _cmp_int32(rng: random.Random, column: str) -> str:
    """A conjunct over a full-domain INT32 column keeping 45-90 %."""
    keep = rng.uniform(0.45, 0.9)
    op = rng.choice(_CMP)
    cut = selectivity_threshold(keep if op[0] == "<" else 1.0 - keep)
    return f"{column} {op} {cut}"


def _cmp_unit(rng: random.Random, column: str) -> str:
    """A conjunct over a uniform [0, 1) DOUBLE column keeping 45-90 %."""
    keep = rng.uniform(0.45, 0.9)
    op = rng.choice(_CMP)
    cut = keep if op[0] == "<" else 1.0 - keep
    return f"{column} {op} {cut:.3f}"


def _cmp_small(rng: random.Random, column: str, domain: int) -> str:
    """A conjunct over an integer column uniform in [0, domain)."""
    keep = rng.uniform(0.45, 0.9)
    op = rng.choice(_CMP)
    cut = int((keep if op[0] == "<" else 1.0 - keep) * domain)
    return f"{column} {op} {cut}"


def _where(rng: random.Random, makers: list) -> str:
    """1-3 conjuncts, each over a different column."""
    chosen = rng.sample(makers, rng.randint(1, min(3, len(makers))))
    return " AND ".join(make(rng) for make in chosen)


def _aggregates(rng: random.Random, ints: list[str],
                floats: list[str]) -> list[str]:
    pool = ["COUNT(*)"]
    pool += [f"{fn}({c})" for c in ints for fn in ("MIN", "MAX")]
    pool += [f"{fn}({c})" for c in floats
             for fn in ("MIN", "MAX", "SUM", "AVG")]
    return rng.sample(pool, rng.randint(1, 4))


_T_WHERE = [lambda r: _cmp_int32(r, "x"), lambda r: _cmp_int32(r, "x2"),
            lambda r: _cmp_unit(r, "y"), lambda r: _cmp_unit(r, "y2")]
_G_WHERE = [lambda r, c=c: _cmp_int32(r, c) for c in ("x1", "x2", "x3", "x4")]
_S_WHERE = [lambda r, c=c: _cmp_small(r, c, 64)
            for c in ("s1", "s2", "s3", "s4")]
_J_WHERE = [lambda r: _cmp_int32(r, "b.bx"), lambda r: _cmp_int32(r, "p.px"),
            lambda r: _cmp_small(r, "b.id", 64)]


def _filter_project(rng):
    cols = rng.sample(["x", "x2", "y", "y2", "y * y2", "y + y2"],
                      rng.randint(1, 4))
    return (f"SELECT {', '.join(cols)} FROM t WHERE {_where(rng, _T_WHERE)}",
            False)


def _scalar_agg(rng):
    aggs = _aggregates(rng, ["x", "x2"], ["y", "y2"])
    return (f"SELECT {', '.join(aggs)} FROM t WHERE {_where(rng, _T_WHERE)}",
            False)


def _group2(rng):
    keys = rng.sample(["g1", "g2", "g3", "g4"], 2)
    aggs = _aggregates(rng, ["x1", "x2", "x3", "x4"], [])
    return (f"SELECT {', '.join(keys + aggs)} FROM g "
            f"WHERE {_where(rng, _G_WHERE)} GROUP BY {', '.join(keys)}", False)


def _fk_join(rng):
    cols = rng.sample(["b.id", "b.bx", "p.px", "p.fk"], rng.randint(1, 4))
    return (f"SELECT {', '.join(cols)} FROM build b, probe p "
            f"WHERE b.id = p.fk AND {_where(rng, _J_WHERE)}", False)


def _sort_limit(rng):
    # LIMIT needs a total order to be checkable: ORDER BY every
    # projected column, so ties are identical rows
    cols = rng.sample(["s1", "s2", "s3", "s4"], rng.randint(1, 4))
    order = ", ".join(f"{c} {rng.choice(('ASC', 'DESC'))}" for c in cols)
    return (f"SELECT {', '.join(cols)} FROM s WHERE {_where(rng, _S_WHERE)} "
            f"ORDER BY {order} LIMIT {rng.randint(5, 40)}", True)


def _group_order(rng):
    key = rng.choice(["g1", "g2", "g3", "g4"])
    aggs = _aggregates(rng, ["x1", "x2", "x3", "x4"], [])
    return (f"SELECT {', '.join([key] + aggs)} FROM g "
            f"WHERE {_where(rng, _G_WHERE)} GROUP BY {key} ORDER BY {key}",
            True)


FAMILIES = {
    "filter_project": _filter_project,
    "scalar_agg": _scalar_agg,
    "group2": _group2,
    "fk_join": _fk_join,
    "sort_limit": _sort_limit,
    "group_order": _group_order,
}


def _micro_draw(rng: random.Random, count: int) -> list[Statement]:
    """Distinct statements, one of each family per block of six."""
    out: list[Statement] = []
    seen: set[str] = set()
    families = list(FAMILIES.items())
    while len(out) < count:
        rng.shuffle(families)
        for name, make in families:
            sql, ordered = make(rng)
            while sql in seen:
                sql, ordered = make(rng)
            seen.add(sql)
            out.append(Statement(name, sql, sql, ordered))
    return out[:count]


# -- serving: short prepared statements -------------------------------------

DIM_ROWS = 400      # below the feedback router's 512-row interpreter pin
FACT_ROWS = 4000    # above it
INSERT_X = 5000     # outside every read predicate (reads use x < 1000)

PREPARED = {
    "pt_dim": ("SELECT id, k FROM dim WHERE id < $1", False),
    "agg_fact": ("SELECT grp, COUNT(*), SUM(x) FROM fact "
                 "WHERE x < $1 GROUP BY grp", False),
    "jn_dim_fact": ("SELECT f.id, d.k, f.x FROM dim d, fact f "
                    "WHERE d.id = f.dim_id AND f.x < $1", False),
    "top_fact": ("SELECT x, id FROM fact WHERE x >= $1 "
                 "ORDER BY x, id LIMIT 10", True),
}
#: (name, share of the mix in twentieths, literals drawn from this range).
#: 40/30/15/15: with pt_dim at exactly half, the overall median would sit
#: in the gap between pt_dim's latencies and everyone else's and jump
#: between the two from run to run.  Few distinct literals per statement
#: keep the oracle's work small.
MIX = (("pt_dim", 8, range(16, 35)), ("agg_fact", 6, range(200, 801, 25)),
       ("jn_dim_fact", 3, range(5, 21)), ("top_fact", 3, range(850, 951, 5)))


def _serving_tables(seed: int) -> list[Table]:
    rng = np.random.default_rng(seed)
    dim = Table.from_arrays(
        TableSchema("dim", [Column("id", T.INT32, primary_key=True),
                            Column("k", T.INT32)]),
        {"id": np.arange(DIM_ROWS, dtype=np.int32),
         "k": rng.integers(0, 1000, size=DIM_ROWS, dtype=np.int32)},
    )
    fact = Table.from_arrays(
        TableSchema("fact", [Column("id", T.INT32, primary_key=True),
                             Column("dim_id", T.INT32),
                             Column("grp", T.INT32),
                             Column("x", T.INT32),
                             Column("v", T.DOUBLE)]),
        {"id": np.arange(FACT_ROWS, dtype=np.int32),
         "dim_id": rng.integers(0, DIM_ROWS, size=FACT_ROWS, dtype=np.int32),
         "grp": rng.integers(0, 13, size=FACT_ROWS, dtype=np.int32),
         "x": rng.integers(0, 1000, size=FACT_ROWS, dtype=np.int32),
         "v": rng.random(FACT_ROWS)},
    )
    return [dim, fact]


def _serving_draw(rng: random.Random, count: int) -> list[Statement]:
    """Blocks of twenty EXECUTEs in the 40/30/15/15 mix, shuffled."""
    names = [name for name, share, _ in MIX for _ in range(share)]
    ranges = {name: span for name, _, span in MIX}
    out: list[Statement] = []
    while len(out) < count:
        rng.shuffle(names)
        for name in names:
            arg = rng.choice(ranges[name])
            body, ordered = PREPARED[name]
            out.append(Statement(name, f"EXECUTE {name}({arg})",
                                 body.replace("$1", str(arg)), ordered))
    return out[:count]


def _interleave_writes(reads: list[Statement], every: int) -> list[Statement]:
    out: list[Statement] = []
    inserted = 0
    for index, stmt in enumerate(reads, start=1):
        out.append(stmt)
        if index % (every - 1) == 0:
            row = (1_000_000 + inserted, inserted % DIM_ROWS, inserted % 13,
                   INSERT_X, 0.5)
            out.append(Statement(
                "insert", f"INSERT INTO fact VALUES {row}", None))
            inserted += 1
    return out


_PREPARES = tuple(f"PREPARE {name} AS {body}"
                  for name, (body, _) in PREPARED.items())

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="tpch_adhoc",
        why="cold TPC-H Q1/3/6/12/14 via Database.execute: generated-code "
            "execution dominates, tier compile is <10 %, front end <1 %",
        front="database", clients=1, block=5, blocks_per_second=0.7,
        warm_blocks=0, tables=_tpch_tables, draw=_tpch_draw, gc_blocks=1,
        trace_sample=10,
    ),
    Workload(
        name="compile_bound",
        why="~900 distinct small statements over 256-row tables: "
            "translation plus tier compile is ~70 % of statement time",
        front="database", clients=1, block=6, blocks_per_second=7.5,
        warm_blocks=0, tables=_micro_tables, draw=_micro_draw, gc_blocks=8,
    ),
    Workload(
        name="tpch_served",
        why="the same TPC-H texts as plan-cache hits through QueryService: "
            "steady-state generated code plus feedback decisions, no compile",
        front="service", clients=1, block=5, blocks_per_second=0.8,
        warm_blocks=3, tables=_tpch_tables, draw=_tpch_draw, gc_blocks=1,
        trace_sample=10,
    ),
    Workload(
        name="serving_point",
        why="2 clients of short prepared EXECUTEs on 400/4000-row tables: "
            "session, admission, cache, bind and feedback cost dominate",
        front="service", clients=2, block=20, blocks_per_second=3.0,
        warm_blocks=2, tables=_serving_tables, draw=_serving_draw,
        prepares=_PREPARES,
    ),
    Workload(
        name="serving_mixed",
        why="the serving_point mix beside an INSERT every 25 statements: "
            "each write invalidates the plan cache and forces recompiles",
        front="service", clients=2, block=20, blocks_per_second=2.0,
        warm_blocks=2, tables=_serving_tables, draw=_serving_draw,
        prepares=_PREPARES, write_every=25,
    ),
)}
