"""Differential fuzzing: interpreter, Liftoff, and TurboFan must agree.

A seeded generator builds small random-but-valid functions from three
templates and runs each through every execution tier, asserting the
outcomes (value or trap kind) are identical.  The templates are chosen
to stress the paths the optimizing tier rewrites:

* **expressions** — random i32/i64 operator trees (constant folding,
  wrap elision, comparison lowering, trapping division);
* **scan loops** — the paper's morsel shape with ``param_range`` hints
  and in-bounds loads, so TurboFan's bounds-check *elision* runs against
  the interpreter's checked accesses;
* **memory round-trips** — masked random addresses, store then load, so
  non-elidable (masked) accesses are covered too.

Over 200 (module, arguments) cases run per test session; seeds are
fixed, so failures reproduce.
"""

import datetime as dt
import random
import struct

import pytest

from repro.wasm import ModuleBuilder

from tests.wasm.conftest import ALL_MODES, assert_all_modes_agree

_I32_BIN = [
    "i32.add", "i32.sub", "i32.mul", "i32.and", "i32.or", "i32.xor",
    "i32.shl", "i32.shr_s", "i32.shr_u", "i32.rotl", "i32.rotr",
    "i32.div_s", "i32.div_u", "i32.rem_s", "i32.rem_u",
    "i32.eq", "i32.ne", "i32.lt_s", "i32.lt_u", "i32.gt_s", "i32.gt_u",
    "i32.le_s", "i32.le_u", "i32.ge_s", "i32.ge_u",
]
_I32_UN = ["i32.eqz", "i32.clz", "i32.ctz", "i32.popcnt"]
_I64_BIN = [
    "i64.add", "i64.sub", "i64.mul", "i64.and", "i64.or", "i64.xor",
    "i64.shl", "i64.shr_s", "i64.shr_u",
]
_I32_CONSTS = [0, 1, 2, 3, 7, -1, -8, 255, 65535, 2**31 - 1, -(2**31)]


def _emit_i32_expr(rng, fb, depth):
    """Emit a random i32 expression over the two i32 parameters."""
    if depth <= 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.45:
            fb.get(rng.randrange(2))
        else:
            fb.i32(rng.choice(_I32_CONSTS))
        return
    shape = rng.random()
    if shape < 0.12:
        _emit_i32_expr(rng, fb, depth - 1)
        fb.emit(rng.choice(_I32_UN))
    elif shape < 0.24:
        # an i64 detour, wrapped back down
        _emit_i32_expr(rng, fb, depth - 1)
        fb.emit(rng.choice(("i64.extend_i32_s", "i64.extend_i32_u")))
        _emit_i32_expr(rng, fb, depth - 1)
        fb.emit("i64.extend_i32_s")
        fb.emit(rng.choice(_I64_BIN))
        fb.emit("i32.wrap_i64")
    elif shape < 0.32:
        _emit_i32_expr(rng, fb, depth - 1)
        _emit_i32_expr(rng, fb, depth - 1)
        _emit_i32_expr(rng, fb, depth - 1)
        fb.emit("select")
    else:
        _emit_i32_expr(rng, fb, depth - 1)
        _emit_i32_expr(rng, fb, depth - 1)
        fb.emit(rng.choice(_I32_BIN))


def _expression_module(rng):
    mb = ModuleBuilder("fuzz_expr")
    fb = mb.function("main", params=[("i32", "a"), ("i32", "b")],
                     results=["i32"], export=True)
    _emit_i32_expr(rng, fb, rng.randrange(2, 5))
    return mb.finish()


def _scan_module(rng):
    """A hinted morsel loop (TurboFan elides its bounds checks)."""
    n_rows = rng.randrange(8, 64)
    stride = rng.choice((4, 8))
    base = rng.randrange(0, 64) * 8
    mb = ModuleBuilder("fuzz_scan")
    mb.add_memory(1, 1)
    fb = mb.function("main", params=[("i32", "begin"), ("i32", "end")],
                     results=["i32"], export=True)
    fb.param_range(0, 0, n_rows).param_range(1, 0, n_rows)
    row = fb.local("i32", "row")
    acc = fb.local("i32", "acc")
    fb.get(0).set(row)
    with fb.block() as done:
        with fb.loop() as top:
            fb.get(row).get(1).emit("i32.ge_s")
            fb.br_if(done)
            fb.get(acc)
            fb.get(row).i32(stride).emit("i32.mul")
            fb.load("i32", base)
            fb.emit("i32.add").set(acc)
            fb.get(row).i32(1).emit("i32.add").set(row)
            fb.br(top)
    fb.get(acc)
    values = [rng.randrange(-1000, 1000) for _ in range(n_rows)]
    payload = b"".join(struct.pack("<i", v).ljust(stride, b"\x00")
                       for v in values)
    mb.add_data(base, payload)
    return mb.finish(), n_rows


def _roundtrip_module(rng):
    """Store a random expression at a masked address, load it back."""
    mb = ModuleBuilder("fuzz_mem")
    mb.add_memory(1, 1)
    fb = mb.function("main", params=[("i32", "a"), ("i32", "b")],
                     results=["i32"], export=True)
    addr = fb.local("i32", "addr")
    # mask keeps the access 8-aligned and on the single page
    _emit_i32_expr(rng, fb, 2)
    fb.i32(0xFFF8).emit("i32.and").set(addr)
    fb.get(addr)
    _emit_i32_expr(rng, fb, 2)
    fb.store("i32")
    fb.get(addr).load("i32")
    return mb.finish()


def _args(rng):
    return (rng.choice(_I32_CONSTS + [rng.randrange(-100, 100)]),
            rng.choice(_I32_CONSTS + [rng.randrange(-100, 100)]))


class TestDifferentialFuzz:
    def test_expression_trees(self):
        rng = random.Random(0xE5EED)
        cases = 0
        for _ in range(60):
            module = _expression_module(rng)
            for _ in range(2):
                assert_all_modes_agree(module, "main", _args(rng))
                cases += 1
        assert cases == 120

    def test_hinted_scan_loops(self):
        rng = random.Random(0x5CA7)
        cases = 0
        for _ in range(25):
            module, n_rows = _scan_module(rng)
            windows = [(0, n_rows), (0, 0),
                       (rng.randrange(n_rows), n_rows)]
            for begin, end in windows:
                assert_all_modes_agree(module, "main", (begin, end))
                cases += 1
        assert cases == 75

    def test_memory_roundtrips(self):
        rng = random.Random(0x30B5)
        cases = 0
        for _ in range(20):
            module = _roundtrip_module(rng)
            assert_all_modes_agree(module, "main", _args(rng))
            cases += 1
        assert cases == 20


class TestAdaptiveTieringProperties:
    """Property tests of adaptive tier-up over seeded scan modules.

    For any module and any threshold (calls until TurboFan is paid for,
    under the one-tick-per-call ``tier_clock``): the tier a call runs on
    never decreases (liftoff -> turbofan is a one-way door), the
    transition happens exactly at the call after the threshold, and the
    trace/TierStats accounts agree with the observed per-call tiers.
    """

    _ORDER = {"liftoff": 0, "turbofan": 1}

    def _drive(self, clock, module, n_rows, threshold, trace=None):
        from repro.wasm.runtime import Engine, EngineConfig

        clock.promote_after(turbofan=threshold)
        engine = Engine(EngineConfig(mode="adaptive"))
        instance = engine.instantiate(module, trace=trace)
        tiers = []
        for call in range(threshold + 4):
            tiers.append(instance.tier_of("main"))
            instance.invoke("main", 0, n_rows)
        return instance, tiers

    def test_tier_never_decreases(self, tier_clock):
        rng = random.Random(0x7137)
        for _ in range(10):
            module, n_rows = _scan_module(rng)
            threshold = rng.randrange(1, 8)
            _, tiers = self._drive(tier_clock, module, n_rows, threshold)
            ranks = [self._ORDER[t] for t in tiers]
            assert ranks == sorted(ranks), (
                f"tier regressed under threshold {threshold}: {tiers}"
            )

    def test_tier_up_exactly_at_threshold(self, tier_clock):
        rng = random.Random(0xADA7)
        for _ in range(10):
            module, n_rows = _scan_module(rng)
            threshold = rng.randrange(1, 8)
            _, tiers = self._drive(tier_clock, module, n_rows, threshold)
            # calls 1..threshold run Liftoff code and pay for TurboFan;
            # the next call enters through the meter and recompiles, so
            # every call after it finds optimized code
            assert tiers[:threshold + 1] == ["liftoff"] * (threshold + 1)
            assert all(t == "turbofan" for t in tiers[threshold + 1:])

    def test_morsel_tiers_agree_with_tier_stats(self, tier_clock):
        from repro.observability import FakeClock, QueryTrace

        rng = random.Random(0x57A7)
        for _ in range(10):
            module, n_rows = _scan_module(rng)
            threshold = rng.randrange(1, 8)
            trace = QueryTrace(clock=FakeClock())
            instance, tiers = self._drive(tier_clock, module, n_rows,
                                          threshold, trace=trace)
            stats = instance.stats
            # one trace event per successful tier-up, and the counters
            # explain exactly the observed per-call tier transition
            assert len(trace.find("tier_up")) == stats.tier_ups == 1
            assert stats.tier_up_failures == 0
            assert stats.functions["turbofan"] == 1
            assert tiers.count("turbofan") == 3
            assert stats.functions["liftoff"] == 1


# ---------------------------------------------------------------------------
# Tier 0: the stencil rung of the ladder
# ---------------------------------------------------------------------------

class TestStencilLadderProperties:
    """Property tests of the three-rung ``adaptive_stencil`` ladder.

    ``conftest.ALL_MODES`` already runs every differential case above
    through the stencil tier, so four *pinned* paths (interpreter,
    stencil, Liftoff, TurboFan) are known to agree byte-for-byte.  This
    class checks the *dynamic* properties: over seeded scan modules the
    per-call tier climbs stencil -> Liftoff -> TurboFan monotonically,
    each rung is paid for by ``threshold`` calls (one tick each under
    the ``tier_clock``), results never change across a promotion, and
    the trace records each rung.
    """

    _ORDER = {"stencil": 0, "liftoff": 1, "turbofan": 2}

    def _drive(self, clock, module, n_rows, threshold, trace=None):
        from repro.wasm.runtime import Engine, EngineConfig

        clock.promote_after(liftoff=threshold, turbofan=2 * threshold)
        engine = Engine(EngineConfig(mode="adaptive_stencil"))
        instance = engine.instantiate(module, trace=trace)
        tiers, values = [], []
        for call in range(2 * threshold + 4):
            tiers.append(instance.tier_of("main"))
            values.append(instance.invoke("main", 0, n_rows))
        return instance, tiers, values

    def test_tier_never_decreases(self, tier_clock):
        rng = random.Random(0x57E9C1)
        for _ in range(10):
            module, n_rows = _scan_module(rng)
            threshold = rng.randrange(1, 6)
            _, tiers, _ = self._drive(tier_clock, module, n_rows,
                                      threshold)
            ranks = [self._ORDER[t] for t in tiers]
            assert ranks == sorted(ranks), (
                f"tier regressed under threshold {threshold}: {tiers}"
            )

    def test_each_rung_holds_its_threshold(self, tier_clock):
        rng = random.Random(0x57E9C2)
        for _ in range(10):
            module, n_rows = _scan_module(rng)
            threshold = rng.randrange(1, 6)
            _, tiers, _ = self._drive(tier_clock, module, n_rows,
                                      threshold)
            # the call after the threshold-th enters through the meter
            # on stencil code, promotes, and runs (and pays) on the
            # Liftoff code it just bought; the time is handed on, so
            # threshold calls later the same happens one rung up
            assert tiers[:threshold + 1] == ["stencil"] * (threshold + 1)
            assert tiers[threshold + 1:2 * threshold + 1] == \
                ["liftoff"] * threshold
            assert all(t == "turbofan"
                       for t in tiers[2 * threshold + 1:])

    def test_results_survive_both_promotions(self, tier_clock):
        rng = random.Random(0x57E9C3)
        for _ in range(10):
            module, n_rows = _scan_module(rng)
            instance, _, values = self._drive(tier_clock, module, n_rows,
                                              rng.randrange(1, 6))
            assert instance.stats.tier_ups == 2
            assert len(set(values)) == 1, values

    def test_both_rungs_are_traced(self, tier_clock):
        from repro.observability import FakeClock, QueryTrace

        rng = random.Random(0x57E9C4)
        for _ in range(5):
            module, n_rows = _scan_module(rng)
            trace = QueryTrace(clock=FakeClock())
            instance, _, _ = self._drive(tier_clock, module, n_rows, 2,
                                         trace=trace)
            events = trace.find("tier_up")
            assert len(events) == instance.stats.tier_ups == 2
            assert events[0].attrs["from_tier"] == "stencil"
            assert events[0].attrs["to_tier"] == "liftoff"
            stats = instance.stats
            assert stats.functions["stencil"] == 1
            assert stats.functions["turbofan"] == 1
            assert stats.tier_up_failures == 0


# ---------------------------------------------------------------------------
# SQL-level differential: contradiction folding across every tier
# ---------------------------------------------------------------------------

def _folding_db():
    """120 deterministic rows; x spans [-8, 8], y spans [0, 28]."""
    from repro.db import Database

    db = Database(default_engine="wasm")
    db.execute("CREATE TABLE f (k INT PRIMARY KEY, x INT, y BIGINT)")
    db.table("f").append_rows(
        [(i, i % 17 - 8, (i * 3) % 29) for i in range(120)]
    )
    return db


def _predicate_cases(rng, count):
    """Seeded grammar of predicates with a *known* analysis verdict.

    Each case is ``(predicate_sql, verdict)`` where the verdict is
    ``"empty"`` (provably contradictory: the plan folds to an empty
    relation) or ``"all"`` (provably tautological: the predicate is
    dropped and every row survives).  The six shapes cover empty
    interval conjunctions, out-of-domain bounds, inverted BETWEEN,
    literal-literal comparisons, and their tautological duals.
    """
    columns = [("x", -8, 8), ("y", 0, 28)]
    cases = []
    for _ in range(count):
        name, lo, hi = rng.choice(columns)
        shape = rng.randrange(6)
        if shape == 0:
            # x > a AND x < b with b <= a: the interval is empty
            a = rng.randrange(lo, hi + 1)
            b = a - rng.randrange(0, 3)
            cases.append((f"{name} > {a} AND {name} < {b}", "empty"))
        elif shape == 1:
            # strictly below the column's minimum
            c = lo - rng.randrange(1, 5)
            cases.append((f"{name} < {c}", "empty"))
        elif shape == 2:
            # BETWEEN high AND low: lower bound above upper bound
            a = rng.randrange(lo, hi + 1)
            b = a + rng.randrange(1, 4)
            cases.append((f"{name} BETWEEN {b} AND {a}", "empty"))
        elif shape == 3:
            c = rng.randrange(0, 9)
            cases.append((f"{c} = {c + 1}", "empty"))
        elif shape == 4:
            # at-or-above a bound below the column's minimum
            c = lo - rng.randrange(1, 5)
            cases.append((f"{name} >= {c}", "all"))
        else:
            c = rng.randrange(0, 9)
            cases.append((f"{c} <= {c}", "all"))
    return cases


class TestPredicateFoldingDifferential:
    """Contradictory/tautological predicates through the whole stack.

    The plan analysis folds contradictions to an empty relation (and
    drops tautologies) *before* any engine sees the plan, so every tier
    must agree with the uninstrumented volcano reference — and a folded
    plan must never reach the Wasm compiler at all.
    """

    def test_folded_plans_agree_across_tiers(self):
        rng = random.Random(0xF01D)
        db = _folding_db()
        cases = _predicate_cases(rng, 50)
        assert len(cases) == 50
        for pred, verdict in cases:
            sql = f"SELECT k, x, y FROM f WHERE {pred} ORDER BY k"
            expected = db.execute(sql, engine="volcano").rows
            if verdict == "empty":
                assert expected == [], pred
            else:
                assert len(expected) == 120, pred
            for spec in ("wasm", "wasm[interpreter]", "wasm[turbofan]"):
                got = db.execute(sql, engine=spec).rows
                assert got == expected, (pred, spec)

    def test_contradictions_skip_wasm_compilation(self):
        from repro.observability import FakeClock, QueryTrace

        rng = random.Random(0xF01D)
        db = _folding_db()
        folded = 0
        for pred, verdict in _predicate_cases(rng, 50):
            if verdict != "empty":
                continue
            trace = QueryTrace(clock=FakeClock())
            result = db.execute(f"SELECT k FROM f WHERE {pred}",
                                engine="wasm", trace=trace)
            assert result.rows == []
            kinds = trace.kinds()
            assert "translation" not in kinds, pred
            assert not any(k.startswith("compile.") for k in kinds), pred
            folded += 1
        assert folded >= 20  # the seed produces a healthy empty share


# ---------------------------------------------------------------------------
# SQL-level differential: aggregate semantics across every engine and tier
# ---------------------------------------------------------------------------

#: Every engine spec, and the wasm engine pinned to every mode.
_AGG_SPECS = ("volcano", "vectorized", "hyper") + tuple(
    f"wasm[{mode}]" for mode in ALL_MODES + ["adaptive", "adaptive_stencil"]
)


def _aggregate_db():
    """Seeded rows whose sums wrap i64 and whose doubles hold NaN, signed
    zeros and infinities, beside decimals an f64 running sum rounds."""
    from repro.db import Database

    rng = random.Random(0xA66)
    edges = [float("nan"), 0.0, -0.0, float("inf"), float("-inf")]
    db = Database()
    db.execute("CREATE TABLE ag (g INT, v BIGINT, p DECIMAL(12,2),"
               " f DOUBLE)")
    db.table("ag").append_rows([
        (i % 5,
         rng.choice([2**62 + rng.randrange(2**40), 2**53, 1,
                     rng.randrange(-1000, 1000)]),
         rng.randrange(0, 10**6) / 100,
         rng.choice(edges) if rng.random() < 0.2
         else rng.uniform(-9, 9))
        for i in range(400)
    ])
    return db


def _bits(rows):
    """Rows with every float as its exact bit pattern, sorted."""
    return sorted(repr(tuple(v.hex() if isinstance(v, float) else v
                             for v in row)) for row in rows)


class TestAggregateDifferential:
    """Exact AVG (i64 sum, one division at finalize) and the strict
    MIN/MAX compare give identical bits in every engine and tier."""

    SQL = [
        "SELECT AVG(v), AVG(p), SUM(v), MIN(f), MAX(f) FROM ag",
        "SELECT g, AVG(v), AVG(p), AVG(f), MIN(f), MAX(f) FROM ag"
        " GROUP BY g",
        "SELECT AVG(p), COUNT(*) FROM ag WHERE v < 1000",
        "SELECT AVG(v) FROM ag WHERE g > 99",
    ]

    @pytest.mark.parametrize("sql", SQL)
    def test_every_spec_returns_the_same_bits(self, sql):
        db = _aggregate_db()
        results = {spec: _bits(db.execute(sql, engine=spec).rows)
                   for spec in _AGG_SPECS}
        expected = results["volcano"]
        for spec, got in results.items():
            assert got == expected, (spec, sql)


# ---------------------------------------------------------------------------
# SQL-level differential: multi-process execution vs the in-process oracle
# ---------------------------------------------------------------------------

#: Every wasm tier the parallel contract covers: partitions are planned,
#: compiled, and merged identically whichever tier runs the morsels.
_PAR_TIERS = ("wasm", "wasm[interpreter]", "wasm[turbofan]")

_PAR_ROWS = 600


def _parallel_pair():
    """Two databases with bit-identical seeded data: ``workers=4`` under
    test, ``workers=0`` as the single-process oracle."""
    from repro.db import Database

    rng = random.Random(0xD1FF)
    rows = [
        (
            i,
            i % 7,                        # g: dense small group key
            rng.randrange(4),             # h: second group key
            (i * 7) % 201 - 100,          # x: every value in [-100, 100]
            rng.randrange(-(10**11), 10**11),
            rng.uniform(-50.0, 50.0),
            dt.date(1995, 1, 1) + dt.timedelta(days=rng.randrange(3000)),
            rng.choice(["aaaa", "bb", "c", ""]),
        )
        for i in range(_PAR_ROWS)
    ]
    jrows = [(rng.randrange(_PAR_ROWS + 40), rng.randrange(-500, 500))
             for _ in range(300)]
    pair = []
    for workers in (4, 0):
        db = Database(default_engine="wasm", workers=workers)
        db.execute(
            "CREATE TABLE pr (id INT PRIMARY KEY, g INT, h INT, x INT,"
            " b BIGINT, f DOUBLE, d DATE, s CHAR(4))"
        )
        db.execute("CREATE TABLE jr (rid INT, v INT)")
        db.table("pr").append_rows(rows)
        db.table("jr").append_rows(jrows)
        pair.append(db)
    return pair


@pytest.fixture(scope="module")
def par_pair():
    par, oracle = _parallel_pair()
    yield par, oracle
    par.close()


def _predicate(rng):
    """A seeded predicate guaranteed non-empty over pr (x is dense in
    [-100, 100]), so scalar MIN/MAX never finalize a fold identity."""
    shape = rng.randrange(3)
    if shape == 0:
        return f"x > {rng.randrange(-100, 41)}"
    if shape == 1:
        return f"g <> {rng.randrange(7)}"
    lo = rng.randrange(-80, 41)
    return f"x BETWEEN {lo} AND {lo + rng.randrange(10, 60)}"


#: Aggregates the contract proves partition-mergeable (AVG and float
#: SUM are deliberately absent: those degrade to whole mode).
_MERGEABLE_AGGS = [
    "COUNT(*)", "SUM(x)", "SUM(b)", "MIN(x)", "MAX(x)", "MIN(b)",
    "MAX(b)", "MIN(d)", "MAX(d)", "MIN(f)", "MAX(f)",
]


def _run_differential(par, oracle, sql, *, ordered, mode, merge=None):
    """One case through every tier: the 4-worker rows must be value-
    identical to the oracle's (after order normalization for merged
    shapes), and the dispatch must have used the expected mode."""
    for spec in _PAR_TIERS:
        expected = oracle.execute(sql, engine=spec).rows
        result = par.execute(sql, engine=spec)
        info = getattr(result, "parallel", None)
        assert info is not None, f"not dispatched: {sql!r} [{spec}]"
        assert info["mode"] == mode, (sql, spec, info)
        if merge is not None:
            assert info["merge"] == merge, (sql, spec, info)
        got = result.rows
        if not ordered:
            expected = sorted(expected, key=repr)
            got = sorted(got, key=repr)
        assert got == expected, (
            f"parallel differs from oracle on {sql!r} [{spec}]\n"
            f"expected {expected[:4]}\ngot      {got[:4]}"
        )
    return len(_PAR_TIERS)


class TestParallelDifferential:
    """workers=4 vs the single-process oracle, all three wasm tiers.

    Over 100 (statement, tier) cases per session; seeds are fixed, so
    failures reproduce.  Result-order normalization: concat and whole
    cases compare exactly (partition order *is* scan order; whole mode
    is one worker running the untouched plan), merged group/scalar
    shapes compare as sorted multisets on both sides.
    """

    def test_concat_partitions_reproduce_scan_order(self, par_pair):
        par, oracle = par_pair
        rng = random.Random(0xC0CA7)
        cases = 0
        for _ in range(8):
            sql = (f"SELECT id, x, s FROM pr WHERE {_predicate(rng)}")
            cases += _run_differential(par, oracle, sql, ordered=True,
                                       mode="partitioned", merge="concat")
        for _ in range(2):
            sql = (f"SELECT pr.id, pr.x, jr.v FROM pr"
                   f" JOIN jr ON pr.id = jr.rid"
                   f" WHERE {_predicate(rng)}")
            cases += _run_differential(par, oracle, sql, ordered=True,
                                       mode="partitioned", merge="concat")
        assert cases == 30

    def test_partitioned_group_merge(self, par_pair):
        par, oracle = par_pair
        rng = random.Random(0x6E0B7)
        cases = 0
        for _ in range(7):
            keys = rng.choice(["g", "g, h", "s", "h"])
            aggs = ", ".join(rng.sample(_MERGEABLE_AGGS,
                                        rng.randrange(1, 4)))
            sql = (f"SELECT {keys}, {aggs} FROM pr"
                   f" WHERE {_predicate(rng)} GROUP BY {keys}")
            cases += _run_differential(par, oracle, sql, ordered=False,
                                       mode="partitioned", merge="group")
        for _ in range(3):
            # keys projected away: the merge still runs on full rows
            sql = (f"SELECT COUNT(*), SUM(x) FROM pr"
                   f" WHERE {_predicate(rng)} GROUP BY g")
            cases += _run_differential(par, oracle, sql, ordered=False,
                                       mode="partitioned", merge="group")
        for _ in range(2):
            sql = (f"SELECT pr.g, COUNT(*), SUM(jr.v) FROM pr"
                   f" JOIN jr ON pr.id = jr.rid"
                   f" WHERE {_predicate(rng)} GROUP BY pr.g")
            cases += _run_differential(par, oracle, sql, ordered=False,
                                       mode="partitioned", merge="group")
        assert cases == 36

    def test_partitioned_scalar_merge(self, par_pair):
        par, oracle = par_pair
        rng = random.Random(0x5CA1A)
        cases = 0
        for _ in range(8):
            aggs = ", ".join(rng.sample(_MERGEABLE_AGGS,
                                        rng.randrange(2, 5)))
            sql = f"SELECT {aggs} FROM pr WHERE {_predicate(rng)}"
            cases += _run_differential(par, oracle, sql, ordered=False,
                                       mode="partitioned", merge="scalar")
        assert cases == 24

    def test_whole_mode_is_bit_identical(self, par_pair):
        par, oracle = par_pair
        rng = random.Random(0x607E)
        cases = 0
        for _ in range(2):
            sql = f"SELECT AVG(x), AVG(f) FROM pr WHERE {_predicate(rng)}"
            cases += _run_differential(par, oracle, sql, ordered=False,
                                       mode="whole")
        for _ in range(2):
            sql = (f"SELECT id, x FROM pr WHERE {_predicate(rng)}"
                   f" ORDER BY x, id LIMIT {rng.randrange(5, 40)}")
            cases += _run_differential(par, oracle, sql, ordered=True,
                                       mode="whole")
        for _ in range(2):
            sql = (f"SELECT g, SUM(f) FROM pr WHERE {_predicate(rng)}"
                   f" GROUP BY g")
            cases += _run_differential(par, oracle, sql, ordered=False,
                                       mode="whole")
        assert cases == 18
