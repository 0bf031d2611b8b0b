"""TurboFan's filtered-scan split (:mod:`repro.wasm.runtime.prefilter`).

Hand-written modules around the canonical counted loop, each case run
on TurboFan, Liftoff and the reference interpreter and compared on the
whole observable state: outcome (or trap kind), globals, the output
region and the column bytes.  A case the recogniser must *refuse* is
built so that wrongly accepting it changes that state — the soundness
rule's clauses are checked by their consequences, not by their names.
"""

import math
import struct

import numpy as np
import pytest

from repro.costmodel import Profile
from repro.db import Database
from repro.engines.wasm_engine import QueryRun, WasmEngine
from repro.errors import QueryCancelled, Trap
from repro.robustness import FaultInjector
from repro.robustness.resilience import CancelToken
from repro.sql.analyzer import analyze
from repro.sql.parser import parse
from repro.storage.rewiring import WASM_PAGE_SIZE, AddressSpace
from repro.wasm import ModuleBuilder
from repro.wasm.runtime import Engine, EngineConfig, LinearMemory
from repro.wasm.runtime import prefilter
from repro.wasm.runtime.prefilter import MIN_ROWS, RUN_GAP

ORACLES = ("liftoff", "interpreter")
ROWS = 1000
#: Columns are mapped from page 1 on (page 0 is the NULL guard), one
#: page each; the writable output region follows them.
COL0 = WASM_PAGE_SIZE
COUNT = 0       # global 0: the output cursor


def column_address(n: int) -> int:
    return COL0 + n * WASM_PAGE_SIZE


def i32_column(rows: int = ROWS) -> np.ndarray:
    """0..99 scattered, so ``x < 20`` keeps every fifth row or so in
    runs of every length."""
    return ((np.arange(rows, dtype=np.int64) * 37 + 11) % 100) \
        .astype(np.int32)


# -- building the canonical loop ---------------------------------------------

def load_x(fb, i, n: int = 0, op: str = "i32.load", size: int = 4):
    fb.get(i).i32(size).emit("i32.mul").emit(op, 0, column_address(n))


def x_below(k: int):
    def prefix(fb, i, ctx):
        load_x(fb, i)
        fb.i32(k).emit("i32.lt_s")
    return prefix


def emit_row(fb, i, ctx):
    """THEN's default: ``out[count] = i; count += 1`` — the cursor is a
    global, which persists from call to call as the rule requires."""
    fb.emit("global.get", COUNT).i32(4).emit("i32.mul")
    fb.get(i)
    fb.emit("i32.store", 0, ctx["out"])
    fb.emit("global.get", COUNT).i32(1).emit("i32.add")
    fb.emit("global.set", COUNT)


def scan_module(prefix, then=emit_row, *, columns: int = 1, else_=None,
                after_if=None, before_loop=None, locals_=(),
                helpers=None):
    """``scan(begin, end)``: the canonical loop around ``prefix`` (which
    leaves the condition on the stack) and ``then``; the keyword hooks
    break the shape in one place each."""
    mb = ModuleBuilder("scan")
    mb.add_memory(1, 1 << 16)
    mb.add_global("i32", 0, name="count")
    ctx = {"out": column_address(columns)}
    if helpers is not None:
        helpers(mb, ctx)
    fb = mb.function("scan", params=[("i32", "begin"), ("i32", "end")],
                     export=True)
    i = fb.local("i32", "i")
    for name, ty in locals_:
        ctx[name] = fb.local(ty, name)
    fb.get(0).set(i)
    if before_loop is not None:
        before_loop(fb, i, ctx)
    with fb.block() as done:
        with fb.loop() as top:
            fb.get(i).get(1).emit("i32.ge_s")
            fb.br_if(done)
            prefix(fb, i, ctx)
            with fb.if_() as iff:
                then(fb, i, ctx)
                if else_ is not None:
                    iff.else_()
                    else_(fb, i, ctx)
            if after_if is not None:
                after_if(fb, i, ctx)
            fb.get(i).i32(1).emit("i32.add").set(i)
            fb.br(top)
    return mb.finish()


def instantiate(module, mode, columns, writable=False, profile=None):
    space = AddressSpace()
    buffers = [bytearray(np.asarray(c).tobytes()) for c in columns]
    for n, buffer in enumerate(buffers):
        assert space.map_buffer(f"col{n}", buffer, writable=writable) \
            == column_address(n)
    out = space.alloc("out", WASM_PAGE_SIZE)
    assert out == column_address(len(columns))
    instance = Engine(EngineConfig(mode=mode)).instantiate(
        module, memory=LinearMemory(space), profile=profile)
    return instance, space, buffers


def observe(module, mode, columns, begin, end, **kwargs):
    """Run ``scan(begin, end)``; the instance and everything it left."""
    instance, space, buffers = instantiate(module, mode, columns, **kwargs)
    try:
        instance.invoke("scan", begin, end)
        outcome = "ok"
    except Trap as trap:
        outcome = ("trap", trap.kind)
    state = (outcome, list(instance.globals),
             space.read(column_address(len(columns)), WASM_PAGE_SIZE),
             [bytes(b) for b in buffers])
    return instance, state


def check(module, columns=None, begin=0, end=ROWS, *, split: bool,
          writable=False):
    """TurboFan's state equals both oracles'; the pass fired (or did
    not) as ``split`` says.  Returns the TurboFan instance and state."""
    columns = [i32_column()] if columns is None else columns
    instance, state = observe(module, "turbofan", columns, begin, end,
                              writable=writable)
    for oracle in ORACLES:
        _, expected = observe(module, oracle, columns, begin, end,
                              writable=writable)
        assert state[0] == expected[0], (oracle, state[0], expected[0])
        assert state[1] == expected[1], (oracle, state[1], expected[1])
        assert state[2] == expected[2], oracle
        assert state[3] == expected[3], oracle
    assert instance.stats.loops_prefiltered == int(split)
    assert hasattr(instance.funcs[instance._exports["scan"].index],
                   "scalar") == split
    return instance, state


def rows_written(state) -> list[int]:
    count = state[1][COUNT]
    return list(struct.unpack_from(f"<{count}i", state[2]))


# -- the recogniser ------------------------------------------------------------

class TestRecogniser:
    def test_accepts_the_canonical_loop(self):
        instance, state = check(scan_module(x_below(20)), split=True)
        kept = [i for i, x in enumerate(i32_column()) if x < 20]
        assert rows_written(state) == kept
        stats = instance.stats
        assert stats.prefilter_rows_seen == ROWS
        # survivors plus the rejected rows inside runs, never all rows
        assert len(kept) <= stats.prefilter_rows_kept < ROWS // 2
        fn = instance.funcs[instance._exports["scan"].index]
        assert fn.tier == "turbofan"
        assert fn.compiled.prefilter.source == "(v[0] < k0)"

    def test_driver_keeps_row_order_across_calls(self):
        module = scan_module(x_below(50))
        instance, space, _ = instantiate(module, "turbofan", [i32_column()])
        for begin in range(0, ROWS, 250):
            instance.invoke("scan", begin, begin + 250)
        count = instance.globals[COUNT]
        out = space.read(column_address(1), 4 * count)
        assert list(struct.unpack(f"<{count}i", out)) == \
            [i for i, x in enumerate(i32_column()) if x < 50]

    def test_induction_local_assigned_in_the_body(self):
        def then(fb, i, ctx):
            emit_row(fb, i, ctx)
            fb.i32(ROWS - 10).set(i)        # jumps ahead, reads nothing
        _, state = check(scan_module(x_below(20), then), split=False)
        assert rows_written(state)[1] > ROWS - 10

    def test_parameter_assigned_in_the_body(self):
        def then(fb, i, ctx):
            emit_row(fb, i, ctx)
            fb.i32(ROWS // 2).set(1)        # the loop now ends halfway
        _, state = check(scan_module(x_below(20), then), split=False)
        assert max(rows_written(state)) < ROWS // 2

    def test_parameter_read_in_the_body(self):
        """``begin`` differs from run to run: ``i - begin`` would too."""
        def then(fb, i, ctx):
            fb.get(i).get(0).emit("i32.sub").i32(4).emit("i32.mul")
            fb.get(i)
            fb.emit("i32.store", 0, ctx["out"])
        check(scan_module(x_below(20), then), begin=100, split=False)

    def test_store_in_the_prefix(self):
        def prefix(fb, i, ctx):     # counts *every* row, kept or not
            fb.i32(ctx["out"] + 4096)
            fb.i32(ctx["out"] + 4096).emit("i32.load", 0, 0)
            fb.i32(1).emit("i32.add").emit("i32.store", 0, 0)
            x_below(20)(fb, i, ctx)
        check(scan_module(prefix), split=False)

    def test_global_set_in_the_prefix(self):
        def prefix(fb, i, ctx):
            fb.emit("global.get", 1).i32(1).emit("i32.add")
            fb.emit("global.set", 1)
            x_below(20)(fb, i, ctx)

        def helpers(mb, ctx):
            mb.add_global("i32", 0, name="seen")
        _, state = check(scan_module(prefix, helpers=helpers), split=False)
        assert state[1][1] == ROWS

    def test_call_in_the_prefix(self):
        def helpers(mb, ctx):
            mb.add_global("i32", 0, name="calls")
            fb = mb.function("bump", params=[("i32", "x")], results=["i32"])
            fb.emit("global.get", 1).i32(1).emit("i32.add")
            fb.emit("global.set", 1)
            fb.get(0)
            ctx["bump"] = fb.func_index

        def prefix(fb, i, ctx):
            load_x(fb, i)
            fb.call(ctx["bump"])
            fb.i32(20).emit("i32.lt_s")
        _, state = check(scan_module(prefix, helpers=helpers), split=False)
        assert state[1][1] == ROWS

    @pytest.mark.parametrize("op", ["i32.div_s", "i32.rem_u"])
    def test_integer_division_in_the_prefix(self, op):
        """Every tier traps at the first row whose x is 0, with the
        rows before it written."""
        def prefix(fb, i, ctx):
            fb.i32(1000)
            load_x(fb, i)
            fb.emit(op).i32(30).emit("i32.gt_s")
            load_x(fb, i)       # a mask of this would skip the x = 0 row
            fb.i32(5).emit("i32.gt_s").emit("i32.and")
        _, state = check(scan_module(prefix), split=False)
        assert state[0] == ("trap", "integer divide by zero")
        zero = int(np.flatnonzero(i32_column() == 0)[0])
        assert rows_written(state) and max(rows_written(state)) < zero

    def test_float_truncation_in_the_prefix(self):
        column = np.linspace(0.0, 1e12, ROWS)       # overflows i32 midway

        def prefix(fb, i, ctx):
            load_x(fb, i, op="f64.load", size=8)
            fb.emit("i32.trunc_f64_s").i32(7).emit("i32.and")
            load_x(fb, i, op="f64.load", size=8)    # ... skip the big ones
            fb.f64(1e6).emit("f64.lt").emit("i32.and")
        _, state = check(scan_module(prefix), [column], split=False)
        assert state[0] == ("trap", "integer overflow")

    def test_non_empty_else_arm(self):
        def else_(fb, i, ctx):
            fb.emit("global.get", 1).i32(1).emit("i32.add")
            fb.emit("global.set", 1)

        def helpers(mb, ctx):
            mb.add_global("i32", 0, name="rejected")
        _, state = check(scan_module(x_below(20), else_=else_,
                                     helpers=helpers), split=False)
        assert state[1][COUNT] + state[1][1] == ROWS

    def test_statement_after_the_if(self):
        def after_if(fb, i, ctx):
            fb.emit("global.get", 1).i32(1).emit("i32.add")
            fb.emit("global.set", 1)

        def helpers(mb, ctx):
            mb.add_global("i32", 0, name="rows")
        _, state = check(scan_module(x_below(20), after_if=after_if,
                                     helpers=helpers), split=False)
        assert state[1][1] == ROWS

    def test_statement_before_the_loop(self):
        def before_loop(fb, i, ctx):    # runs once per *call*
            fb.emit("global.get", 1).i32(1).emit("i32.add")
            fb.emit("global.set", 1)

        def helpers(mb, ctx):
            mb.add_global("i32", 0, name="calls")
        _, state = check(scan_module(x_below(20), before_loop=before_loop,
                                     helpers=helpers), split=False)
        assert state[1][1] == 1

    def test_then_returns(self):
        def then(fb, i, ctx):
            emit_row(fb, i, ctx)
            fb.emit("global.get", COUNT).i32(5).emit("i32.ge_s")
            with fb.if_():
                fb.ret()
        _, state = check(scan_module(x_below(20), then), split=False)
        assert state[1][COUNT] == 5

    def test_then_leaves_the_loop(self):
        """``br_if 2`` from THEN: out of the block after five rows."""
        def then(fb, i, ctx):
            emit_row(fb, i, ctx)
            fb.emit("global.get", COUNT).i32(5).emit("i32.ge_s")
            fb.emit("br_if", 2)
        _, state = check(scan_module(x_below(20), then), split=False)
        assert state[1][COUNT] == 5

    def test_then_restarts_the_loop(self):
        """``br`` to the loop label skips the increment: the first kept
        row runs twice (a global makes it happen only once)."""
        def then(fb, i, ctx):
            emit_row(fb, i, ctx)
            fb.emit("global.get", 1).emit("i32.eqz")
            with fb.if_():
                fb.i32(1).emit("global.set", 1)
                fb.emit("br", 2)        # inner if -> THEN's if -> loop

        def helpers(mb, ctx):
            mb.add_global("i32", 0, name="once")
        _, state = check(scan_module(x_below(20), then, helpers=helpers),
                         split=False)
        written = rows_written(state)
        assert written[0] == written[1]

    def test_branch_to_thens_own_end_is_fine(self):
        def then(fb, i, ctx):
            fb.get(i).i32(1).emit("i32.and")
            fb.emit("br_if", 0)             # odd rows: nothing
            emit_row(fb, i, ctx)
        _, state = check(scan_module(x_below(20), then), split=True)
        assert all(i % 2 == 0 for i in rows_written(state))


class TestNoStateInLocals:
    """Rule 2: each of the refused modules changes its output when a
    local is re-zeroed between two rows, which is what a run boundary
    does."""

    def test_counter_local_in_then(self):
        def then(fb, i, ctx):
            c = ctx["c"]
            fb.get(c).i32(1).emit("i32.add").set(c)
            fb.get(c).i32(1).emit("i32.store8", 0, ctx["out"])
        _, state = check(scan_module(x_below(20), then,
                                     locals_=[("c", "i32")]), split=False)
        kept = int((i32_column() < 20).sum())
        assert state[2][1:kept + 2] == b"\x01" * kept + b"\x00"

    def test_then_set_local_read_in_a_later_prefix(self):
        def prefix(fb, i, ctx):     # keeps everything after the first hit
            load_x(fb, i)
            fb.i32(5).emit("i32.lt_s")
            fb.get(ctx["t"]).emit("i32.or")

        def then(fb, i, ctx):
            emit_row(fb, i, ctx)
            fb.i32(1).set(ctx["t"])
        _, state = check(scan_module(prefix, then, locals_=[("t", "i32")]),
                         split=False)
        first = int(np.flatnonzero(i32_column() < 5)[0])
        assert rows_written(state) == list(range(first, ROWS))

    def test_local_set_under_a_branch_and_read_after_it(self):
        def then(fb, i, ctx):
            t = ctx["t"]
            with fb.block() as skip:
                fb.get(i).i32(3).emit("i32.and")
                fb.br_if(skip)              # t survives on 3 rows of 4
                fb.get(i).set(t)
            fb.emit("global.get", COUNT).i32(4).emit("i32.mul")
            fb.get(t)
            fb.emit("i32.store", 0, ctx["out"])
            fb.emit("global.get", COUNT).i32(1).emit("i32.add")
            fb.emit("global.set", COUNT)
        _, state = check(scan_module(x_below(20), then,
                                     locals_=[("t", "i32")]), split=False)
        written = rows_written(state)
        assert any(a == b != 0 for a, b in zip(written, written[1:]))

    def test_local_set_in_one_if_arm_and_read_after_it(self):
        def then(fb, i, ctx):
            t = ctx["t"]
            fb.get(i).i32(1).emit("i32.and")
            with fb.if_():
                fb.get(i).set(t)
            fb.get(t).emit("global.set", 1)
            emit_row(fb, i, ctx)

        def helpers(mb, ctx):
            mb.add_global("i32", 0, name="last_odd")
        check(scan_module(x_below(20), then, locals_=[("t", "i32")],
                          helpers=helpers), split=False)

    def test_then_may_keep_locals_it_assigns_first(self):
        """The generated find-or-insert shape: a local assigned before
        the first branch of a block, re-assigned on one path inside it,
        read after it; a loop walking a chain on a local of its own."""
        def then(fb, i, ctx):
            t, n = ctx["t"], ctx["n"]
            fb.get(i).i32(2).emit("i32.mul").set(t)
            with fb.block() as found:
                fb.get(i).i32(1).emit("i32.and")
                fb.br_if(found)
                fb.get(t).i32(1).emit("i32.add").set(t)
            fb.i32(3).set(n)
            with fb.block() as done:
                with fb.loop() as again:
                    fb.get(n).emit("i32.eqz")
                    fb.br_if(done)
                    fb.get(n).i32(1).emit("i32.sub").set(n)
                    fb.get(t).i32(10).emit("i32.add").set(t)
                    fb.br(again)
            fb.emit("global.get", COUNT).i32(4).emit("i32.mul")
            fb.get(t)
            fb.emit("i32.store", 0, ctx["out"])
            fb.emit("global.get", COUNT).i32(1).emit("i32.add")
            fb.emit("global.set", COUNT)
        _, state = check(scan_module(x_below(20), then,
                                     locals_=[("t", "i32"), ("n", "i32")]),
                         split=True)
        kept = [i for i, x in enumerate(i32_column()) if x < 20]
        assert rows_written(state) == [
            2 * i + (i % 2 == 0) + 30 for i in kept]

    def test_a_generated_group_by_is_accepted(self):
        """... the real thing: scan -> filter -> hash group-by."""
        db = Database()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, g INT, x INT)")
        db.table("t").append_rows(
            [(i, i % 7, (i * 37) % 100) for i in range(500)])
        sql = "SELECT g, COUNT(*), SUM(x) FROM t WHERE x < 30 GROUP BY g"
        result = db.execute(sql, engine="wasm[turbofan]")
        assert result.run.tier_stats.loops_prefiltered == 1
        assert sorted(result.rows) == sorted(
            db.execute(sql, engine="wasm[liftoff]").rows)


# -- the mask -------------------------------------------------------------------

def mask_of(module, columns, begin=0, end=None):
    """The lowered mask over ``[begin, end)`` and its source."""
    end = len(columns[0]) if end is None else end
    instance, _, _ = instantiate(module, "turbofan", columns)
    plan = instance.funcs[instance._exports["scan"].index] \
        .compiled.prefilter
    views = [prefilter._column(instance.memory.pages, load, begin,
                               end - begin) for load in plan.loads]
    iv = np.arange(begin, end, dtype=np.int32)
    with np.errstate(all="ignore"):
        return np.asarray(plan.mask(iv, views)), plan.source


def kept_rows(module, columns, begin=0, end=None):
    end = len(columns[0]) if end is None else end
    _, state = check(module, columns, begin, end, split=True)
    return rows_written(state)


I64_EDGES = np.array(
    [0, 1, -1, 2**63 - 1, -2**63, 2**62, -2**62, 2**31, -2**31 - 1, 7] * 10,
    dtype=np.int64)
F64_EDGES = np.array(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 1.5, -1.5, 5e-324, 1e308,
     -1e308] * 10)


class TestLowering:
    """The mask is *exactly* the predicate where the lowering
    understands every conjunct (checked against the rows the scalar
    code keeps), and a superset where it does not."""

    def assert_exact(self, prefix, columns):
        module = scan_module(prefix, columns=len(columns))
        mask, _ = mask_of(module, columns)
        assert list(np.flatnonzero(mask)) == kept_rows(module, columns)

    @pytest.mark.parametrize("op", ["lt_u", "gt_u", "le_u", "ge_u"])
    def test_unsigned_compares(self, op):
        column = np.array([0, 1, -1, -2, 2**31 - 1, -2**31, 5, -5] * 12,
                          dtype=np.int32)

        def prefix(fb, i, ctx):
            load_x(fb, i)
            fb.i32(-2).emit(f"i32.{op}")
        self.assert_exact(prefix, [column])

    @pytest.mark.parametrize("op", ["lt_s", "ge_s", "lt_u", "ge_u", "eq",
                                    "ne"])
    def test_i64_extremes(self, op):
        def prefix(fb, i, ctx):
            load_x(fb, i, op="i64.load", size=8)
            fb.i64(2**62).emit(f"i64.{op}")
        self.assert_exact(prefix, [I64_EDGES])

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_i64_arithmetic_wraps(self, op):
        def prefix(fb, i, ctx):
            load_x(fb, i, op="i64.load", size=8)
            fb.i64(2**62 + 12345).emit(f"i64.{op}")
            fb.i64(0).emit("i64.lt_s")
        self.assert_exact(prefix, [I64_EDGES])

    def test_i32_arithmetic_wraps(self):
        column = np.array([2**31 - 1, -2**31, 2**30, -7, 0, 3] * 16,
                          dtype=np.int32)

        def prefix(fb, i, ctx):
            load_x(fb, i)
            fb.i32(2**31 - 1).emit("i32.add")
            fb.get(i).emit("i32.mul")
            fb.i32(1000).emit("i32.gt_s")
        self.assert_exact(prefix, [column])

    @pytest.mark.parametrize("op", ["lt", "le", "gt", "ge", "eq", "ne"])
    def test_nan_and_signed_zero(self, op):
        def prefix(fb, i, ctx):
            load_x(fb, i, op="f64.load", size=8)
            fb.f64(0.0).emit(f"f64.{op}")
        self.assert_exact(prefix, [F64_EDGES])

    def test_float_division_by_zero(self):
        """x / ±0.0 and 0.0 / 0.0: inf, -inf and NaN as ``V.fdiv``."""
        divisors = np.array([0.0, -0.0, 2.0, math.nan] * 25)

        def prefix(fb, i, ctx):
            load_x(fb, i, op="f64.load", size=8)
            load_x(fb, i, 1, op="f64.load", size=8)
            fb.emit("f64.div").f64(1.0).emit("f64.gt")
        self.assert_exact(prefix, [F64_EDGES, divisors])

    def test_conversions_and_narrow_loads(self):
        column = np.array([0, 1, 127, 128, 200, 255] * 20, dtype=np.uint8)

        def prefix(fb, i, ctx):
            load_x(fb, i, op="i32.load8_s", size=1)
            fb.emit("i64.extend_i32_s").i64(-1).emit("i64.mul")
            fb.emit("f64.convert_i64_s").f64(0.5).emit("f64.gt")
            load_x(fb, i, op="i32.load8_u", size=1)
            fb.emit("i64.extend_i32_u").emit("i32.wrap_i64")
            fb.i32(200).emit("i32.ne")
            fb.emit("i32.and")
        self.assert_exact(prefix, [column])

    def test_or_not_and_bitwise_on_non_booleans(self):
        """``i32.and`` is bitwise: 2 & 1 is false though both are true."""
        def prefix(fb, i, ctx):
            load_x(fb, i)
            fb.i32(3).emit("i32.and")               # 0..3, not a boolean
            load_x(fb, i)
            fb.i32(50).emit("i32.ge_s")
            fb.emit("i32.eqz").emit("i32.eqz")
            fb.emit("i32.xor")
            load_x(fb, i)
            fb.i32(90).emit("i32.gt_s")
            fb.emit("i32.or")
        self.assert_exact(prefix, [i32_column()])

    def test_parameter_slot_is_read_once_per_call(self):
        """A load at a constant address — the ``$n`` slots."""
        threshold = np.zeros(ROWS, dtype=np.int32)
        threshold[3] = 40

        def prefix(fb, i, ctx):
            load_x(fb, i)
            fb.i32(column_address(1) + 12).emit("i32.load", 0, 0)
            fb.emit("i32.lt_s")
        module = scan_module(prefix, columns=2)
        columns = [i32_column(), threshold]
        mask, source = mask_of(module, columns)
        assert source == "(v[0] < v[1])"
        assert list(np.flatnonzero(mask)) == kept_rows(module, columns) \
            == [i for i, x in enumerate(i32_column()) if x < 40]

    def test_opaque_conjunct_is_dropped(self):
        """rotl is not lowered: the mask keeps a superset, the scalar
        code decides."""
        def prefix(fb, i, ctx):
            load_x(fb, i)
            fb.i32(60).emit("i32.lt_s")
            load_x(fb, i)
            fb.i32(1).emit("i32.rotl").i32(40).emit("i32.lt_s")
            fb.emit("i32.and")
            fb.emit("global.get", COUNT).i32(10_000).emit("i32.lt_s")
            fb.emit("i32.and")
        module = scan_module(prefix)
        mask, source = mask_of(module, [i32_column()])
        assert source == "(v[0] < k0)"
        kept = kept_rows(module, [i32_column()])
        assert kept == [i for i, x in enumerate(i32_column()) if x < 20]
        assert set(kept) < set(np.flatnonzero(mask))

    def test_an_opaque_side_takes_the_whole_disjunction_with_it(self):
        def prefix(fb, i, ctx):
            load_x(fb, i)
            fb.i32(10).emit("i32.lt_s")
            load_x(fb, i)
            fb.i32(3).emit("i32.shr_u").i32(11).emit("i32.eq")
            fb.emit("i32.or")
            load_x(fb, i)
            fb.i32(95).emit("i32.lt_s")
            fb.emit("i32.and")
        module = scan_module(prefix)
        _, source = mask_of(module, [i32_column()])
        assert source == "(v[2] < k0)"
        kept_rows(module, [i32_column()])

    def test_nothing_understood_means_no_split(self):
        def prefix(fb, i, ctx):
            load_x(fb, i)
            fb.i32(1).emit("i32.rotl").i32(40).emit("i32.lt_s")
        check(scan_module(prefix), split=False)

    def test_row_invariant_condition_means_no_split(self):
        def prefix(fb, i, ctx):
            fb.i32(column_address(0)).emit("i32.load", 0, 0)
            fb.i32(50).emit("i32.lt_s")
        check(scan_module(prefix), split=False)

    def test_load_that_is_neither_form_is_refused(self):
        """A row id read from one column addresses another: a skipped
        row's load could trap."""
        rowids = np.arange(ROWS, dtype=np.int32)
        rowids[500] = 1 << 24           # far outside anything mapped

        def prefix(fb, i, ctx):
            load_x(fb, i)
            fb.i32(4).emit("i32.mul").emit("i32.load", 0, column_address(1))
            fb.i32(20).emit("i32.lt_s")
            load_x(fb, i)       # a mask of this would skip the bad row id
            fb.i32(ROWS).emit("i32.lt_s").emit("i32.and")
        _, state = check(scan_module(prefix, columns=2),
                         [rowids, i32_column()], split=False)
        assert state[0] == ("trap", "out of bounds memory access")


# -- the per-call guards --------------------------------------------------------

def flip_next_row(fb, i, ctx):
    """THEN stores into the very column the filter reads: the next
    row's x becomes 0 (kept) whatever it was."""
    emit_row(fb, i, ctx)
    fb.get(i).i32(4).emit("i32.mul").i32(0)
    fb.emit("i32.store", 0, column_address(0) + 4)


class TestGuards:
    def test_aliasing_through_a_writable_mapping_declines(self):
        """Once one row is kept every later row is: a mask computed up
        front would miss all but the first of them."""
        column = np.full(ROWS, 99, dtype=np.int32)
        column[100] = 1
        instance, state = check(scan_module(x_below(20), flip_next_row),
                                [column], end=ROWS - 1, split=True,
                                writable=True)
        assert rows_written(state) == list(range(100, ROWS - 1))
        assert instance.stats.prefilter_rows_seen == 0

    def test_aliasing_through_a_read_only_mapping_traps_identically(self):
        column = np.full(ROWS, 99, dtype=np.int32)
        column[100] = 1
        instance, state = check(scan_module(x_below(20), flip_next_row),
                                [column], end=ROWS - 1, split=True)
        assert state[0] == ("trap", "out of bounds memory access")
        assert rows_written(state) == [100]
        assert instance.stats.prefilter_rows_seen == ROWS - 1

    def test_range_past_the_end_of_the_buffer_traps_identically(self):
        """100 rows are backed, 200 are asked for."""
        instance, state = check(scan_module(x_below(20)),
                                [i32_column(100)], end=200, split=True)
        assert state[0] == ("trap", "out of bounds memory access")
        assert rows_written(state) == \
            [i for i, x in enumerate(i32_column(100)) if x < 20]
        assert instance.stats.prefilter_rows_seen == 0

    def test_range_into_an_unmapped_page_traps_identically(self):
        rows = WASM_PAGE_SIZE // 4

        def then(fb, i, ctx):       # the output region is the next page:
            fb.emit("global.get", COUNT).i32(1).emit("i32.add")
            fb.emit("global.set", COUNT)    # count only
        module = scan_module(x_below(20), then)
        column = i32_column(rows)
        space_rows = rows + 50      # 50 rows into the page after "out"
        instance, state = observe(module, "turbofan", [column],
                                  2 * rows, 2 * rows + space_rows)
        for oracle in ORACLES:
            assert observe(module, oracle, [column], 2 * rows,
                           2 * rows + space_rows)[1] == state
        assert state[0] == ("trap", "out of bounds memory access")
        assert instance.stats.prefilter_rows_seen == 0

    def test_range_past_the_page_table_traps_identically(self):
        """A four-page address space; ranges that run off it, or start
        beyond it."""
        module = scan_module(x_below(20))
        column = i32_column(WASM_PAGE_SIZE // 4)

        def run(mode, begin=len(column) - 100, end=7 * len(column)):
            space = AddressSpace(max_pages=4)
            space.map_buffer("col", bytearray(column.tobytes()))
            space.alloc("out", WASM_PAGE_SIZE)
            instance = Engine(EngineConfig(mode=mode)).instantiate(
                module, memory=LinearMemory(space))
            with pytest.raises(Trap) as err:
                instance.invoke("scan", begin, end)
            return err.value.kind, instance.globals[COUNT]
        assert run("turbofan") == run("liftoff") == run("interpreter")
        assert run("turbofan")[0] == "out of bounds memory access"
        beyond = 5 * len(column), 5 * len(column) + 200
        assert run("turbofan", *beyond) == run("liftoff", *beyond) == (
            "out of bounds memory access", 0)

    def test_long_ranges_are_masked_block_by_block(self):
        rows = 3 * WASM_PAGE_SIZE // 4 + 100        # three blocks, nearly
        column = i32_column(rows)
        space = AddressSpace()
        space.map_buffer("col", bytearray(column.tobytes()))
        space.alloc("out", WASM_PAGE_SIZE)
        # (the column takes four pages, ``emit_row`` would store into
        # the second: count the rows instead)
        module = scan_module(
            x_below(3), lambda fb, i, ctx: (
                fb.emit("global.get", COUNT).i32(1).emit("i32.add")
                .emit("global.set", COUNT)))
        instance = Engine(EngineConfig(mode="turbofan")).instantiate(
            module, memory=LinearMemory(space))
        instance.invoke("scan", 0, rows)
        assert instance.globals[COUNT] == int((column < 3).sum())
        assert instance.stats.prefilter_rows_seen == rows

    def test_pages_of_two_buffers_are_not_one_column(self):
        """Page 2 of the column's range is re-pointed at another buffer
        (the first one is long enough, so only contiguity can tell)."""
        rows = WASM_PAGE_SIZE // 2      # two pages of i32
        column = np.full(rows, 99, dtype=np.int32)
        other = np.zeros(WASM_PAGE_SIZE // 4, dtype=np.int32)   # all kept
        module = scan_module(x_below(20), columns=2)

        def run(mode):
            space = AddressSpace()
            space.map_buffer("col", bytearray(column.tobytes()))
            view = memoryview(bytearray(other.tobytes())).toreadonly()
            space.pages[(COL0 >> 16) + 1] = (view, 0)
            space.alloc("out", WASM_PAGE_SIZE)
            instance = Engine(EngineConfig(mode=mode)).instantiate(
                module, memory=LinearMemory(space))
            instance.invoke("scan", 0, rows)
            return instance, instance.globals[COUNT]
        instance, count = run("turbofan")
        assert count == rows // 2 == run("liftoff")[1]
        assert instance.stats.prefilter_rows_seen == 0

    def test_short_ranges_run_the_scalar_loop(self):
        module = scan_module(x_below(20))
        instance, _ = check(module, end=MIN_ROWS - 1, split=True)
        assert instance.stats.prefilter_rows_seen == 0
        instance, _ = check(module, end=MIN_ROWS, split=True)
        assert instance.stats.prefilter_rows_seen == MIN_ROWS
        for begin, end in ((5, 5), (9, 3), (-4, 2)):
            check(module, begin=begin, end=end, split=True)

    def test_instrumented_runs_are_not_transformed(self):
        module = scan_module(x_below(20))
        counts = {}
        for mode in ("turbofan", "liftoff"):
            profile = Profile()
            instance, _, _ = instantiate(module, mode, [i32_column()],
                                         profile=profile)
            instance.invoke("scan", 0, ROWS)
            counts[mode] = profile.instructions
            assert instance.stats.loops_prefiltered == 0
        assert counts["turbofan"] == counts["liftoff"] > 10 * ROWS

    def test_survivors_under_the_gap_share_a_run(self):
        """An alternating mask is one call; one row in RUN_GAP splits."""
        calls = []

        def count_calls(instance):
            fn = instance.funcs[instance._exports["scan"].index]
            plan = fn.compiled.prefilter

            def scalar(a, b):
                calls.append((a, b))
                return fn.scalar(a, b)
            return plan.bind(scalar, instance)

        module = scan_module(x_below(1))
        for period, expected in ((RUN_GAP - 1, 1),
                                 (RUN_GAP, ROWS // RUN_GAP + 1)):
            column = np.ones(ROWS, dtype=np.int32)
            column[::period] = 0
            instance, _, _ = instantiate(module, "turbofan", [column])
            calls.clear()
            count_calls(instance)(0, ROWS)
            assert len(calls) == expected
            assert instance.globals[COUNT] == len(column[::period])
        dense = np.zeros(ROWS, dtype=np.int32)
        instance, _, _ = instantiate(module, "turbofan", [dense])
        calls.clear()
        count_calls(instance)(0, ROWS)
        assert calls == [(0, ROWS)]


# -- through the host: morsels, chunks, partitions --------------------------------

TABLE_ROWS = 40_000


@pytest.fixture(scope="module")
def db():
    database = Database(default_engine="volcano")
    database.execute("CREATE TABLE t (id INT PRIMARY KEY, x INT, y DOUBLE)")
    database.table("t").append_rows(
        [(i, (i * 7919) % 1000, i * 0.5) for i in range(TABLE_ROWS)])
    return database


SQL = "SELECT id, y FROM t WHERE x < 50 AND y >= 100.0"


def prepared(db, mode, **engine_args):
    stmt = parse(SQL)
    analyze(stmt, db.catalog)
    plan = db.plan(stmt)
    engine = WasmEngine(mode=mode, **engine_args)
    return engine, plan, engine.prepare_executable(plan, db.catalog)


class TestThroughTheHost:
    def test_morsels_are_still_morsels(self, db):
        reference = db.execute(SQL, engine="wasm[liftoff]")
        result = db.execute(SQL, engine="wasm[turbofan]")
        assert result.rows == reference.rows
        assert result.run.pipeline_stats == [
            {**stat, "seconds": result.run.pipeline_stats[n]["seconds"]}
            for n, stat in enumerate(reference.run.pipeline_stats)]
        stats = result.run.tier_stats
        assert stats.loops_prefiltered == 1
        assert stats.prefilter_rows_seen == TABLE_ROWS
        assert stats.prefilter_rows_kept < TABLE_ROWS // 10

    def test_chunked_rewiring(self, db):
        reference = db.execute(SQL, engine="wasm[liftoff]").rows
        for window in (7777, 16384, 100):
            engine, plan, executable = prepared(
                db, "turbofan", table_window_rows=window)
            result = engine.execute_prepared(executable, plan, db.catalog)
            assert result.rows == reference
            assert result.run.rewires == -(-TABLE_ROWS // window)
            seen = result.run.tier_stats.prefilter_rows_seen
            assert seen == TABLE_ROWS - (
                TABLE_ROWS % window if TABLE_ROWS % window < MIN_ROWS
                else 0)

    def test_partition_clamps(self, db):
        for partition in (("t", 1000, 7000), ("t", 39_990, 10**6),
                          ("t", 16_000, 16_500)):
            rows = {}
            for mode in ("turbofan", "liftoff"):
                engine, plan, executable = prepared(db, mode)
                rows[mode] = engine.execute_prepared(
                    executable, plan, db.catalog,
                    QueryRun(partition=partition)).rows
            assert rows["turbofan"] == rows["liftoff"]
            assert all(partition[1] <= row[0] < partition[2]
                       for row in rows["turbofan"])

    def test_rerun_resets_the_per_run_counts(self, db):
        engine, plan, executable = prepared(db, "turbofan")
        for _ in range(3):
            result = engine.execute_prepared(executable, plan, db.catalog)
            stats = result.run.tier_stats
            assert stats.loops_prefiltered == 1
            assert stats.prefilter_rows_seen == TABLE_ROWS

    def test_trap_location_is_liftoffs(self, db):
        """Half of a column goes away under the compiled query: the
        trap names the same morsel on both tiers."""
        traps = {}
        for mode in ("turbofan", "liftoff"):
            engine, plan, executable = prepared(db, mode)
            half = db.table("t").column("x").values[:TABLE_ROWS // 2]
            executable.space.remap("col:t.x", memoryview(half).cast("B"))
            with pytest.raises(Trap) as err:
                engine.execute_prepared(executable, plan, db.catalog)
            traps[mode] = (err.value.kind, err.value.phase,
                           err.value.pipeline_index, err.value.morsel,
                           list(executable.rows))
        assert traps["turbofan"] == traps["liftoff"]
        assert traps["turbofan"][:4] == (
            "out of bounds memory access", "execution", 0, 1)

    def test_injected_morsel_trap_and_cancel_are_per_morsel(self, db):
        for mode in ("turbofan", "liftoff"):
            # this seed's second visit of the site is its first fault
            injector = FaultInjector(seed=7, rates={"trap.morsel": 0.5})
            engine, plan, executable = prepared(db, mode,
                                                fault_injector=injector)
            with pytest.raises(Trap) as err:
                engine.execute_prepared(executable, plan, db.catalog)
            assert injector.trials["trap.morsel"] == 2
            assert (err.value.pipeline_index, err.value.morsel) == (0, 1)

            token = CancelToken()
            calls = []

            def hook():
                calls.append(1)
                if len(calls) == 2:
                    token.cancel()
            engine, plan, executable = prepared(db, mode)
            with pytest.raises(QueryCancelled) as err:
                engine.execute_prepared(
                    executable, plan, db.catalog,
                    QueryRun(cancel_token=token, morsel_hook=hook))
            assert err.value.morsel == 2

    def test_governor_deadline_is_checked_between_morsels(self, db):
        from repro.errors import ResourceExhausted

        for mode in ("turbofan", "liftoff"):
            engine, plan, executable = prepared(db, mode,
                                                timeout_seconds=1e-9)
            with pytest.raises(ResourceExhausted) as err:
                engine.execute_prepared(executable, plan, db.catalog)
            assert err.value.morsel == 0

    def test_explain_analyze_shows_the_decision(self, db):
        lines = [row[0] for row in db.execute(
            f"EXPLAIN ANALYZE {SQL}", engine="wasm[turbofan]").rows]
        tiers = next(line for line in lines if line.startswith("tiers:"))
        assert "prefiltered=1 loop(s) kept" in tiers
        assert f"/{TABLE_ROWS} row(s)" in tiers
        lines = [row[0] for row in db.execute(
            f"EXPLAIN ANALYZE {SQL}", engine="wasm[liftoff]").rows]
        assert "prefiltered" not in "\n".join(lines)

    def test_tier_up_event_carries_the_split(self, db, tier_clock):
        tier_clock.promote_after(turbofan=1)
        result = db.execute(SQL, engine="wasm[adaptive]", trace=True)
        events = [e for e in result.trace.find("tier_up")
                  if e.attrs["name"] == "pipeline_0"]
        assert [e.attrs["prefiltered"] for e in events] == [1]
        (summary,) = result.trace.find("tier_stats")
        assert summary.attrs["loops_prefiltered"] == 1
        assert summary.attrs["prefilter_rows_seen"] < TABLE_ROWS
        assert result.rows == db.execute(SQL, engine="volcano").rows
