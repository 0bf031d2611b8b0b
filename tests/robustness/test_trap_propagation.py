"""End-to-end trap propagation: SQL -> generated Wasm -> host -> fallback.

The satellite contract: queries that trap in generated Wasm surface as
:class:`Trap` when no fallback is configured, and as successful results
when the chain is configured — across all tiering modes.
"""

import pytest

from repro.db import Database
from repro.errors import QueryError, Trap
from repro.robustness import DEFAULT_CHAIN, FaultInjector

MODES = ["adaptive", "liftoff", "turbofan"]

# wasm compiles conjunctions without short-circuit evaluation (mutable's
# default), so the division executes even for the y = 0 row and traps;
# volcano/vectorized short-circuit and return a correct result.
DIV_SQL = "SELECT id FROM t WHERE y <> 0 AND x / y > 4"
DIV_ROWS = [(1,), (3,)]


@pytest.fixture()
def db():
    database = Database()
    database.execute("CREATE TABLE t (id INT PRIMARY KEY, x INT, y INT)")
    database.execute(
        "INSERT INTO t VALUES (1, 10, 2), (2, 20, 0), (3, 30, 5)"
    )
    return database


class TestDivideByZero:
    @pytest.mark.parametrize("mode", MODES)
    def test_surfaces_as_trap_without_fallback(self, db, mode):
        with pytest.raises(Trap) as err:
            db.execute(DIV_SQL, engine=f"wasm[{mode}]")
        assert err.value.kind == "integer divide by zero"
        assert err.value.phase == "execution"
        assert err.value.pipeline_index is not None
        assert err.value.morsel is not None

    @pytest.mark.parametrize("mode", MODES)
    def test_succeeds_with_fallback(self, db, mode):
        db.fallback = (f"wasm[{mode}]", "volcano")
        result = db.execute(DIV_SQL, engine=f"wasm[{mode}]")
        assert result.rows == DIV_ROWS
        assert result.engine == "volcano"
        assert result.degraded

    def test_unconditional_division_fails_everywhere(self, db):
        # when the fault is in the data, the chain ends in one structured
        # QueryError that carries each engine's own failure
        with pytest.raises(QueryError) as err:
            db.fallback = DEFAULT_CHAIN
            db.execute("SELECT x / y FROM t")
        assert len(err.value.attempts) == 3


class TestOutOfBounds:
    @pytest.mark.parametrize("mode", MODES)
    def test_surfaces_as_trap_without_fallback(self, db, mode):
        engine = db.engine("wasm")
        engine.fault_injector = FaultInjector.always("trap.morsel")
        try:
            with pytest.raises(Trap) as err:
                db.execute("SELECT SUM(x) FROM t", engine=f"wasm[{mode}]")
            assert err.value.kind == "out of bounds memory access"
            assert err.value.phase == "execution"
            assert err.value.morsel == 0
        finally:
            engine.fault_injector = None

    @pytest.mark.parametrize("mode", MODES)
    def test_succeeds_with_fallback(self, db, mode):
        engine = db.engine("wasm")
        engine.fault_injector = FaultInjector.always("trap.morsel")
        try:
            db.fallback = DEFAULT_CHAIN
            result = db.execute("SELECT SUM(x) FROM t",
                                engine=f"wasm[{mode}]")
            assert result.rows == [(60,)]
            assert result.degraded
            assert result.engine == "volcano"
        finally:
            engine.fault_injector = None

    def test_transient_trap_recovers_on_the_interpreter(self, db):
        # a max_fires=1 injector models a transient fault: the first
        # attempt traps, the wasm[interpreter] rung already succeeds
        engine = db.engine("wasm")
        engine.fault_injector = FaultInjector.always("trap.morsel",
                                                     max_fires=1)
        try:
            db.fallback = DEFAULT_CHAIN
            result = db.execute("SELECT SUM(x) FROM t")
            assert result.rows == [(60,)]
            assert result.engine == "wasm[interpreter]"
        finally:
            engine.fault_injector = None
