"""Resource governor: wall-clock and memory-page budgets."""

import time

import pytest

from repro.db import Database
from repro.errors import ConfigError, ResourceExhausted
from repro.robustness import ResourceGovernor
from repro.storage.rewiring import WASM_PAGE_SIZE, AddressSpace
from repro.wasm.runtime import LinearMemory


@pytest.fixture()
def db():
    database = Database()
    database.execute("CREATE TABLE t (id INT PRIMARY KEY, x INT)")
    database.table("t").append_rows([(i, i % 97) for i in range(4000)])
    return database


class TestGovernorUnit:
    def test_unlimited_governor_never_raises(self):
        gov = ResourceGovernor().start()
        gov.check()
        gov.charge_pages(10**6)

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ConfigError):
            ResourceGovernor(timeout_seconds=0)
        with pytest.raises(ConfigError):
            ResourceGovernor(max_memory_pages=-1)

    def test_deadline_trips_with_context(self):
        gov = ResourceGovernor(timeout_seconds=0.01).start()
        time.sleep(0.02)
        with pytest.raises(ResourceExhausted) as err:
            gov.check(phase="execution", pipeline_index=2, morsel=7)
        exc = err.value
        assert exc.resource == "wall_clock"
        assert exc.phase == "execution"
        assert exc.pipeline_index == 2
        assert exc.morsel == 7
        assert exc.retryable is False

    def test_page_budget_denies_before_reserving(self):
        gov = ResourceGovernor(max_memory_pages=4)
        gov.charge_pages(3)
        with pytest.raises(ResourceExhausted) as err:
            gov.charge_pages(2)
        assert err.value.resource == "memory_pages"
        assert err.value.retryable is True
        # the denied charge must not have been accounted
        assert gov.pages_charged == 3
        gov.charge_pages(1)  # exactly at the limit is fine

    def test_phase_attribute_used_as_default(self):
        gov = ResourceGovernor(max_memory_pages=1)
        gov.phase = "translation"
        with pytest.raises(ResourceExhausted) as err:
            gov.charge_pages(2)
        assert err.value.phase == "translation"


class TestAddressSpaceEnforcement:
    def test_reserve_charges_governor(self):
        space = AddressSpace()
        space.governor = ResourceGovernor(max_memory_pages=3)
        space.alloc("a", 2 * WASM_PAGE_SIZE)
        with pytest.raises(ResourceExhausted):
            space.alloc("b", 2 * WASM_PAGE_SIZE)
        # the failed alloc left no mapping behind
        assert "b" not in space.mappings

    def test_linear_memory_grow_propagates_budget_error(self):
        space = AddressSpace(first_page=0)
        space.governor = ResourceGovernor(max_memory_pages=2)
        memory = LinearMemory(space)
        space.alloc("seed", WASM_PAGE_SIZE)
        assert memory.grow(1) >= 0
        # over budget: the governor's error escapes (host policy), it is
        # NOT converted into the spec's silent -1
        with pytest.raises(ResourceExhausted):
            memory.grow(4)

    def test_grow_without_governor_keeps_spec_semantics(self):
        memory = LinearMemory(min_pages=1, max_pages=2)
        assert memory.grow(1) == 1
        assert memory.grow(10**6) == -1  # plain exhaustion: -1, no raise


class TestQueryBudgets:
    def test_timeout_surfaces_with_phase_context(self, db):
        engine = db.engine("wasm")
        engine.timeout_seconds = 1e-9
        try:
            with pytest.raises(ResourceExhausted) as err:
                db.execute("SELECT SUM(x) FROM t")
            assert err.value.resource == "wall_clock"
            assert err.value.phase is not None
        finally:
            engine.timeout_seconds = None

    def test_memory_budget_fails_oversized_query(self, db):
        engine = db.engine("wasm")
        engine.max_memory_pages = 8  # below the 16-page result window
        try:
            with pytest.raises(ResourceExhausted) as err:
                db.execute("SELECT x, COUNT(*) FROM t GROUP BY x")
            assert err.value.resource == "memory_pages"
        finally:
            engine.max_memory_pages = None

    def test_generous_budgets_leave_results_unchanged(self, db):
        reference = db.execute("SELECT SUM(x) FROM t",
                               engine="volcano").rows
        engine = db.engine("wasm")
        engine.timeout_seconds = 120.0
        engine.max_memory_pages = 1 << 14
        try:
            result = db.execute("SELECT SUM(x) FROM t")
            assert result.rows == reference
        finally:
            engine.timeout_seconds = None
            engine.max_memory_pages = None


class TestHeapGrowth:
    """The heap starts at the breakers' estimate plus a small slack;
    hash tables that outgrow it extend it through ``memory.grow``."""

    #: the planner underestimates both: GROUP BY over an expression,
    #: and a join below filters it takes for selective
    UNDERESTIMATED = [
        "SELECT k + v, COUNT(*) FROM big GROUP BY k + v",
        "SELECT big.id, other.k FROM big, other WHERE big.id = other.id"
        " AND other.k + 1 > 0 AND other.k * 2 > -1 AND other.k - 5 > -100",
    ]

    @pytest.fixture(scope="class")
    def big_db(self):
        import random

        rng = random.Random(5)
        database = Database()
        database.execute(
            "CREATE TABLE big (id INT PRIMARY KEY, k INT, v INT)")
        database.table("big").append_rows(
            [(i, rng.randrange(10**6), i % 97) for i in range(30000)])
        database.execute("CREATE TABLE other (id INT PRIMARY KEY, k INT)")
        database.table("other").append_rows(
            [(i, i) for i in range(30000)])
        return database

    @staticmethod
    def _prepare(database, sql):
        from repro.sql.analyzer import analyze
        from repro.sql.parser import parse

        stmt = parse(sql)
        analyze(stmt, database.catalog)
        plan = database.plan(stmt)
        engine = database.resolve_engine(database.default_engine)
        return engine, plan, engine.prepare_executable(plan, database.catalog)

    @pytest.mark.parametrize("sql", UNDERESTIMATED)
    def test_hash_table_outgrows_the_initial_heap(self, big_db, sql):
        engine, plan, executable = self._prepare(big_db, sql)
        initial_pages = executable.space._next_page
        result = engine.execute_prepared(executable, plan, big_db.catalog)
        grown = [name for name in executable.space.mappings
                 if name.startswith("__grow_")]
        assert grown and executable.space._next_page > initial_pages
        reference = big_db.execute(sql, engine="vectorized")
        assert sorted(result.rows) == sorted(reference.rows)
        assert len(result.rows) > 29000

    def test_page_budget_is_enforced_through_memory_grow(self, big_db):
        sql = self.UNDERESTIMATED[0]
        engine, plan, executable = self._prepare(big_db, sql)
        initial_pages = executable.space._next_page
        engine = big_db.engine("wasm")
        # the initial address space fits, the grown hash table does not
        engine.max_memory_pages = initial_pages + 4
        try:
            with pytest.raises(ResourceExhausted) as err:
                big_db.execute(sql)
            assert err.value.resource == "memory_pages"
            assert err.value.phase == "execution"
        finally:
            engine.max_memory_pages = None
