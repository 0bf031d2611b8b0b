"""End-to-end tests of Figure 5's chunk-wise table processing.

A table "too large" for the mapping window is consumed through a fixed
rewired window: the host remaps chunk after chunk while the compiled
pipeline keeps addressing the same virtual range.
"""

import pytest

from repro.bench.workloads import selection_table, selectivity_threshold
from repro.db import Database
from repro.engines.wasm_engine import WasmEngine

from tests.engines.conftest import make_db, norm


@pytest.fixture(scope="module")
def db():
    database = Database(default_engine="volcano")
    database.register_table(selection_table(40_000, seed=33))
    return database


def run_chunked(db, sql, window):
    engine = WasmEngine(table_window_rows=window)
    db._engines["wasm"] = engine
    result = db.execute(sql, engine="wasm")
    db._engines["wasm"] = WasmEngine()
    return result, result.run.rewires


class TestChunkedScans:
    def test_aggregation_across_chunks(self, db):
        sql = (f"SELECT COUNT(*), SUM(y), MIN(x), MAX(x) FROM t"
               f" WHERE x < {selectivity_threshold(0.4)}")
        reference = db.execute(sql, engine="volcano").rows
        result, rewires = run_chunked(db, sql, window=6000)
        assert norm(result.rows) == norm(reference)
        assert rewires == -(-40_000 // 6000)  # ceil(rows / window)

    def test_window_boundary_not_multiple(self, db):
        sql = "SELECT COUNT(*) FROM t WHERE x >= 0"
        reference = db.execute(sql, engine="volcano").rows
        result, rewires = run_chunked(db, sql, window=7777)
        assert result.rows == reference
        assert rewires == 6  # 5 full chunks + remainder

    def test_window_larger_than_table_never_rewires(self, db):
        sql = "SELECT COUNT(*) FROM t"
        result, rewires = run_chunked(db, sql, window=1_000_000)
        assert rewires == 0
        assert result.rows == db.execute(sql, engine="volcano").rows

    def test_group_by_across_chunks(self, db):
        sql = ("SELECT x % 7, COUNT(*) FROM t WHERE x >= 0"
               " GROUP BY x % 7 ORDER BY x % 7")
        reference = db.execute(sql, engine="volcano").rows
        result, _ = run_chunked(db, sql, window=9000)
        assert result.rows == reference

    def test_join_with_chunked_probe(self):
        big = make_db(rows_r=500, rows_s=30_000, seed=9)
        sql = ("SELECT r.name, COUNT(*) FROM r, s WHERE r.id = s.rid"
               " GROUP BY r.name ORDER BY r.name")
        reference = big.execute(sql, engine="volcano").rows
        result, rewires = run_chunked(big, sql, window=4000)
        assert result.rows == reference
        assert rewires >= 30_000 // 4000  # the probe side was chunked

    def test_order_by_across_chunks(self, db):
        sql = ("SELECT x FROM t WHERE x BETWEEN 0 AND 100000"
               " ORDER BY x LIMIT 25")
        reference = db.execute(sql, engine="volcano").rows
        result, _ = run_chunked(db, sql, window=6500)
        assert result.rows == reference
