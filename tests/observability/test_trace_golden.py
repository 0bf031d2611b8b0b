"""Golden-trace tests: exact event sequences under a fake clock.

Three fixed queries (scan+filter, hash join, group-by+sort) run on a
fully deterministic dataset with a :class:`FakeClock` driving the trace
timestamps.  For each engine tier configuration the *exact ordered*
sequence of event kinds is asserted — these sequences ARE the paper's
architecture: Liftoff compiles first, morsels run, adaptive mode tiers
up mid-pipeline at a morsel boundary.

One configuration is additionally pinned byte-for-byte against a JSON
golden file.  On mismatch the actual trace is written to the path in
``$GOLDEN_TRACE_OUT`` (when set) so CI can upload it as an artifact.
"""

import json
import os
from pathlib import Path

import pytest

from repro.db import Database
from repro.engines.wasm_engine import WasmEngine
from repro.observability import FakeClock, QueryTrace

GOLDEN_DIR = Path(__file__).parent / "goldens"

QUERIES = {
    "scan_filter": "SELECT id, x FROM r WHERE x < 5",
    "hash_join": "SELECT r.id, s.tag FROM r, s WHERE r.id = s.rid",
    "group_sort": "SELECT x, COUNT(*) FROM r GROUP BY x ORDER BY x",
}

#: Shared lifecycle prefix: SQL front end, then the engine attempt.
_FRONTEND = ["parse", "analyze", "plan", "plan.analysis",
             "engine.attempt"]


def make_db() -> Database:
    """96-row r (x cycles 0..9) and 16-row s — no randomness anywhere."""
    db = Database(default_engine="wasm")
    db.execute("CREATE TABLE r (id INT PRIMARY KEY, x INT, y DOUBLE)")
    db.table("r").append_rows([(i, i % 10, float(i)) for i in range(96)])
    db.execute("CREATE TABLE s (rid INT, tag INT)")
    db.table("s").append_rows([(i * 7 % 96, i) for i in range(16)])
    return db


@pytest.fixture(autouse=True)
def hot_on_the_second_call(tier_clock):
    """Every metered call takes a tick and TurboFan is paid for by one,
    so adaptive mode tiers a function up as its second call comes in."""
    tier_clock.promote_after(turbofan=1)


def run_traced(query_name: str, mode: str) -> QueryTrace:
    sql = QUERIES[query_name]
    db = make_db()
    # morsel_size=32 over 96 rows -> exactly 3 morsels per scan pipeline
    db._engines["wasm"] = WasmEngine(mode=mode, morsel_size=32)
    trace = QueryTrace(sql, clock=FakeClock())
    result = db.execute(sql, trace=trace)
    assert result.trace is trace
    return trace


#: query -> tier mode -> the exact ordered event-kind sequence.
GOLDEN_KINDS = {
    "scan_filter": {
        "liftoff": _FRONTEND + [
            "translation", "codegen.pipeline", "validate",
            "compile.liftoff", "execution",
            "pipeline", "morsel", "morsel", "morsel", "tier_stats",
        ],
        "turbofan": _FRONTEND + [
            "translation", "codegen.pipeline", "validate",
            "compile.turbofan", "execution",
            "pipeline", "morsel", "morsel", "morsel", "tier_stats",
        ],
        "interpreter": _FRONTEND + [
            "translation", "codegen.pipeline", "validate",
            "compile.interpreter", "execution",
            "pipeline", "morsel", "morsel", "morsel", "tier_stats",
        ],
        # The adaptive story in one line: the first Liftoff morsel pays
        # for TurboFan, which compiles at the second morsel's call
        # boundary; that morsel (still reported as the tier it entered
        # on) and the third run optimized code.
        "adaptive": _FRONTEND + [
            "translation", "codegen.pipeline", "validate",
            "compile.liftoff", "execution",
            "pipeline", "morsel", "morsel",
            "compile.turbofan", "tier_up", "morsel", "tier_stats",
        ],
    },
    "hash_join": {
        "liftoff": _FRONTEND + [
            "translation", "codegen.pipeline", "codegen.pipeline",
            "validate", "compile.liftoff", "execution",
            "pipeline", "morsel",            # build side: 16 rows, 1 morsel
            "pipeline", "morsel", "morsel", "morsel",  # probe side: 96 rows
            "tier_stats",
        ],
        # init calls alloc twice while setting up the join table, so the
        # allocator itself tiers up before the first pipeline runs.
        "adaptive": _FRONTEND + [
            "translation", "codegen.pipeline", "codegen.pipeline",
            "validate", "compile.liftoff", "execution",
            "compile.turbofan", "tier_up",
            "pipeline", "morsel",
            "pipeline", "morsel", "morsel",
            "compile.turbofan", "tier_up", "morsel",
            "tier_stats",
        ],
    },
    "group_sort": {
        "liftoff": _FRONTEND + [
            "translation", "codegen.pipeline", "codegen.pipeline",
            "codegen.pipeline", "validate", "compile.liftoff", "execution",
            "pipeline", "morsel", "morsel", "morsel",  # scan -> group table
            "pipeline", "morsel",                      # groups -> sort array
            "pipeline", "morsel",                      # sorted -> result
            "tier_stats",
        ],
    },
}

CASES = [
    (query, mode)
    for query, modes in GOLDEN_KINDS.items()
    for mode in modes
]


class TestGoldenKindSequences:
    @pytest.mark.parametrize("query,mode", CASES,
                             ids=[f"{q}-{m}" for q, m in CASES])
    def test_exact_kind_sequence(self, query, mode):
        trace = run_traced(query, mode)
        assert trace.kinds() == GOLDEN_KINDS[query][mode]

    def test_adaptive_morsel_tiers(self):
        """The morsel spans themselves carry the tier transition."""
        trace = run_traced("scan_filter", "adaptive")
        tiers = [m.attrs["tier"] for m in trace.find("morsel")]
        assert tiers == ["liftoff", "liftoff", "turbofan"]

    def test_pipeline_spans_carry_cardinalities(self):
        trace = run_traced("group_sort", "liftoff")
        pipelines = trace.find("pipeline")
        # x cycles 0..9 over 96 rows -> every pipeline emits 10 rows:
        # 10 group-table entries, 10 sort rows, 10 result rows
        assert [p.attrs["rows_out"] for p in pipelines] == [10, 10, 10]
        assert [p.attrs["morsels"] for p in pipelines] == [3, 1, 1]


class TestGoldenJson:
    def test_scan_filter_liftoff_byte_for_byte(self):
        golden_path = GOLDEN_DIR / "scan_filter_liftoff.json"
        trace = run_traced("scan_filter", "liftoff")
        actual = trace.to_json(indent=2) + "\n"
        expected = golden_path.read_text()
        if actual != expected:
            out = os.environ.get("GOLDEN_TRACE_OUT")
            if out:
                Path(out).parent.mkdir(parents=True, exist_ok=True)
                Path(out).write_text(actual)
        assert actual == expected, (
            "trace JSON diverged from the golden; actual trace "
            + (f"written to {out}" if os.environ.get("GOLDEN_TRACE_OUT")
               else "available via GOLDEN_TRACE_OUT")
        )

    def test_trace_is_json_serializable_and_stable(self):
        """Two runs under fresh fake clocks are byte-identical."""
        a = run_traced("hash_join", "adaptive").to_json()
        b = run_traced("hash_join", "adaptive").to_json()
        assert a == b
        assert json.loads(a)  # round-trips as plain JSON


class TestFakeClock:
    def test_each_reading_advances(self):
        clock = FakeClock(start=5.0, step=0.25)
        assert [clock(), clock(), clock()] == [5.0, 5.25, 5.5]

    def test_advance_injects_elapsed_time(self):
        clock = FakeClock()
        trace = QueryTrace(clock=clock)
        with trace.span("slow"):
            clock.advance(2.0)
        (span,) = trace.find("slow")
        assert span.duration == pytest.approx(2.0 + 0.001)

    def test_span_end_recorded_on_raise(self):
        trace = QueryTrace(clock=FakeClock())
        with pytest.raises(ValueError):
            with trace.span("exploding"):
                raise ValueError("boom")
        (span,) = trace.find("exploding")
        assert span.end is not None
