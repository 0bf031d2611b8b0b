"""Tier-0 stencil execution: assembly, sharing, fallback, tier-up.

The stencil tier must be *boring* from the outside: byte-identical
results and trap classification to every other tier (the 4-way
differential in ``conftest.ALL_MODES`` covers the corpus; this file
covers the machinery the corpus can't see):

* assembly really is assembly — no ``compile()``, artifacts are
  instance-independent and shared by code *shape*;
* the process-wide cache hits across textually different but
  structurally identical modules and misses when the code changes;
* a declined assembly (unsupported op, injected fault, instrumented
  run) falls back to Liftoff without surfacing an error;
* the ``adaptive_stencil`` ladder climbs stencil -> Liftoff ->
  TurboFan monotonically, visibly in traces.
"""

import pytest

from repro.engines.wasm_engine import WasmEngine
from repro.errors import StencilError, Trap
from repro.wasm import ModuleBuilder
from repro.wasm.module import Function
from repro.wasm.runtime import Engine, EngineConfig, LinearMemory
from repro.wasm.runtime.engine import TIER_LADDERS
from repro.wasm.stencil import (
    StencilCache,
    assemble_function,
    assemble_module,
    function_shape_key,
    get_stencil_cache,
    module_shape_key,
    reset_stencil_cache,
)
from repro.robustness import FaultInjector

from tests.wasm.conftest import assert_all_modes_agree


@pytest.fixture(autouse=True)
def _fresh_cache():
    reset_stencil_cache()
    yield
    reset_stencil_cache()


def _sum_module(n_const: int = 10):
    """sum(0..n-1) via a loop — the morsel shape."""
    mb = ModuleBuilder("sum")
    fb = mb.function("main", params=[("i32", "n")], results=["i32"],
                     export=True)
    acc = fb.local("i32", "acc")
    i = fb.local("i32", "i")
    with fb.block() as done:
        with fb.loop() as top:
            fb.get(i).get(0).emit("i32.ge_s").br_if(done)
            fb.get(acc).get(i).emit("i32.add").set(acc)
            fb.get(i).i32(1).emit("i32.add").set(i)
            fb.br(top)
    fb.get(acc)
    return mb.finish()


def _memory_module():
    """store then load at a parameterized address (offset immediates)."""
    mb = ModuleBuilder("mem")
    fb = mb.function("main", params=[("i32", "addr"), ("i32", "v")],
                     results=["i32"], export=True)
    fb.get(0).get(1).store("i32", offset=4)
    fb.get(0).load("i32", offset=4)
    mb.add_memory(1, 2)
    return mb.finish()


def _stencil_instance(module, memory_pages=0, **config):
    memory = None
    if memory_pages:
        memory = LinearMemory(min_pages=memory_pages,
                              max_pages=memory_pages + 8)
    engine = Engine(EngineConfig(mode="stencil", **config))
    return engine.instantiate(module, memory=memory)


class TestAssembly:
    def test_loop_sum_runs_on_the_stencil_tier(self):
        instance = _stencil_instance(_sum_module())
        assert instance.invoke("main", 10) == 45
        assert instance.tier_of("main") == "stencil"
        assert instance.stats.functions["stencil"] == 1
        assert instance.stats.tier_up_failures == 0

    def test_memory_roundtrip_with_offset_immediates(self):
        instance = _stencil_instance(_memory_module(), memory_pages=1)
        assert instance.invoke("main", 100, 7) == 7

    def test_oob_access_traps_like_every_other_tier(self):
        module = _memory_module()
        instance = _stencil_instance(module, memory_pages=1)
        with pytest.raises(Trap) as exc:
            instance.invoke("main", 65536, 1)
        assert exc.value.kind == "out of bounds memory access"

    def test_division_by_zero_traps(self):
        mb = ModuleBuilder("div")
        fb = mb.function("main", params=[("i32", "a"), ("i32", "b")],
                         results=["i32"], export=True)
        fb.get(0).get(1).emit("i32.div_s")
        instance = _stencil_instance(mb.finish())
        assert instance.invoke("main", 12, 3) == 4
        with pytest.raises(Trap):
            instance.invoke("main", 1, 0)

    def test_call_between_stencil_functions(self):
        mb = ModuleBuilder("calls")
        callee = mb.function("sq", params=[("i32", "x")], results=["i32"])
        callee.get(0).get(0).emit("i32.mul")
        caller = mb.function("main", params=[("i32", "x")],
                             results=["i32"], export=True)
        caller.get(0).call(callee.func_index).i32(1).emit("i32.add")
        instance = _stencil_instance(mb.finish())
        assert instance.invoke("main", 5) == 26

    def test_br_table_dispatch(self):
        mb = ModuleBuilder("table")
        fb = mb.function("main", params=[("i32", "k")], results=["i32"],
                         export=True)
        with fb.block() as b2:
            with fb.block() as b1:
                with fb.block() as b0:
                    fb.get(0)
                    fb.emit("br_table", [b0.depth(), b1.depth()],
                            b2.depth())
                fb.i32(100)
                fb.ret()
            fb.i32(200)
            fb.ret()
        fb.i32(300)
        instance = _stencil_instance(mb.finish())
        assert [instance.invoke("main", k) for k in (0, 1, 2, 9)] \
            == [100, 200, 300, 300]

    def test_assembly_is_not_compilation(self):
        """No generated source: the artifact is closures, not code text."""
        module = _sum_module()
        (artifact,) = assemble_module(module)
        assert artifact.tier == "stencil"
        assert artifact.n_instrs > 0
        assert all(callable(op) for op in artifact.code)
        assert not hasattr(artifact, "source")

    def test_unknown_op_raises_stencil_error(self):
        module = _sum_module()
        bogus = Function(name="bogus", type_index=0, locals_=[],
                         body=[("i32.widget", 1)])
        with pytest.raises(StencilError):
            assemble_function(module, bogus, 0)


class TestShapeKeys:
    def test_key_ignores_data_and_global_initializers(self):
        """The literals of a query live in data segments; structurally
        identical queries with different literals must share code."""
        def build(payload, init):
            mb = ModuleBuilder("q")
            fb = mb.function("main", params=[("i32", "a")],
                             results=["i32"], export=True)
            g = mb.add_global("i32", init, mutable=True)
            fb.get(0).emit("global.get", g).emit("i32.add")
            mb.add_memory(1, 2)
            mb.add_data(0, payload)
            return mb.finish()

        a = build(b"alpha", 1)
        b = build(b"omega", 2)
        assert module_shape_key(a) == module_shape_key(b)

    def test_key_changes_with_the_code(self):
        a = _sum_module()
        mb = ModuleBuilder("other")
        fb = mb.function("main", params=[("i32", "n")], results=["i32"],
                         export=True)
        fb.get(0).i32(2).emit("i32.mul")
        b = mb.finish()
        assert module_shape_key(a) != module_shape_key(b)

    def test_key_is_memoized_on_the_module(self):
        module = _sum_module()
        key = module_shape_key(module)
        assert module._stencil_shape_key == key
        assert module_shape_key(module) is key

    def test_function_shape_key_differs_per_function(self):
        mb = ModuleBuilder("two")
        f0 = mb.function("a", params=[("i32", "x")], results=["i32"])
        f0.get(0)
        f1 = mb.function("b", params=[("i32", "x")], results=["i32"])
        f1.get(0).i32(1).emit("i32.add")
        module = mb.finish()
        assert function_shape_key(module, 0) != function_shape_key(module, 1)


class TestCache:
    def test_hit_across_textually_different_modules(self):
        cache = StencilCache()
        module_a = _sum_module()
        module_b = _sum_module()
        assert module_a is not module_b
        _, hit_a = cache.get(module_a)
        _, hit_b = cache.get(module_b)
        assert (hit_a, hit_b) == (False, True)
        assert cache.stats["hits"] == 1
        assert cache.stats["misses"] == 1

    def test_shared_artifacts_are_the_same_objects(self):
        cache = StencilCache()
        arts_a, _ = cache.get(_sum_module())
        arts_b, _ = cache.get(_sum_module())
        assert arts_a is arts_b

    def test_lru_eviction(self):
        cache = StencilCache(capacity=1)
        cache.get(_sum_module())
        cache.get(_memory_module())
        assert len(cache) == 1
        assert cache.stats["evictions"] == 1

    def test_engine_instances_share_the_process_cache(self):
        _stencil_instance(_sum_module())
        instance = _stencil_instance(_sum_module())
        assert instance.stats.stencil_cache_hits == 1
        assert instance.stats.stencil_cache_misses == 0
        assert get_stencil_cache().stats["hits"] == 1

    def test_bound_instances_are_independent(self):
        """One cached artifact, two instances, two memories: no leakage."""
        module = _memory_module()
        a = _stencil_instance(module, memory_pages=1)
        b = _stencil_instance(module, memory_pages=1)
        a.invoke("main", 0, 111)
        assert b.invoke("main", 0, 222) == 222
        assert a.memory.read_bytes(4, 4) != b.memory.read_bytes(4, 4)


class TestFallback:
    def test_injected_fault_falls_back_to_liftoff(self):
        injector = FaultInjector.always("stencil.assemble")
        instance = _stencil_instance(_sum_module(),
                                     fault_injector=injector)
        assert instance.invoke("main", 10) == 45
        assert instance.tier_of("main") == "liftoff"
        assert instance.stats.tier_up_failures == 1
        assert instance.stats.functions["stencil"] == 0
        assert instance.stats.functions["liftoff"] == 1

    def test_instrumented_run_assembles_tier0(self):
        # profiling runs no longer decline to Liftoff: the bound
        # dispatch loop counts executed stencils into the profile
        from repro.costmodel import Profile

        profile = Profile()
        engine = Engine(EngineConfig(mode="stencil"))
        instance = engine.instantiate(_sum_module(), profile=profile)
        assert instance.tier_of("main") == "stencil"
        assert instance.stats.tier_up_failures == 0
        assert instance.stats.functions["stencil"] == 1
        assert instance.invoke("main", 10) == 45
        assert profile.instructions > 0

    def test_fallback_is_traced(self):
        from repro.observability.trace import FakeClock, QueryTrace

        trace = QueryTrace(clock=FakeClock())
        injector = FaultInjector.always("stencil.assemble")
        engine = Engine(EngineConfig(mode="stencil",
                                     fault_injector=injector))
        engine.instantiate(_sum_module(), trace=trace)
        (failure,) = trace.find("tier_up.failure")
        assert failure.attrs["to_tier"] == "stencil"
        assert [e.attrs["site"] for e in trace.find("fault.injected")] \
            == ["stencil.assemble"]
        # the Liftoff compile it lands on happens inside the same span
        assert trace.kinds()[:2] == ["validate", "compile.stencil"]


class TestLadder:
    def test_ladder_registry(self):
        assert TIER_LADDERS["adaptive_stencil"] == \
            ("stencil", "liftoff", "turbofan")
        assert TIER_LADDERS["stencil"] == ("stencil",)
        engine = WasmEngine(mode="adaptive_stencil")
        assert engine.tier_ladder == ("stencil", "liftoff", "turbofan")

    def test_tier_up_is_monotone_along_the_ladder(self, tier_clock):
        """Repeated calls climb stencil -> liftoff -> turbofan and
        never move back down."""
        tier_clock.promote_after(liftoff=3, turbofan=6)
        engine = Engine(EngineConfig(mode="adaptive_stencil"))
        instance = engine.instantiate(_sum_module())
        ladder = list(TIER_LADDERS["adaptive_stencil"])
        seen = []
        for call in range(12):
            tier = instance.tier_of("main")
            seen.append(tier)
            assert instance.invoke("main", 6) == 15
        positions = [ladder.index(t) for t in seen]
        assert positions == sorted(positions), seen
        assert seen[0] == "stencil"
        assert instance.tier_of("main") == "turbofan"
        assert instance.stats.tier_ups == 2

    def test_tier_up_events_carry_the_rungs(self, tier_clock):
        from repro.observability.trace import FakeClock, QueryTrace

        tier_clock.promote_after(liftoff=2, turbofan=4)
        trace = QueryTrace(clock=FakeClock())
        engine = Engine(EngineConfig(mode="adaptive_stencil"))
        instance = engine.instantiate(_sum_module(), trace=trace)
        for _ in range(8):
            instance.invoke("main", 4)
        events = trace.find("tier_up")
        assert len(events) == 2
        assert events[0].attrs == {"function": 0, "name": "main",
                                   "from_tier": "stencil",
                                   "to_tier": "liftoff",
                                   "spent_ms": 2000.0,
                                   "estimated_compile_ms": 2000.0,
                                   "elided": 0, "prefiltered": 0}
        assert events[1].attrs == {"function": 0, "name": "main",
                                   "from_tier": "liftoff",
                                   "to_tier": "turbofan",
                                   "spent_ms": 4000.0,
                                   "estimated_compile_ms": 4000.0,
                                   "elided": 0, "prefiltered": 0}

    def test_failed_promotion_pins_the_stencil_tier(self, tier_clock):
        tier_clock.promote_after(liftoff=2, turbofan=4)
        injector = FaultInjector.always("liftoff.compile", max_fires=1)
        engine = Engine(EngineConfig(mode="adaptive_stencil",
                                     fault_injector=injector))
        instance = engine.instantiate(_sum_module())
        for _ in range(6):
            assert instance.invoke("main", 4) == 6
        assert instance.tier_of("main") == "stencil"
        assert instance.stats.tier_up_failures == 1

    def test_results_agree_across_all_four_paths(self):
        assert_all_modes_agree(_sum_module(), "main", (25,))
        assert_all_modes_agree(_memory_module(), "main", (8, 42),
                               memory_pages=1)


class TestExplainAnalyze:
    """EXPLAIN ANALYZE surfaces the stencil tier end-to-end."""

    def _db(self):
        from repro.db.database import Database

        db = Database()
        db.execute("CREATE TABLE t (a INT, b INT)")
        db.execute("INSERT INTO t VALUES "
                   + ",".join(f"({i},{i % 7})" for i in range(300)))
        return db

    def test_stencil_tier_visible_in_explain_analyze(self):
        db = self._db()
        result = db.execute(
            "EXPLAIN ANALYZE SELECT b, SUM(a) FROM t WHERE a > 10 GROUP BY b",
            engine="wasm[adaptive_stencil]",
        )
        text = "\n".join(line for (line,) in result.rows)
        tiers = next(line for (line,) in result.rows
                     if line.startswith("tiers:"))
        assert "stencil=" in tiers
        assert "stencil-cache=" in tiers
        assert "compile.stencil=" in text
        # at least one morsel actually ran on stencil code
        assert "stencil=1 morsel(s)" in text or "stencil=" in text

    def test_shape_descriptors_rendered_per_pipeline(self):
        db = self._db()
        result = db.execute(
            "EXPLAIN ANALYZE SELECT b, SUM(a) FROM t WHERE a > 10 GROUP BY b",
            engine="wasm[adaptive_stencil]",
        )
        shapes = [line.strip() for (line,) in result.rows
                  if line.strip().startswith("shape:")]
        assert len(shapes) == 2
        assert shapes[0].startswith("shape: SeqScan(a:INT32,b:INT32;")
        assert "HashGroupBy" in shapes[0]
        assert shapes[1].endswith("-> Result")

    def test_non_stencil_explain_has_no_stencil_lines(self):
        db = self._db()
        result = db.execute(
            "EXPLAIN ANALYZE SELECT SUM(a) FROM t",
            engine="wasm[liftoff]",
        )
        text = "\n".join(line for (line,) in result.rows)
        assert "stencil" not in text
