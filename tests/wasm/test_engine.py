"""Tests of the engine: instantiation, tiering, adaptive replacement."""

import numpy as np
import pytest

from repro.errors import Trap, ValidationError
from repro.storage.rewiring import AddressSpace
from repro.wasm import ModuleBuilder, validate_module
from repro.wasm.runtime import Engine, EngineConfig, LinearMemory


def counter_module():
    mb = ModuleBuilder("counter")
    g = mb.add_global("i64", 0, mutable=True)
    f = mb.function("bump", results=["i64"], export=True)
    f.emit("global.get", g).i64(1).emit("i64.add")
    f.emit("global.set", g)
    f.emit("global.get", g)
    return mb.finish()


class TestTiering:
    def test_liftoff_mode_never_tiers_up(self):
        engine = Engine(EngineConfig(mode="liftoff"))
        instance = engine.instantiate(counter_module())
        for _ in range(100):
            instance.invoke("bump")
        assert instance.tier_of("bump") == "liftoff"
        assert instance.stats.tier_ups == 0

    def test_turbofan_mode_compiles_up_front(self):
        engine = Engine(EngineConfig(mode="turbofan"))
        instance = engine.instantiate(counter_module())
        assert instance.tier_of("bump") == "turbofan"
        assert instance.stats.functions["liftoff"] == 0

    def test_adaptive_tiers_up_at_threshold(self, tier_clock):
        tier_clock.promote_after(turbofan=5)
        engine = Engine(EngineConfig(mode="adaptive"))
        instance = engine.instantiate(counter_module())
        for i in range(5):
            instance.invoke("bump")
        assert instance.tier_of("bump") == "liftoff"
        instance.invoke("bump")
        assert instance.tier_of("bump") == "turbofan"
        assert instance.stats.tier_ups == 1

    def test_adaptive_preserves_state_across_tier_up(self, tier_clock):
        """The global counter keeps counting across the code swap —
        the paper's 'replace code during execution' requirement."""
        tier_clock.promote_after(turbofan=3)
        engine = Engine(EngineConfig(mode="adaptive"))
        instance = engine.instantiate(counter_module())
        values = [instance.invoke("bump") for _ in range(10)]
        assert values == list(range(1, 11))
        assert instance.tier_of("bump") == "turbofan"

    def test_compile_times_recorded(self, tier_clock):
        tier_clock.promote_after(turbofan=2)
        engine = Engine(EngineConfig(mode="adaptive"))
        instance = engine.instantiate(counter_module())
        seconds = instance.stats.seconds
        assert seconds["liftoff"] > 0
        for _ in range(3):
            instance.invoke("bump")
        assert seconds["turbofan"] > 0
        assert instance.stats.total_compile_seconds == pytest.approx(
            seconds["liftoff"] + seconds["turbofan"]
        )

    def test_turbofan_compiles_slower_than_liftoff(self):
        """The architectural premise: the optimizing tier costs more
        compile time.  Compared on query-shaped code — loops, branches,
        and memory traffic — not on constant chains that fold away."""
        mb = ModuleBuilder("big")
        f = mb.function("f", params=[("i32", "begin"), ("i32", "end")],
                        results=["i64"], export=True)
        acc = f.local("i64", "acc")
        ptr = f.local("i32", "ptr")
        for _ in range(20):  # twenty scan-filter-aggregate loops
            f.get(0).set(ptr)
            with f.block() as done:
                with f.loop() as top:
                    f.get(ptr).get(1).emit("i32.ge_u")
                    f.br_if(done)
                    f.get(ptr).load("i32").i32(42).emit("i32.lt_s")
                    with f.if_():
                        f.get(acc).get(ptr).load("i32")
                        f.emit("i64.extend_i32_s").emit("i64.add").set(acc)
                    f.get(ptr).i32(4).emit("i32.add").set(ptr)
                    f.br(top)
        f.get(acc)
        mb.add_memory(1, 64)
        module = mb.finish()
        validate_module(module)

        import time
        from repro.wasm.runtime.liftoff import LiftoffCompiler
        from repro.wasm.runtime.turbofan import TurboFanCompiler

        t0 = time.perf_counter()
        for _ in range(3):
            LiftoffCompiler(module).compile(module.functions[0], 0)
        liftoff_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(3):
            TurboFanCompiler(module).compile(module.functions[0], 0)
        turbofan_time = time.perf_counter() - t0
        assert turbofan_time > liftoff_time


class TestInstantiation:
    def test_missing_import_rejected(self):
        mb = ModuleBuilder("t")
        mb.import_function("env", "f", ["i32"], ["i32"])
        with pytest.raises(ValidationError, match="missing import"):
            Engine().instantiate(mb.finish())

    def test_invalid_module_rejected(self):
        mb = ModuleBuilder("t")
        f = mb.function("bad", results=["i32"], export=True)
        f.emit("nop")  # no result produced
        with pytest.raises(ValidationError):
            Engine().instantiate(mb.finish())

    def test_data_segments_initialize_memory(self):
        mb = ModuleBuilder("t")
        mb.add_memory(1)
        mb.add_data(16, b"\x2a\x00\x00\x00")
        f = mb.function("read", results=["i32"], export=True)
        f.i32(16).load("i32")
        instance = Engine().instantiate(mb.finish())
        assert instance.invoke("read") == 42

    def test_start_function_runs(self):
        mb = ModuleBuilder("t")
        g = mb.add_global("i32", 0, mutable=True)
        init = mb.function("init")
        init.i32(99).emit("global.set", g)
        f = mb.function("get", results=["i32"], export=True)
        f.emit("global.get", g)
        module = mb.finish()
        module.start = init.func_index
        instance = Engine().instantiate(module)
        assert instance.invoke("get") == 99

    def test_unknown_export_traps(self):
        instance = Engine().instantiate(counter_module())
        with pytest.raises(Trap, match="unknown export"):
            instance.invoke("nope")

    def test_external_memory_is_set_module_memory(self):
        """The host passes its own rewired memory — the paper's
        SetModuleMemory() patch."""
        mb = ModuleBuilder("t")
        f = mb.function("peek", params=[("i32", "addr")], results=["i32"],
                        export=True)
        f.get(0).load("i32")
        mb.add_memory(1, 1 << 15)
        module = mb.finish()

        data = np.array([10, 20, 30], dtype=np.int32)
        space = AddressSpace(max_pages=16)
        addr = space.map_buffer("col", data)
        instance = Engine().instantiate(module, memory=LinearMemory(space))
        assert instance.invoke("peek", addr + 4) == 20
        data[1] = 99  # zero-copy: host writes are visible immediately
        assert instance.invoke("peek", addr + 4) == 99

    def test_memory_grow_and_size(self):
        mb = ModuleBuilder("t")
        f = mb.function("grow", params=[("i32", "d")], results=["i32"],
                        export=True)
        f.get(0).emit("memory.grow")
        g = mb.function("size", results=["i32"], export=True)
        g.emit("memory.size")
        mb.add_memory(2, 64)
        instance = Engine().instantiate(mb.finish())
        before = instance.invoke("size")
        assert instance.invoke("grow", 3) == before
        assert instance.invoke("size") == before + 3


class TestProfileInstrumentation:
    def test_instrumented_run_counts_events(self):
        from repro.costmodel import Profile

        mb = ModuleBuilder("t")
        f = mb.function("loop", params=[("i32", "n")], results=["i32"],
                        export=True)
        acc = f.local("i32", "acc")
        with f.block() as done:
            with f.loop() as top:
                f.get(0).emit("i32.eqz")
                f.br_if(done)
                f.get(acc).get(0).emit("i32.add").set(acc)
                f.get(0).i32(1).emit("i32.sub").set(0)
                f.br(top)
        f.get(acc)
        module = mb.finish()

        for mode in ("liftoff", "turbofan"):
            profile = Profile()
            engine = Engine(EngineConfig(mode=mode))
            instance = engine.instantiate(module, profile=profile)
            assert instance.invoke("loop", 100) == 5050
            assert profile.instructions > 500, mode
            # the loop-exit branch site: taken once, evaluated 101 times
            sites = list(profile.branch_sites.values())
            assert any(s.total == 101 and s.taken == 1 for s in sites), mode

    def test_uninstrumented_run_counts_nothing(self):
        engine = Engine(EngineConfig(mode="turbofan"))
        instance = engine.instantiate(counter_module())
        instance.invoke("bump")
        assert instance.profile is None
