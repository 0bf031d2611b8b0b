"""Wasm-runtime degradation: config validation, tier-up pinning, bailout."""

import pytest

from repro.errors import CompilationError, ConfigError
from repro.observability import get_registry
from repro.robustness import FaultInjector
from repro.wasm import ModuleBuilder
from repro.wasm.runtime import Engine, EngineConfig


def counter_module():
    mb = ModuleBuilder("counter")
    g = mb.add_global("i64", 0, mutable=True)
    f = mb.function("bump", results=["i64"], export=True)
    f.emit("global.get", g).i64(1).emit("i64.add")
    f.emit("global.set", g)
    f.emit("global.get", g)
    return mb.finish()


class TestConfigValidation:
    def test_unknown_mode_rejected_at_construction(self):
        with pytest.raises(ConfigError):
            EngineConfig(mode="speculative")

    def test_valid_configs_pass(self):
        for mode in ("adaptive", "liftoff", "turbofan", "interpreter"):
            assert EngineConfig(mode=mode).mode == mode


class TestTierUpPinning:
    def test_failed_tier_up_pins_to_liftoff(self, tier_clock):
        tier_clock.promote_after(turbofan=3)
        injector = FaultInjector.always("turbofan.compile")
        engine = Engine(EngineConfig(mode="adaptive",
                                     fault_injector=injector))
        instance = engine.instantiate(counter_module())
        # the failed tier-up must not abort the in-flight call sequence
        values = [instance.invoke("bump") for _ in range(10)]
        assert values == list(range(1, 11))
        assert instance.tier_of("bump") == "liftoff"
        assert instance.stats.tier_up_failures == 1
        assert instance.stats.tier_ups == 0

    def test_pinned_function_is_not_recompiled(self, tier_clock):
        tier_clock.promote_after(turbofan=2)
        injector = FaultInjector.always("turbofan.compile")
        engine = Engine(EngineConfig(mode="adaptive",
                                     fault_injector=injector))
        instance = engine.instantiate(counter_module())
        for _ in range(50):
            instance.invoke("bump")
        # one failure, then the raw Liftoff code runs without a counter
        assert instance.stats.tier_up_failures == 1
        assert injector.fired["turbofan.compile"] == 1

    def test_stencil_ladder_pins_liftoff_when_turbofan_fails(
            self, tier_clock):
        """The failing rung is not retried from the stencil ladder
        either, and both counters carry the rungs as labels."""
        tier_clock.promote_after(liftoff=2, turbofan=4)
        failures = get_registry().counter("engine_tier_up_failures_total")
        promotions = get_registry().counter("engine_tier_ups_total")
        failed_before = failures.value(from_tier="liftoff",
                                       to_tier="turbofan")
        promoted_before = promotions.value(from_tier="stencil",
                                           to_tier="liftoff")
        injector = FaultInjector.always("turbofan.compile")
        engine = Engine(EngineConfig(mode="adaptive_stencil",
                                     fault_injector=injector))
        instance = engine.instantiate(counter_module())
        values = [instance.invoke("bump") for _ in range(50)]
        assert values == list(range(1, 51))
        assert instance.tier_of("bump") == "liftoff"
        assert instance.stats.tier_ups == 1
        assert instance.stats.tier_up_failures == 1
        assert injector.fired["turbofan.compile"] == 1
        assert failures.value(from_tier="liftoff", to_tier="turbofan") \
            == failed_before + 1
        assert promotions.value(from_tier="stencil", to_tier="liftoff") \
            == promoted_before + 1

    def test_real_compilation_error_is_also_pinned(self, monkeypatch,
                                                   tier_clock):
        import repro.wasm.runtime.engine as engine_module

        tier_clock.promote_after(turbofan=2)

        class Exploding:
            def __init__(self, module, **kwargs):
                pass

            def compile(self, *args, **kwargs):
                raise CompilationError("optimizer bailed out")

        monkeypatch.setattr(engine_module, "TurboFanCompiler", Exploding)
        engine = Engine(EngineConfig(mode="adaptive"))
        instance = engine.instantiate(counter_module())
        values = [instance.invoke("bump") for _ in range(6)]
        assert values == list(range(1, 7))
        assert instance.stats.tier_up_failures == 1


class TestTurbofanModeBailout:
    def test_enforced_mode_falls_back_per_function(self):
        injector = FaultInjector.always("turbofan.compile")
        engine = Engine(EngineConfig(mode="turbofan",
                                     fault_injector=injector))
        instance = engine.instantiate(counter_module())
        assert instance.invoke("bump") == 1
        assert instance.tier_of("bump") == "liftoff"
        assert instance.stats.tier_up_failures == 1
        assert instance.stats.functions["turbofan"] == 0

    def test_liftoff_failure_aborts_instantiation(self):
        injector = FaultInjector.always("liftoff.compile")
        engine = Engine(EngineConfig(mode="liftoff",
                                     fault_injector=injector))
        with pytest.raises(CompilationError):
            engine.instantiate(counter_module())

    def test_interpreter_mode_has_no_compile_sites(self):
        injector = FaultInjector.always("liftoff.compile",
                                        "turbofan.compile")
        engine = Engine(EngineConfig(mode="interpreter",
                                     fault_injector=injector))
        instance = engine.instantiate(counter_module())
        assert instance.invoke("bump") == 1
        assert injector.fired == {}
