"""Instantiation and adaptive execution — the V8 role.

The :class:`Engine` owns the tiering policy:

* ``mode="liftoff"`` — everything runs as Liftoff-compiled code,
* ``mode="turbofan"`` — everything is optimized up front (the paper's
  "enforce compilation with TurboFan" configuration of Section 8.2),
* ``mode="adaptive"`` (default) — functions start as Liftoff code; a
  per-function call counter triggers recompilation with TurboFan, and the
  function-table entry is swapped so every later call — including calls
  already in flight at morsel boundaries — runs optimized code.  This is
  V8's dynamic tier-up [Liftoff paper], which the paper gets "for free",
* ``mode="interpreter"`` — the reference interpreter (for testing).

Compile times per tier are recorded in :class:`TierStats`; the paper's
Figure 10 stacks exactly these phases.  In real V8 the TurboFan compile
runs on a background thread; here it runs synchronously at the tier-up
call boundary but is accounted separately, so benches can report it
either overlapped or serialized.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

from repro.errors import (
    CompilationError,
    ConfigError,
    LintError,
    Trap,
    ValidationError,
)
from repro.observability.metrics import get_registry
from repro.observability.trace import trace_event, trace_span
from repro.wasm.module import Module
from repro.wasm.runtime.interpreter import Interpreter
from repro.wasm.runtime.liftoff import LiftoffCompiler
from repro.wasm.runtime.memory import LinearMemory
from repro.wasm.runtime.turbofan import TurboFanCompiler
from repro.wasm.stencil.cache import get_stencil_cache
from repro.wasm.validator import validate_module

__all__ = ["ENGINE_MODES", "TIER_LADDERS", "Engine", "EngineConfig",
           "Instance", "TierStats"]

_GLOBAL_DEFAULTS = {"i32": 0, "i64": 0, "f32": 0.0, "f64": 0.0}


#: The valid tiering modes, in decreasing order of sophistication.
ENGINE_MODES = ("adaptive_stencil", "adaptive", "turbofan", "liftoff",
                "stencil", "interpreter")

#: The tier-up ladder per adaptive mode: functions start on the first
#: tier and are promoted one rung at a time at call-count thresholds.
#: Non-adaptive modes pin every function to their single tier.
TIER_LADDERS = {
    "adaptive": ("liftoff", "turbofan"),
    "adaptive_stencil": ("stencil", "liftoff", "turbofan"),
    "turbofan": ("turbofan",),
    "liftoff": ("liftoff",),
    "stencil": ("stencil",),
    "interpreter": ("interp",),
}

#: The valid linter modes of :attr:`EngineConfig.lint`.
LINT_MODES = ("off", "warn", "strict")


@dataclass
class EngineConfig:
    """Tiering policy knobs (V8's ``--liftoff``/``--no-wasm-tier-up`` etc.).

    Invalid configurations are rejected at construction so that a typo'd
    mode fails before any compilation work happens, with a
    :class:`~repro.errors.ConfigError` instead of a late bare
    ``ValueError`` deep in ``_compile_all``.
    """

    mode: str = "adaptive"          # one of ENGINE_MODES
    tier_up_threshold: int = 16     # calls of one function before tier-up
    validate: bool = True
    #: Static-analysis linter over every instantiated module:
    #: "off" (default), "warn" (Python warnings), or "strict"
    #: (:class:`~repro.errors.LintError` on any diagnostic).
    lint: str = "off"
    #: Let TurboFan drop the per-access address mask when the interval
    #: analysis proves the access in bounds of the declared memory minimum.
    elide_bounds_checks: bool = True
    fault_injector: object = None   # a repro.robustness.FaultInjector
    #: Optional :class:`~repro.observability.QueryTrace`; when set, the
    #: engine records validate/lint/compile spans and tier-up events.
    trace: object = None

    def __post_init__(self):
        if self.mode not in ENGINE_MODES:
            raise ConfigError(
                f"unknown engine mode {self.mode!r}; have {ENGINE_MODES}"
            )
        if not isinstance(self.tier_up_threshold, int) \
                or self.tier_up_threshold < 1:
            raise ConfigError(
                f"tier_up_threshold must be an int >= 1, "
                f"got {self.tier_up_threshold!r}"
            )
        if self.lint not in LINT_MODES:
            raise ConfigError(
                f"unknown lint mode {self.lint!r}; have {LINT_MODES}"
            )
        if not isinstance(self.elide_bounds_checks, bool):
            raise ConfigError(
                f"elide_bounds_checks must be a bool, "
                f"got {self.elide_bounds_checks!r}"
            )

    @property
    def tier_ladder(self) -> tuple[str, ...]:
        """The tiers this mode runs through, lowest first."""
        return TIER_LADDERS[self.mode]


@dataclass
class TierStats:
    """Per-instance compilation accounting (the phases of Figure 10)."""

    liftoff_seconds: float = 0.0
    turbofan_seconds: float = 0.0
    liftoff_functions: int = 0
    turbofan_functions: int = 0
    tier_ups: int = 0
    #: TurboFan compilations that failed; each pins its function to the
    #: Liftoff tier for the rest of the instance's life (V8's bailout).
    tier_up_failures: int = 0
    #: Per-access bounds checks TurboFan statically proved away using the
    #: interval analysis (summed over its compiled functions).
    bounds_checks_elided: int = 0
    #: Tier-0 accounting: time spent assembling (or fetching) stencil
    #: code, functions bound to it, and whether this instance's module
    #: shape was served from the process-wide stencil cache.
    stencil_seconds: float = 0.0
    stencil_functions: int = 0
    stencil_cache_hits: int = 0
    stencil_cache_misses: int = 0
    #: Whole-module stencil assemblies that declined (unsupported op,
    #: instrumented run, injected fault); the instance fell back to the
    #: Liftoff path — queries never fail because tier-0 declined.
    stencil_fallbacks: int = 0

    @property
    def total_compile_seconds(self) -> float:
        return (self.stencil_seconds + self.liftoff_seconds
                + self.turbofan_seconds)


class Instance:
    """One instantiated module.

    ``funcs`` is the live function table: index -> current callable.
    Tier-up replaces entries in place, so every call site — compiled code
    uses ``_funcs[i]`` — immediately dispatches to the new code, which is
    how the engine swaps code *during* query execution (morsel-wise).
    """

    def __init__(self, module: Module, memory: LinearMemory | None):
        self.module = module
        self.memory = memory
        self.globals: list = [
            g.init if g.init is not None else _GLOBAL_DEFAULTS[g.valtype]
            for g in module.globals
        ]
        self.funcs: list = [None] * (len(module.imports) + len(module.functions))
        self.table: list[int | None] = []
        self.profile = None  # a costmodel Profile during instrumented runs
        self.lint_diagnostics: list = []
        self.stats = TierStats()
        self._exports = {e.name: e for e in module.exports}

    # -- calls -----------------------------------------------------------------

    def invoke(self, name: str, *args):
        """Call an exported function by name."""
        export = self._exports.get(name)
        if export is None or export.kind != "func":
            raise Trap("unknown export", name)
        return self.funcs[export.index](*args)

    def table_lookup(self, elem_index: int, type_index: int) -> int:
        """Resolve a ``call_indirect``: element index -> function index."""
        if not (0 <= elem_index < len(self.table)):
            raise Trap("undefined element", str(elem_index))
        func_index = self.table[elem_index]
        if func_index is None:
            raise Trap("uninitialized element", str(elem_index))
        actual = self.module.func_type_of(func_index)
        expected = self.module.types[type_index]
        if actual != expected:
            raise Trap("indirect call type mismatch",
                       f"{actual} vs {expected}")
        return func_index

    def tier_of(self, name: str) -> str:
        """The current tier of an exported function (for tests/benches)."""
        export = self._exports[name]
        return getattr(self.funcs[export.index], "tier", "?")

    def reset_mutable_state(self) -> None:
        """Restore every global to its module initializer (module reuse).

        Tier state — the live function table, call counters, compiled
        code — is deliberately preserved: resetting it would forfeit the
        adaptive engine's optimization investment, which is the point of
        caching an instantiated module.  The host is responsible for any
        globals it wants pinned past the reset (e.g. a grown heap bound)
        and for replaying data segments into linear memory.
        """
        for i, g in enumerate(self.module.globals):
            self.globals[i] = (
                g.init if g.init is not None else _GLOBAL_DEFAULTS[g.valtype]
            )


class Engine:
    """Instantiates modules and drives adaptive tier-up."""

    def __init__(self, config: EngineConfig | None = None):
        self.config = config or EngineConfig()

    def instantiate(
        self,
        module: Module,
        imports: dict[tuple[str, str], object] | None = None,
        memory: LinearMemory | None = None,
        profile=None,
    ) -> Instance:
        """Build an instance: resolve imports, set up memory, compile.

        ``memory`` plays the role of the paper's ``SetModuleMemory()``
        patch: the host passes a linear memory whose pages alias its own
        rewired buffers.  If omitted, a private memory is created from the
        module's memory section.
        """
        if self.config.validate:
            with trace_span(self.config.trace, "validate"):
                validate_module(module)

        lint_diagnostics: list = []
        if self.config.lint != "off":
            from repro.wasm.analysis import ModuleLinter

            with trace_span(self.config.trace, "lint",
                            mode=self.config.lint):
                lint_diagnostics = ModuleLinter(module).lint()
            if lint_diagnostics:
                if self.config.lint == "strict":
                    # advisory ("info") diagnostics never fail strict
                    # mode — they describe intentional specialization,
                    # not defects
                    rejected = [d for d in lint_diagnostics
                                if d.severity != "info"]
                    if rejected:
                        raise LintError(rejected)
                else:
                    for diag in lint_diagnostics:
                        warnings.warn(str(diag), stacklevel=2)

        if memory is not None and module.memories:
            # The host-provided memory plays the paper's SetModuleMemory()
            # role; it must satisfy the module's declared minimum or the
            # analyses (and elision proofs) built on that minimum are lies.
            declared_min = module.memories[0].minimum
            if memory.size_pages < declared_min:
                raise ValidationError(
                    f"provided memory has {memory.size_pages} page(s) but "
                    f"the module declares a minimum of {declared_min}"
                )
        if memory is None and module.memories:
            spec = module.memories[0]
            memory = LinearMemory(min_pages=spec.minimum,
                                  max_pages=spec.maximum)
        instance = Instance(module, memory)
        instance.profile = profile
        instance.lint_diagnostics = lint_diagnostics

        # imports
        imports = imports or {}
        for i, imp in enumerate(module.imports):
            try:
                host_fn = imports[(imp.module, imp.name)]
            except KeyError:
                raise ValidationError(
                    f"missing import {imp.module}.{imp.name}"
                ) from None
            instance.funcs[i] = host_fn

        # table + element segments
        table_size = module.tables[0].minimum if module.tables else 0
        instance.table = [None] * table_size
        for elem in module.elements:
            for k, func_index in enumerate(elem.func_indices):
                instance.table[elem.offset + k] = func_index

        # data segments
        for seg in module.data:
            if memory is None:
                raise ValidationError("data segment without memory")
            memory.write_bytes(seg.offset, seg.payload)

        self._compile_all(instance)

        if module.start is not None:
            instance.funcs[module.start]()
        return instance

    # -- compilation -------------------------------------------------------------

    def _compile_all(self, instance: Instance) -> None:
        mode = self.config.mode
        module = instance.module
        n_imports = len(module.imports)

        trace = self.config.trace
        if mode == "interpreter":
            with trace_span(trace, "compile.interpreter",
                            functions=len(module.functions)):
                interp = Interpreter(instance)
                for i, func in enumerate(module.functions):
                    instance.funcs[n_imports + i] = interp.make_callable(func)
            return

        instrumented = instance.profile is not None
        injector = self.config.fault_injector

        if mode == "turbofan":
            compiler = TurboFanCompiler(
                module, elide_bounds_checks=self.config.elide_bounds_checks
            )
            fallback = None
            start = time.perf_counter()
            with trace_span(trace, "compile.turbofan",
                            functions=len(module.functions)):
                for i, func in enumerate(module.functions):
                    try:
                        if injector is not None:
                            injector.check("turbofan.compile")
                        compiled = compiler.compile(
                            func, n_imports + i, instrumented
                        )
                        instance.stats.turbofan_functions += 1
                        instance.stats.bounds_checks_elided += \
                            compiled.bounds_checks_elided
                    except CompilationError:
                        # V8-style bailout: even under enforced optimization a
                        # function TurboFan rejects stays on the baseline tier
                        # instead of failing the whole instantiation.
                        if fallback is None:
                            fallback = LiftoffCompiler(module)
                        compiled = fallback.compile(
                            func, n_imports + i, instrumented
                        )
                        instance.stats.tier_up_failures += 1
                        instance.stats.liftoff_functions += 1
                        trace_event(trace, "turbofan.bailout",
                                    function=n_imports + i)
                        get_registry().counter(
                            "engine_tier_up_failures_total",
                            "TurboFan compilations that bailed out",
                        ).inc()
                    instance.funcs[n_imports + i] = compiled.bind(
                        instance, instance.profile
                    )
            instance.stats.turbofan_seconds += time.perf_counter() - start
            return

        if mode in ("stencil", "adaptive_stencil"):
            if self._compile_stencil(instance):
                if mode == "adaptive_stencil":
                    for i in range(len(module.functions)):
                        self._install_stencil_tier_up_trigger(
                            instance, n_imports + i
                        )
                return
            # assembly declined (unsupported op, instrumented run,
            # injected fault): fall through to the Liftoff path below —
            # the retryable StencilError never escapes the engine

        # liftoff and the adaptive ladders start (or land) on Liftoff code
        compiler = LiftoffCompiler(module)
        start = time.perf_counter()
        with trace_span(trace, "compile.liftoff",
                        functions=len(module.functions)):
            for i, func in enumerate(module.functions):
                if injector is not None:
                    # there is no lower compiled tier: a baseline failure
                    # aborts instantiation and is handled by the fallback
                    # chain (wasm[interpreter], then volcano)
                    injector.check("liftoff.compile")
                compiled = compiler.compile(func, n_imports + i, instrumented)
                instance.funcs[n_imports + i] = compiled.bind(
                    instance, instance.profile
                )
        instance.stats.liftoff_seconds += time.perf_counter() - start
        instance.stats.liftoff_functions += len(module.functions)

        if mode == "adaptive" or mode == "adaptive_stencil":
            for i in range(len(module.functions)):
                self._install_tier_up_trigger(instance, n_imports + i)

    def _compile_stencil(self, instance: Instance) -> bool:
        """Bind tier-0 stencil code to every function; False to decline.

        Assembly is served from the process-wide shape-keyed cache
        (:mod:`repro.wasm.stencil.cache`), so a structurally familiar
        module skips even the (cheap) assembly pass.  Any failure — an
        op without a stencil, an injected ``stencil.assemble`` fault —
        declines the whole module and the caller lands on the Liftoff
        path: tier-0 is an optimization, never a failure mode.

        Instrumented (profiling) runs assemble stencils too: the bound
        dispatch loop counts its executed stencils into the profile
        (see :meth:`~repro.wasm.stencil.assemble.StencilFunction.bind`),
        so the cost model sees tier-0 work instead of tier-0 silently
        declining to Liftoff.
        """
        module = instance.module
        n_imports = len(module.imports)
        trace = self.config.trace
        stats = instance.stats
        injector = self.config.fault_injector
        start = time.perf_counter()
        hit = False
        try:
            with trace_span(trace, "compile.stencil",
                            functions=len(module.functions)) as span:
                if injector is not None:
                    injector.check("stencil.assemble")
                artifacts, hit = get_stencil_cache().get(module)
                if span is not None:
                    span.attrs["cache"] = "hit" if hit else "miss"
        except CompilationError as exc:
            stats.stencil_seconds += time.perf_counter() - start
            stats.stencil_fallbacks += 1
            trace_event(trace, "stencil.fallback", reason=str(exc))
            get_registry().counter(
                "engine_stencil_fallbacks_total",
                "Stencil assemblies that fell back to Liftoff",
            ).inc()
            return False
        stats.stencil_seconds += time.perf_counter() - start
        if hit:
            stats.stencil_cache_hits += 1
        else:
            stats.stencil_cache_misses += 1
        for i, artifact in enumerate(artifacts):
            instance.funcs[n_imports + i] = artifact.bind(
                instance, instance.profile
            )
        stats.stencil_functions += len(artifacts)
        return True

    def _install_stencil_tier_up_trigger(self, instance: Instance,
                                         func_index: int) -> None:
        """Wrap a stencil function with a call counter that promotes it
        to Liftoff once hot — the first rung of the stencil ladder.

        Same shape as :meth:`_install_tier_up_trigger`; the promoted
        Liftoff function then gets its own trigger toward TurboFan, so
        one hot function climbs stencil -> Liftoff -> TurboFan.
        """
        stencil_fn = instance.funcs[func_index]
        threshold = self.config.tier_up_threshold
        engine = self

        count = 0

        def tiering(*args):
            nonlocal count
            count += 1
            if count >= threshold:
                engine.tier_up_stencil(instance, func_index)
                return instance.funcs[func_index](*args)
            return stencil_fn(*args)

        tiering.tier = "stencil"
        tiering.stencil = stencil_fn  # kept for pinning on tier-up failure
        instance.funcs[func_index] = tiering

    def tier_up_stencil(self, instance: Instance, func_index: int) -> None:
        """Promote one function from stencil code to Liftoff code.

        Mirrors :meth:`tier_up` one rung down the ladder: a failed
        Liftoff compile pins the function to its stencil code (the
        query keeps running tier-0), otherwise the function-table entry
        is swapped for the Liftoff callable wrapped with the TurboFan
        trigger, continuing the climb.
        """
        module = instance.module
        func = module.functions[func_index - len(module.imports)]
        trace = self.config.trace
        start = time.perf_counter()
        try:
            injector = self.config.fault_injector
            if injector is not None:
                injector.check("liftoff.compile")
            with trace_span(trace, "compile.liftoff", function=func_index):
                compiled = LiftoffCompiler(module).compile(
                    func, func_index, instrumented=False
                )
            baseline = compiled.bind(instance, instance.profile)
        except CompilationError:
            instance.stats.liftoff_seconds += time.perf_counter() - start
            instance.stats.tier_up_failures += 1
            current = instance.funcs[func_index]
            instance.funcs[func_index] = getattr(
                current, "stencil", current
            )
            trace_event(trace, "tier_up.failure", function=func_index)
            get_registry().counter(
                "engine_tier_up_failures_total",
                "TurboFan compilations that bailed out",
            ).inc()
            return
        instance.stats.liftoff_seconds += time.perf_counter() - start
        instance.stats.liftoff_functions += 1
        instance.stats.tier_ups += 1
        instance.funcs[func_index] = baseline
        self._install_tier_up_trigger(instance, func_index)
        trace_event(trace, "tier_up", function=func_index,
                    from_tier="stencil", to_tier="liftoff")
        get_registry().counter(
            "engine_tier_ups_total",
            "Functions promoted from Liftoff to TurboFan",
        ).inc()

    def _install_tier_up_trigger(self, instance: Instance,
                                 func_index: int) -> None:
        """Wrap a Liftoff function with a call counter that triggers
        TurboFan recompilation once the function is hot.

        The wrapper replaces ``instance.funcs[func_index]`` with the raw
        optimized callable on tier-up, so the counting overhead also
        disappears — mirroring V8's code patching.
        """
        liftoff_fn = instance.funcs[func_index]
        threshold = self.config.tier_up_threshold
        engine = self

        count = 0

        def tiering(*args):
            nonlocal count
            count += 1
            if count >= threshold:
                engine.tier_up(instance, func_index)
                return instance.funcs[func_index](*args)
            return liftoff_fn(*args)

        tiering.tier = "liftoff"
        tiering.liftoff = liftoff_fn  # kept for pinning on tier-up failure
        instance.funcs[func_index] = tiering

    def tier_up(self, instance: Instance, func_index: int) -> None:
        """Recompile one function with TurboFan and patch it in.

        A failed TurboFan compilation must never abort a half-executed
        query (real V8 silently keeps running Liftoff code when an
        optimization job bails out): the :class:`CompilationError` is
        swallowed, recorded in ``TierStats.tier_up_failures``, and the
        function is *pinned* — the counting wrapper is replaced by the
        raw Liftoff callable, so no further tier-up is attempted and the
        counter overhead disappears too.
        """
        module = instance.module
        func = module.functions[func_index - len(module.imports)]
        instrumented = instance.profile is not None
        trace = self.config.trace
        start = time.perf_counter()
        try:
            injector = self.config.fault_injector
            if injector is not None:
                injector.check("turbofan.compile")
            with trace_span(trace, "compile.turbofan", function=func_index):
                compiled = TurboFanCompiler(
                    module,
                    elide_bounds_checks=self.config.elide_bounds_checks,
                ).compile(func, func_index, instrumented)
            optimized = compiled.bind(instance, instance.profile)
        except CompilationError:
            instance.stats.turbofan_seconds += time.perf_counter() - start
            instance.stats.tier_up_failures += 1
            current = instance.funcs[func_index]
            instance.funcs[func_index] = getattr(
                current, "liftoff", current
            )
            trace_event(trace, "tier_up.failure", function=func_index)
            get_registry().counter(
                "engine_tier_up_failures_total",
                "TurboFan compilations that bailed out",
            ).inc()
            return
        instance.stats.turbofan_seconds += time.perf_counter() - start
        instance.stats.turbofan_functions += 1
        instance.stats.tier_ups += 1
        instance.stats.bounds_checks_elided += compiled.bounds_checks_elided
        instance.funcs[func_index] = optimized
        trace_event(trace, "tier_up", function=func_index,
                    elided=compiled.bounds_checks_elided)
        get_registry().counter(
            "engine_tier_ups_total",
            "Functions promoted from Liftoff to TurboFan",
        ).inc()
