"""Instantiation and adaptive execution — the V8 role.

The :class:`Engine` owns the tiering policy:

* ``mode="liftoff"`` — everything runs as Liftoff-compiled code,
* ``mode="turbofan"`` — everything is optimized up front (the paper's
  "enforce compilation with TurboFan" configuration of Section 8.2),
* ``mode="adaptive"`` (default) — functions start as Liftoff code and
  are recompiled with TurboFan once hot; the function-table entry is
  swapped so every later call — including calls already in flight at
  morsel boundaries — runs optimized code.  This is V8's dynamic
  tier-up [Liftoff paper], which the paper gets "for free",
* ``mode="adaptive_stencil"`` — the same climb from a rung lower:
  tier-0 stencil code, then Liftoff, then TurboFan,
* ``mode="stencil"`` / ``mode="interpreter"`` — tier-0 code only / the
  reference interpreter (for testing).

"Hot" is a **cost decision** (the paper's Section 2.2: a tier must pay
for itself *during* the query).  Every function below the top rung
carries one meter.  By default (``tier_up_threshold=None``) it adds up
the wall time the function has run and promotes when that total covers
the *estimated* compile time of a rung — the function's instruction
count times :data:`compile_rates`' measured seconds per instruction —
going straight to the highest rung already paid for.  Compiling never
costs more than running already has (the ski-rental rule), so a helper
of a 256-row statement stays on the code it started on, while a scan
whose first morsel took 30 ms skips Liftoff and lands on TurboFan.  An
integer ``tier_up_threshold`` makes the same meter count calls instead:
one rung per ``threshold`` calls — deterministic, for tests and
ablations.

Compile times per tier are recorded in :class:`TierStats`; the paper's
Figure 10 stacks exactly these phases.  In real V8 the TurboFan compile
runs on a background thread; here it runs synchronously at the tier-up
call boundary but is accounted separately, so benches can report it
either overlapped or serialized.
"""

from __future__ import annotations

import threading
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

__all__ = ["ENGINE_MODES", "SEED_COMPILE_RATES", "TIER_LADDERS",
           "CompileRates", "Engine", "EngineConfig", "Instance", "TierStats",
           "compile_rates"]

_GLOBAL_DEFAULTS = {"i32": 0, "i64": 0, "f32": 0.0, "f64": 0.0}

#: The clock of the tier-up cost meter and of all compile accounting in
#: this module.  Tests replace this one name with a fake clock.
_clock = time.perf_counter

#: Compile seconds per Wasm instruction each rate starts from, measured
#: over the TPC-H modules (``benchmarks/bench_compile_times.py`` prints
#: today's figures; CI fails when the TurboFan : Liftoff ratio drifts).
SEED_COMPILE_RATES = {"liftoff": 18e-6, "turbofan": 50e-6}

#: Instructions the seed weighs in the mean — about one TPC-H module,
#: so a handful of measured compiles outweighs it.
_SEED_INSTRUCTIONS = 2000


def _module_size(module: Module) -> int:
    return sum(func.instruction_count() for func in module.functions)


class CompileRates:
    """Running mean of measured compile seconds per Wasm instruction.

    One instruction-weighted mean per compiling tier (total seconds over
    total instructions, the seed counted as :data:`_SEED_INSTRUCTIONS`
    instructions), refreshed by every real compile.  Thread-safe: the
    engines of concurrent queries share :data:`compile_rates`.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._totals = {
            tier: [rate * _SEED_INSTRUCTIONS, _SEED_INSTRUCTIONS]
            for tier, rate in SEED_COMPILE_RATES.items()
        }

    def record(self, tier: str, instructions: int, seconds: float) -> None:
        """Fold one measured compile of ``instructions`` into the mean."""
        with self._lock:
            totals = self._totals[tier]
            totals[0] += seconds
            totals[1] += instructions

    def seconds_per_instruction(self, tier: str) -> float:
        with self._lock:
            seconds, instructions = self._totals[tier]
        return seconds / instructions

    def estimate(self, tier: str, instructions: int) -> float:
        """Estimated seconds to compile ``instructions`` on ``tier``
        (never zero: an empty body is not free to compile either)."""
        return max(instructions, 1) * self.seconds_per_instruction(tier)


#: The process-wide rates behind every tier-up estimate.
compile_rates = CompileRates()


#: The valid tiering modes, in decreasing order of sophistication.
ENGINE_MODES = ("adaptive_stencil", "adaptive", "turbofan", "liftoff",
                "stencil", "interpreter")

#: The tier-up ladder per adaptive mode: functions start on the first
#: tier and climb as their meter pays for higher rungs.  Non-adaptive
#: modes pin every function to their single tier.
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
    #: ``None`` (default): promote a function when the time it has run
    #: covers a rung's estimated compile time.  An int: promote one rung
    #: per that many calls instead (deterministic; tests, ablations).
    tier_up_threshold: int | None = None
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
        threshold = self.tier_up_threshold
        if threshold is not None and (
                not isinstance(threshold, int) or isinstance(threshold, bool)
                or threshold < 1):
            raise ConfigError(
                f"tier_up_threshold must be None (cost meter) or an "
                f"int >= 1 (calls per rung), got {threshold!r}"
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
    #: Tier compilations that failed; each pins its function to a lower
    #: tier for the rest of the instance's life (V8's bailout).
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

        Tier state — the live function table, tier-up meters, compiled
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
            start = _clock()
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
                            "Tier compilations that failed; the function "
                            "stays on a lower tier",
                        # "from" the tier the function lands on instead
                        ).inc(from_tier="liftoff", to_tier="turbofan")
                    instance.funcs[n_imports + i] = compiled.bind(
                        instance, instance.profile
                    )
            seconds = _clock() - start
            instance.stats.turbofan_seconds += seconds
            if fallback is None:
                compile_rates.record("turbofan", _module_size(module),
                                     seconds)
            return

        # Stencil modes whose assembly declines (unsupported op, injected
        # fault) land on Liftoff code like the other modes — the
        # retryable StencilError never escapes the engine.
        if not (mode in ("stencil", "adaptive_stencil")
                and self._compile_stencil(instance)):
            compiler = LiftoffCompiler(module)
            start = _clock()
            with trace_span(trace, "compile.liftoff",
                            functions=len(module.functions)):
                for i, func in enumerate(module.functions):
                    if injector is not None:
                        # there is no lower compiled tier: a baseline
                        # failure aborts instantiation and is handled by
                        # the fallback chain (wasm[interpreter], volcano)
                        injector.check("liftoff.compile")
                    compiled = compiler.compile(
                        func, n_imports + i, instrumented
                    )
                    instance.funcs[n_imports + i] = compiled.bind(
                        instance, instance.profile
                    )
            seconds = _clock() - start
            instance.stats.liftoff_seconds += seconds
            instance.stats.liftoff_functions += len(module.functions)
            compile_rates.record("liftoff", _module_size(module), seconds)

        if len(self.config.tier_ladder) > 1:
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
        start = _clock()
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
            stats.stencil_seconds += _clock() - start
            stats.stencil_fallbacks += 1
            trace_event(trace, "stencil.fallback", reason=str(exc))
            get_registry().counter(
                "engine_stencil_fallbacks_total",
                "Stencil assemblies that fell back to Liftoff",
            ).inc()
            return False
        stats.stencil_seconds += _clock() - start
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

    def _install_tier_up_trigger(self, instance: Instance, func_index: int,
                                 spent: float = 0) -> None:
        """Wrap a function below the top rung with the tier-up meter.

        One wrapper serves both ladders and both meters.  The **cost
        meter** (``tier_up_threshold=None``) accumulates the wall time
        of the function's own calls — compile time spent inside them
        excluded, a recursive activation left to the outermost one — on
        top of ``spent``, the total handed on from the rungs below, and
        promotes at the next call once that total covers the estimated
        compile seconds of a higher rung.  The **call meter** (an int
        threshold) charges one per call instead and buys the next rung
        at ``threshold`` calls, restarting from zero on every rung.

        The meter lives in this closure, in the function table, so it
        keeps accumulating across re-runs of a cached instance; on
        promotion to the top rung the raw callable replaces the wrapper
        and the metering overhead disappears with it — V8's code
        patching.
        """
        current = instance.funcs[func_index]
        ladder = self.config.tier_ladder
        rungs = ladder[ladder.index(current.tier) + 1:]
        if not rungs:
            return
        threshold = self.config.tier_up_threshold
        timed = threshold is None
        if timed:
            module = instance.module
            size = module.functions[
                func_index - len(module.imports)].instruction_count()
            costs = tuple((rung, compile_rates.estimate(rung, size))
                          for rung in rungs)
        else:
            costs = ((rungs[0], threshold),)
        due = min(cost for _, cost in costs)
        engine = self
        stats = instance.stats
        running = False

        def tiering(*args):
            nonlocal spent, running
            if running:
                return current(*args)
            if not timed:
                spent += 1
                if spent < due:
                    return current(*args)
            elif spent < due:
                running = True
                compiling = stats.liftoff_seconds + stats.turbofan_seconds
                start = _clock()
                try:
                    return current(*args)
                finally:
                    spent += (_clock() - start) - (
                        stats.liftoff_seconds + stats.turbofan_seconds
                        - compiling)
                    running = False
            engine._promote(instance, func_index, current, costs, spent)
            return instance.funcs[func_index](*args)

        tiering.tier = current.tier
        instance.funcs[func_index] = tiering

    def _promote(self, instance: Instance, func_index: int, current,
                 costs: tuple, spent: float) -> None:
        """Move one function to the highest rung its meter has paid for.

        A failed compile must never abort a half-executed query (real
        V8 keeps running baseline code when an optimization job bails
        out): the :class:`CompilationError` is swallowed, counted in
        ``TierStats.tier_up_failures``, and the function is *pinned* —
        the next lower paid-for rung is tried, and whatever the function
        lands on (at worst ``current``, the raw callable of the tier it
        was on) is installed without a meter, so no compile is retried.
        """
        module = instance.module
        func = module.functions[func_index - len(module.imports)]
        stats = instance.stats
        trace = self.config.trace
        from_tier = current.tier
        timed = self.config.tier_up_threshold is None
        pinned = False
        for rung, cost in reversed(costs):
            if cost > spent:
                continue
            if timed:
                decision = {"spent_ms": round(spent * 1000.0, 3),
                            "estimated_compile_ms": round(cost * 1000.0, 3)}
            else:
                decision = {"calls": spent, "threshold": cost}
            try:
                promoted = self._compile_rung(instance, func, func_index,
                                              rung)
            except CompilationError:
                stats.tier_up_failures += 1
                pinned = True
                trace_event(trace, "tier_up.failure", function=func_index,
                            name=func.name, from_tier=from_tier,
                            to_tier=rung, **decision)
                get_registry().counter(
                    "engine_tier_up_failures_total",
                    "Tier compilations that failed; the function stays "
                    "on a lower tier",
                ).inc(from_tier=from_tier, to_tier=rung)
                continue
            stats.tier_ups += 1
            instance.funcs[func_index] = promoted
            if not pinned:
                self._install_tier_up_trigger(instance, func_index,
                                              spent if timed else 0)
            if rung == "turbofan":
                decision["elided"] = promoted.compiled.bounds_checks_elided
            trace_event(trace, "tier_up", function=func_index,
                        name=func.name, from_tier=from_tier, to_tier=rung,
                        **decision)
            get_registry().counter(
                "engine_tier_ups_total",
                "Functions promoted to a higher tier",
            ).inc(from_tier=from_tier, to_tier=rung)
            return
        instance.funcs[func_index] = current

    def _compile_rung(self, instance: Instance, func, func_index: int,
                      rung: str):
        """Compile and bind one function for ``rung`` during execution,
        charging the time to that tier's ``TierStats`` and, when the
        compile succeeds, to the process-wide rate estimates come from."""
        module = instance.module
        stats = instance.stats
        injector = self.config.fault_injector
        instrumented = instance.profile is not None
        start = _clock()
        try:
            if injector is not None:
                injector.check(f"{rung}.compile")
            with trace_span(self.config.trace, f"compile.{rung}",
                            function=func_index):
                if rung == "turbofan":
                    compiled = TurboFanCompiler(
                        module,
                        elide_bounds_checks=self.config.elide_bounds_checks,
                    ).compile(func, func_index, instrumented)
                else:
                    compiled = LiftoffCompiler(module).compile(
                        func, func_index, instrumented
                    )
            bound = compiled.bind(instance, instance.profile)
        finally:
            seconds = _clock() - start
            if rung == "turbofan":
                stats.turbofan_seconds += seconds
            else:
                stats.liftoff_seconds += seconds
        compile_rates.record(rung, func.instruction_count(), seconds)
        if rung == "turbofan":
            stats.turbofan_functions += 1
            stats.bounds_checks_elided += compiled.bounds_checks_elided
        else:
            stats.liftoff_functions += 1
        return bound
