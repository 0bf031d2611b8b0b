"""Instantiation and adaptive execution — the V8 role.

The :class:`Engine` owns the tiering policy, and the policy is data.
:data:`TIERS` has one row per rung — its name, how a function is
compiled for it, the compile rate its cost estimate starts from, the
fault site in front of its compiler, and the rung a function lands on
when that compile fails.  :data:`TIER_LADDERS` names, per mode, the
rungs a function climbs:

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

Every function is compiled by one routine
(:meth:`Engine._compile_and_land`), for the first rung of its ladder at
instantiation and for a higher one when promoted, so a compile that
fails is handled by one rule at both moments.

"Hot" is a **cost decision** (the paper's Section 2.2: a tier must pay
for itself *during* the query).  Every function below the top rung
carries one meter.  It adds up the wall time the function has run and
promotes when that total covers the *estimated* compile time of a rung
— the function's instruction count times :data:`compile_rates`'
measured seconds per instruction — going straight to the highest rung
already paid for.  Compiling never costs more than running already has
(the ski-rental rule), so a helper of a 256-row statement stays on the
code it started on, while a scan whose first morsel took 30 ms skips
Liftoff and lands on TurboFan.

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
from dataclasses import dataclass, field

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

__all__ = ["COMPILED_TIERS", "ENGINE_MODES", "SEED_COMPILE_RATES",
           "TIERS", "TIER_LADDERS", "CompileRates", "Engine",
           "EngineConfig", "Instance", "Tier", "TierStats",
           "compile_rates", "pinned_mode"]

_GLOBAL_DEFAULTS = {"i32": 0, "i64": 0, "f32": 0.0, "f64": 0.0}

#: The clock of the tier-up cost meter and of all compile accounting in
#: this module.  Tests replace this one name with a fake clock.
_clock = time.perf_counter


# -- the tier table ----------------------------------------------------------

@dataclass(frozen=True)
class Tier:
    """One rung: everything the runtime knows about a tier."""

    #: The label ``Instance.tier_of`` and ``wasm_morsels_total{tier}``
    #: report for code of this tier.
    name: str
    #: The kind of the trace span around this tier's compiles.
    span: str
    #: ``build(config, instance)`` runs once per (instance, tier) and
    #: returns ``compile(func, func_index) -> bound callable``.  The
    #: module-granular entries (stencil assembly, the interpreter
    #: binding) do their work in ``build``, compilers in ``compile``.
    build: object
    #: The fault site consulted before each compile; ``None`` for a
    #: tier that generates no code and so cannot fail to.
    fault_site: str | None = None
    #: Compile seconds per Wasm instruction the cost meter starts from,
    #: measured over the TPC-H modules (``benchmarks/
    #: bench_compile_times.py`` prints today's figures; CI fails when
    #: the TurboFan : Liftoff ratio drifts).  ``None``: functions are
    #: never promoted *to* this tier, so nothing is estimated.
    seed_rate: float | None = None
    #: The rung a function lands on when this tier's compile raises
    #: :class:`~repro.errors.CompilationError` (V8's bailout); ``None``:
    #: there is nothing lower, the error is the caller's.
    lands_on: str | None = None


def _bind_interpreter(config, instance):
    interpret = Interpreter(instance).make_callable
    return lambda func, func_index: interpret(func)


def _assemble_stencils(config, instance):
    """Tier-0 code for the whole module, served from the process-wide
    shape-keyed cache (:mod:`repro.wasm.stencil.cache`), so a
    structurally familiar module skips even the (cheap) assembly pass.

    Instrumented (profiling) runs assemble stencils too: the bound
    dispatch loop counts its executed stencils into the profile (see
    :meth:`~repro.wasm.stencil.assemble.StencilFunction.bind`), so the
    cost model sees tier-0 work.
    """
    artifacts, hit = get_stencil_cache().get(instance.module)
    if hit:
        instance.stats.stencil_cache_hits += 1
    else:
        instance.stats.stencil_cache_misses += 1
    n_imports = len(instance.module.imports)
    return lambda func, func_index: artifacts[func_index - n_imports].bind(
        instance, instance.profile)


def _liftoff(config, instance):
    compiler = LiftoffCompiler(instance.module)
    return lambda func, func_index: compiler.compile(
        func, func_index, instance.profile is not None
    ).bind(instance, instance.profile)


def _turbofan(config, instance):
    compiler = TurboFanCompiler(
        instance.module, elide_bounds_checks=config.elide_bounds_checks)

    def compile_one(func, func_index):
        compiled = compiler.compile(func, func_index,
                                    instance.profile is not None)
        instance.stats.bounds_checks_elided += compiled.bounds_checks_elided
        instance.stats.loops_prefiltered += compiled.prefilter is not None
        return compiled.bind(instance, instance.profile)
    return compile_one


#: The rungs, lowest first.  A new tier is a row here (and an entry in
#: the ladders below); nothing else in the package names the tiers.
TIERS = {tier.name: tier for tier in (
    Tier("interp", "compile.interpreter", _bind_interpreter),
    # tier-0 is an optimization, never a failure mode: a module it
    # declines runs Liftoff code
    Tier("stencil", "compile.stencil", _assemble_stencils,
         fault_site="stencil.assemble", lands_on="liftoff"),
    # the baseline: when it fails there is no code to run, and the host's
    # fallback chain (wasm[interpreter], volcano) takes the query
    Tier("liftoff", "compile.liftoff", _liftoff,
         fault_site="liftoff.compile", seed_rate=18e-6),
    Tier("turbofan", "compile.turbofan", _turbofan,
         fault_site="turbofan.compile", seed_rate=50e-6,
         lands_on="liftoff"),
)}

#: The tiers that generate code, in ladder order: the ones with compile
#: time to report (``compile_<tier>`` phases, ``compile.<tier>`` spans).
COMPILED_TIERS = tuple(name for name, tier in TIERS.items()
                       if tier.fault_site is not None)

#: Compile seconds per Wasm instruction each rate starts from.
SEED_COMPILE_RATES = {name: tier.seed_rate for name, tier in TIERS.items()
                      if tier.seed_rate is not None}

#: The rungs of each mode, in decreasing order of sophistication:
#: functions start on the first tier and climb as their meter pays for
#: higher rungs; single-rung modes pin every function to their tier.
TIER_LADDERS = {
    "adaptive_stencil": ("stencil", "liftoff", "turbofan"),
    "adaptive": ("liftoff", "turbofan"),
    "turbofan": ("turbofan",),
    "liftoff": ("liftoff",),
    "stencil": ("stencil",),
    "interpreter": ("interp",),
}

#: The valid tiering modes.
ENGINE_MODES = tuple(TIER_LADDERS)


def pinned_mode(ladder: tuple[str, ...]) -> str | None:
    """The mode a circuit breaker pins a ladder to while compiles of its
    top rung keep failing: the one that runs only the rung those
    failures land on.  ``None`` when the top rung has no landing rung
    (or the ladder is empty) — there is nothing to guard."""
    landing = TIERS[ladder[-1]].lands_on if ladder else None
    return next((mode for mode, rungs in TIER_LADDERS.items()
                 if rungs == (landing,)), None)


#: Instructions the seed weighs in the mean — about one TPC-H module,
#: so a handful of measured compiles outweighs it.
_SEED_INSTRUCTIONS = 2000


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
    #: Static-analysis linter over every instantiated module:
    #: "off" (default), "warn" (Python warnings), or "strict"
    #: (:class:`~repro.errors.LintError` on any diagnostic).
    lint: str = "off"
    #: Let TurboFan drop the per-access address mask when the interval
    #: analysis proves the access in bounds of the declared memory minimum.
    elide_bounds_checks: bool = True
    fault_injector: object = None   # a repro.robustness.FaultInjector

    def __post_init__(self):
        if self.mode not in ENGINE_MODES:
            raise ConfigError(
                f"unknown engine mode {self.mode!r}; have {ENGINE_MODES}"
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


@dataclass
class TierStats:
    """Per-instance compilation accounting (the phases of Figure 10)."""

    #: Compile seconds and functions compiled, by tier name — including
    #: time spent assembling (or fetching) tier-0 stencil code.
    seconds: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(TIERS, 0.0))
    functions: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(TIERS, 0))
    #: The sum of ``seconds``, kept beside it because the tier-up meter
    #: reads it around every metered call.
    total_compile_seconds: float = 0.0
    tier_ups: int = 0
    #: Tier compilations that failed; each pins its function to a lower
    #: tier for the rest of the instance's life (V8's bailout).
    tier_up_failures: int = 0
    #: Per-access bounds checks TurboFan statically proved away using the
    #: interval analysis (summed over its compiled functions).
    bounds_checks_elided: int = 0
    #: Filtered-scan loops TurboFan split into a NumPy selection mask
    #: plus the scalar loop over the survivors
    #: (:mod:`repro.wasm.runtime.prefilter`), over its compiled functions.
    loops_prefiltered: int = 0
    #: What those loops' drivers did in the current run: rows their masks
    #: were evaluated over, and rows then handed to the scalar code.
    prefilter_rows_seen: int = 0
    prefilter_rows_kept: int = 0
    #: Whether this instance's module shape was served from the
    #: process-wide stencil cache.
    stencil_cache_hits: int = 0
    stencil_cache_misses: int = 0


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
        #: The :class:`~repro.observability.QueryTrace` of the run that
        #: occupies this instance; compile spans, tier-up events and
        #: injected compile faults are recorded in it.
        self.trace = None
        self.lint_diagnostics: list = []
        self.stats = TierStats()
        #: tier name -> what that tier's ``Tier.build`` returned, kept so
        #: that neither a module nor a run of promotions pays it twice.
        self.compilers: dict = {}
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


def _decision(spent: float, cost: float) -> dict:
    """The meter reading a tier-up event carries (both zero when the
    mode, not a meter, chose the tier: at instantiation)."""
    return {"spent_ms": round(spent * 1000.0, 3),
            "estimated_compile_ms": round(cost * 1000.0, 3)}


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
        trace=None,
    ) -> Instance:
        """Build an instance: resolve imports, set up memory, compile.

        ``memory`` plays the role of the paper's ``SetModuleMemory()``
        patch: the host passes a linear memory whose pages alias its own
        rewired buffers.  If omitted, a private memory is created from the
        module's memory section.  ``trace`` is an optional
        :class:`~repro.observability.QueryTrace` for the validate, lint
        and compile spans; it stays the instance's trace until the host
        sets the next run's.
        """
        with trace_span(trace, "validate"):
            validate_module(module)

        lint_diagnostics: list = []
        if self.config.lint != "off":
            from repro.wasm.analysis import ModuleLinter

            with trace_span(trace, "lint", mode=self.config.lint):
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
        instance.trace = trace
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
        """Put every function on the first rung of the mode's ladder."""
        module = instance.module
        first = len(module.imports)
        tier = TIERS[TIER_LADDERS[self.config.mode][0]]
        with trace_span(instance.trace, tier.span,
                        functions=len(module.functions)):
            for func_index in range(first, first + len(module.functions)):
                self._compile_and_land(instance, func_index, tier)

    def _compile_and_land(self, instance: Instance, func_index: int,
                          tier: Tier, current=None, spent: float = 0.0,
                          cost: float = 0.0, pinned: bool = False) -> None:
        """Compile one function for ``tier`` and install it — the one
        routine behind instantiation (``current`` is ``None``) and
        promotion (``current`` is the raw callable of the tier the
        function is on, ``spent``/``cost`` its meter's decision).

        The time is charged to the tier's :class:`TierStats` and, when
        the compile succeeds, to the process-wide rates estimates come
        from; the function gets a meter for the rungs above unless it
        is ``pinned``.

        A compile that raises :class:`CompilationError` is handled by
        one rule, at either moment: it is counted in
        ``TierStats.tier_up_failures``, recorded as a ``tier_up.failure``
        event and in ``engine_tier_up_failures_total``, and the function
        is *pinned* to the rung the table says it lands on — compiled
        through this same routine, or simply kept when the function is
        on that rung already — without a meter, so no compile is
        retried.  Where the table names no rung, a function with code
        keeps it (a failed compile must never abort a half-executed
        query: real V8 keeps running baseline code when an optimization
        job bails out) and a function without any raises.
        """
        module = instance.module
        func = module.functions[func_index - len(module.imports)]
        stats, trace = instance.stats, instance.trace
        injector = self.config.fault_injector
        from_tier = current.tier if current is not None else "none"
        elided = stats.bounds_checks_elided
        prefiltered = stats.loops_prefiltered
        failure = None
        start = _clock()
        try:
            compile_one = instance.compilers.get(tier.name)
            if compile_one is None:
                compile_one = instance.compilers[tier.name] = tier.build(
                    self.config, instance)
            if injector is not None and tier.fault_site is not None:
                injector.check(tier.fault_site, trace)
            bound = compile_one(func, func_index)
        except CompilationError as exc:
            failure = exc
        seconds = _clock() - start
        stats.seconds[tier.name] += seconds
        stats.total_compile_seconds += seconds

        if failure is not None:
            stats.tier_up_failures += 1
            trace_event(trace, "tier_up.failure", function=func_index,
                        name=func.name, from_tier=from_tier,
                        to_tier=tier.name, **_decision(spent, cost))
            get_registry().counter(
                "engine_tier_up_failures_total",
                "Tier compilations that failed; the function stays on a "
                "lower tier",
            ).inc(from_tier=from_tier, to_tier=tier.name)
            if tier.lands_on not in (None, from_tier):
                self._compile_and_land(instance, func_index,
                                       TIERS[tier.lands_on], current,
                                       spent, cost, pinned=True)
            elif current is not None:
                instance.funcs[func_index] = current
            else:
                raise failure
            return

        if tier.seed_rate is not None:
            compile_rates.record(tier.name, func.instruction_count(),
                                 seconds)
        stats.functions[tier.name] += 1
        instance.funcs[func_index] = bound
        if not pinned:
            self._install_meter(instance, func_index, spent)
        if current is not None:
            stats.tier_ups += 1
            trace_event(trace, "tier_up", function=func_index,
                        name=func.name, from_tier=from_tier,
                        to_tier=tier.name, **_decision(spent, cost),
                        elided=stats.bounds_checks_elided - elided,
                        prefiltered=stats.loops_prefiltered - prefiltered)
            get_registry().counter(
                "engine_tier_ups_total",
                "Functions promoted to a higher tier",
            ).inc(from_tier=from_tier, to_tier=tier.name)

    def _install_meter(self, instance: Instance, func_index: int,
                       spent: float = 0.0) -> None:
        """Wrap a function below the top rung with the tier-up meter.

        The meter accumulates the wall time of the function's own calls
        — compile time spent inside them excluded, a recursive
        activation left to the outermost one — on top of ``spent``, the
        total handed on from the rungs below, and promotes at the next
        call once that total covers the estimated compile seconds of a
        higher rung.

        The meter lives in this closure, in the function table, so it
        keeps accumulating across re-runs of a cached instance; on
        promotion to the top rung the raw callable replaces the wrapper
        and the metering overhead disappears with it — V8's code
        patching.
        """
        current = instance.funcs[func_index]
        ladder = TIER_LADDERS[self.config.mode]
        rungs = ladder[ladder.index(current.tier) + 1:]
        if not rungs:
            return
        module = instance.module
        size = module.functions[
            func_index - len(module.imports)].instruction_count()
        costs = tuple((rung, compile_rates.estimate(rung, size))
                      for rung in rungs)
        due = min(cost for _, cost in costs)
        engine = self
        stats = instance.stats
        running = False

        def tiering(*args):
            nonlocal spent, running
            if running:
                return current(*args)
            if spent < due:
                running = True
                compiling = stats.total_compile_seconds
                start = _clock()
                try:
                    return current(*args)
                finally:
                    spent += (_clock() - start) - (
                        stats.total_compile_seconds - compiling)
                    running = False
            engine._promote(instance, func_index, current, costs, spent)
            return instance.funcs[func_index](*args)

        tiering.tier = current.tier
        instance.funcs[func_index] = tiering

    def _promote(self, instance: Instance, func_index: int, current,
                 costs: tuple, spent: float) -> None:
        """Move one function to the highest rung its meter has paid for."""
        rung, cost = next(paid for paid in reversed(costs)
                          if paid[1] <= spent)
        tier = TIERS[rung]
        with trace_span(instance.trace, tier.span, function=func_index):
            self._compile_and_land(instance, func_index, tier, current,
                                   spent, cost)
