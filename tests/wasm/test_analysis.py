"""Tests of the static-analysis framework and bounds-check elision.

Covers the whole pipeline: preorder offsets, CFG construction, the
interval (range) analysis with its branch refinement, local liveness,
the :class:`ModuleLinter` diagnostics, the ``lint`` engine mode, and
TurboFan's analysis-driven bounds-check elision (both that provable
accesses lose their mask and — the regression half — that non-provable
accesses keep it).
"""

import struct
import warnings

import pytest

from repro.errors import ConfigError, LintError, ValidationError
from repro.wasm import ModuleBuilder
from repro.wasm.analysis import (
    ModuleLinter,
    analyze_liveness,
    analyze_ranges,
    assign_offsets,
    build_cfg,
)
from repro.wasm.runtime import Engine, EngineConfig, LinearMemory
from repro.wasm.runtime.turbofan import TurboFanCompiler

from tests.wasm.conftest import assert_all_modes_agree

MASK = "& 4294967295"


def scan_module(hint=True, pages=2, n_rows=1000):
    """The paper-shaped morsel loop: ``scan(begin, end)`` sums an i32
    column mapped at address 256, one load per row."""
    mb = ModuleBuilder("m")
    mb.add_memory(pages, pages)
    fb = mb.function("scan", params=[("i32", "begin"), ("i32", "end")],
                     results=["i32"], export=True)
    if hint:
        fb.param_range(0, 0, n_rows).param_range(1, 0, n_rows)
    row = fb.local("i32", "row")
    acc = fb.local("i32", "acc")
    fb.get(0).set(row)
    with fb.block() as done:
        with fb.loop() as top:
            fb.get(row).get(1).emit("i32.ge_s")
            fb.br_if(done)
            fb.get(acc)
            fb.get(row).i32(4).emit("i32.mul")
            fb.load("i32", 256)
            fb.emit("i32.add").set(acc)
            fb.get(row).i32(1).emit("i32.add").set(row)
            fb.br(top)
    fb.get(acc)
    mb.add_data(256, struct.pack(f"<{n_rows}i", *range(n_rows)))
    return mb.finish()


def lint_bait_module():
    """Hand-built module exhibiting every major diagnostic: a dead
    store, a provably out-of-bounds store, and unreachable code."""
    mb = ModuleBuilder("bait")
    mb.add_memory(1, 1)
    fb = mb.function("bait", params=[("i32", "x")], results=["i32"],
                     export=True)
    v = fb.local("i32", "v")
    fb.i32(1).set(v)                      # offset 1: dead store
    fb.i32(2).set(v)
    fb.i32(130000).i32(7).store("i32")    # offset 6: provably OOB
    fb.get(v).ret()
    fb.i32(9).emit("drop")                # offset 9: unreachable
    return mb.finish()


# ---------------------------------------------------------------------------
# offsets + CFG
# ---------------------------------------------------------------------------

class TestOffsetsAndCfg:
    def test_offsets_are_preorder(self):
        mb = ModuleBuilder("m")
        fb = mb.function("f", results=["i32"])
        with fb.block():
            fb.i32(1).emit("drop")
        fb.i32(2)
        module = mb.finish()
        body = module.functions[0].body
        offsets = assign_offsets(body)
        # block=0, i32.const 1=1, drop=2, i32.const 2=3
        assert offsets[(id(body), 0)] == 0
        inner = body[0][2]
        assert offsets[(id(inner), 0)] == 1
        assert offsets[(id(inner), 1)] == 2
        assert offsets[(id(body), 1)] == 3

    def test_loop_header_and_reachability(self):
        module = scan_module()
        func = module.functions[0]
        cfg = build_cfg(module, func)
        assert any(b.is_loop_header for b in cfg.blocks)
        # every non-empty block of this function is reachable
        reachable = cfg.reachable()
        for block in cfg.blocks:
            if block.instrs:
                assert block.index in reachable

    def test_dead_code_lands_in_unreachable_block(self):
        module = lint_bait_module()
        cfg = build_cfg(module, module.functions[0])
        reachable = cfg.reachable()
        dead = [b for b in cfg.blocks
                if b.instrs and b.index not in reachable]
        assert dead, "code after return must form an unreachable block"
        off, instr = dead[0].instrs[0]
        assert instr[0] == "i32.const"


# ---------------------------------------------------------------------------
# range analysis
# ---------------------------------------------------------------------------

class TestRangeAnalysis:
    def test_scan_loop_address_is_bounded_and_exact(self):
        module = scan_module(n_rows=1000)
        func = module.functions[0]
        result = analyze_ranges(module, func)
        facts = list(result.facts.values())
        assert len(facts) == 1
        fact = facts[0]
        assert fact.op == "i32.load"
        assert fact.imm_offset == 256
        # guard refinement: row < end <= 1000, so addr = row*4 in [0,3996]
        assert fact.addr.lo == 0
        assert fact.addr.hi == 3996
        assert fact.addr.exact

    def test_without_hints_address_is_unbounded(self):
        module = scan_module(hint=False)
        func = module.functions[0]
        result = analyze_ranges(module, func)
        (fact,) = result.facts.values()
        # no contract on `end`: the row index may be anything
        assert fact.addr.hi + fact.imm_offset + fact.access_size > 2 * 65536

    def test_wrapping_arithmetic_loses_exactness(self):
        mb = ModuleBuilder("m")
        mb.add_memory(1, 1)
        fb = mb.function("f", params=[("i32", "x")], results=["i32"],
                         export=True)
        fb.get(0).i32(3).emit("i32.mul")  # may wrap: x unbounded
        fb.load("i32", 0)
        module = mb.finish()
        result = analyze_ranges(module, module.functions[0])
        (fact,) = result.facts.values()
        assert not fact.addr.exact

    def test_constant_address_fact(self):
        mb = ModuleBuilder("m")
        mb.add_memory(1, 1)
        fb = mb.function("f", results=["i32"], export=True)
        fb.i32(128).load("i32", 8)
        module = mb.finish()
        (fact,) = analyze_ranges(module, module.functions[0]).facts.values()
        assert (fact.addr.lo, fact.addr.hi) == (128, 128)
        assert fact.imm_offset == 8 and fact.access_size == 4


# ---------------------------------------------------------------------------
# liveness
# ---------------------------------------------------------------------------

class TestLiveness:
    def test_dead_store_detected(self):
        module = lint_bait_module()
        live = analyze_liveness(module, module.functions[0])
        stores = [(off, local) for off, local, _block in live.dead_stores]
        assert (1, 1) in stores  # the first `set v` at offset 1

    def test_write_only_and_unused_locals(self):
        mb = ModuleBuilder("m")
        fb = mb.function("f", results=["i32"], export=True)
        w = fb.local("i32", "w")   # written, never read
        fb.local("i32", "u")       # never referenced
        fb.i32(5).set(w)
        fb.i32(0)
        module = mb.finish()
        live = analyze_liveness(module, module.functions[0])
        assert w in live.written_locals and w not in live.used_locals
        assert live.first_write[w] == 1

    def test_loop_carried_local_is_not_dead(self):
        module = scan_module()
        live = analyze_liveness(module, module.functions[0])
        # row/acc updates feed the next iteration: nothing is dead
        assert live.dead_stores == []


# ---------------------------------------------------------------------------
# the linter
# ---------------------------------------------------------------------------

class TestModuleLinter:
    def test_flags_all_three_with_offsets(self):
        diags = ModuleLinter(lint_bait_module()).lint()
        by_code = {d.code: d for d in diags}
        assert set(by_code) == {"dead-store", "oob-access",
                                "unreachable-code"}
        assert by_code["dead-store"].offset == 1
        assert by_code["oob-access"].offset == 6
        assert by_code["unreachable-code"].offset == 9
        assert all(d.function == "bait" for d in diags)
        assert "bait+6: oob-access" in str(by_code["oob-access"])

    def test_clean_module_has_no_diagnostics(self):
        assert ModuleLinter(scan_module()).lint() == []


# ---------------------------------------------------------------------------
# engine integration: lint modes, provided-memory check
# ---------------------------------------------------------------------------

class TestEngineLint:
    def test_strict_raises_lint_error(self):
        engine = Engine(EngineConfig(lint="strict"))
        with pytest.raises(LintError) as info:
            engine.instantiate(lint_bait_module())
        codes = {d.code for d in info.value.diagnostics}
        assert "oob-access" in codes
        assert isinstance(info.value, ValidationError)

    def test_warn_mode_warns_and_instantiates(self):
        engine = Engine(EngineConfig(lint="warn"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            instance = engine.instantiate(lint_bait_module())
        assert len(caught) == 3
        assert len(instance.lint_diagnostics) == 3

    def test_off_is_silent(self):
        instance = Engine(EngineConfig(lint="off")).instantiate(
            lint_bait_module())
        assert instance.lint_diagnostics == []

    def test_strict_accepts_clean_module(self):
        engine = Engine(EngineConfig(lint="strict", mode="turbofan"))
        instance = engine.instantiate(scan_module())
        assert instance.invoke("scan", 0, 10) == sum(range(10))

    def test_bad_lint_mode_rejected(self):
        with pytest.raises(ConfigError):
            EngineConfig(lint="pedantic")

    def test_undersized_host_memory_rejected(self):
        module = scan_module(pages=2)
        memory = LinearMemory(min_pages=1, max_pages=4)
        with pytest.raises(ValidationError, match="minimum"):
            Engine(EngineConfig()).instantiate(module, memory=memory)


# ---------------------------------------------------------------------------
# bounds-check elision
# ---------------------------------------------------------------------------

def _address_lines(source):
    return [line for line in source.splitlines()
            if line.lstrip().startswith("a") and " = " in line
            and "_pages" not in line]


class TestBoundsCheckElision:
    def compile_scan(self, module, **kwargs):
        return TurboFanCompiler(module, **kwargs).compile(
            module.functions[0], 0)

    def test_provable_access_drops_the_mask(self):
        compiled = self.compile_scan(scan_module())
        assert compiled.bounds_checks_elided == 1
        (addr_line,) = _address_lines(compiled.source)
        assert MASK not in addr_line

    def test_non_provable_access_keeps_the_mask(self):
        # regression: without the param contract nothing bounds the row
        compiled = self.compile_scan(scan_module(hint=False))
        assert compiled.bounds_checks_elided == 0
        (addr_line,) = _address_lines(compiled.source)
        assert MASK in addr_line

    def test_elision_can_be_disabled(self):
        compiled = self.compile_scan(scan_module(),
                                     elide_bounds_checks=False)
        assert compiled.bounds_checks_elided == 0
        assert MASK in compiled.source

    def test_access_past_the_minimum_keeps_the_mask(self):
        # range is provable but exceeds the declared minimum: 1 page
        # cannot contain row 999 * 4 + 256 + 4 bytes... it can (3996+260
        # < 65536); shrink to make it not provable instead
        module = scan_module(pages=1, n_rows=20000)
        compiled = self.compile_scan(module)
        assert compiled.bounds_checks_elided == 0
        assert MASK in compiled.source

    def test_elided_code_computes_the_same_sums(self):
        module = scan_module()
        for begin, end in [(0, 0), (0, 1000), (17, 693), (999, 1000)]:
            expected = sum(range(begin, end))
            outcome = assert_all_modes_agree(module, "scan", (begin, end))
            assert outcome == ("ok", expected)

    def test_stats_counter_reaches_the_instance(self):
        engine = Engine(EngineConfig(mode="turbofan"))
        instance = engine.instantiate(scan_module())
        assert instance.stats.bounds_checks_elided == 1
        assert instance.invoke("scan", 0, 100) == sum(range(100))

    def test_adaptive_tier_up_counts_elisions(self, tier_clock):
        tier_clock.promote_after(turbofan=2)
        engine = Engine(EngineConfig(mode="adaptive"))
        instance = engine.instantiate(scan_module())
        for _ in range(4):
            instance.invoke("scan", 0, 10)
        assert instance.stats.tier_ups == 1
        assert instance.stats.bounds_checks_elided == 1


# ---------------------------------------------------------------------------
# value_range load contracts
# ---------------------------------------------------------------------------

def seek_module(hint=True, n_rows=16):
    """The index-seek shape: a loaded row id addresses a second load.

    Nothing in the code bounds the inner address — only the host's
    ``value_range`` contract on the row-id load (the permutation array
    only holds values in ``[0, n_rows)``) makes the second access
    provable."""
    mb = ModuleBuilder("m")
    mb.add_memory(1, 1)
    fb = mb.function("seek", params=[("i32", "pos")], results=["i32"],
                     export=True)
    fb.param_range(0, 0, n_rows - 1)
    fb.get(0).i32(4).emit("i32.mul")
    fb.load("i32", 0)                 # rowid = mem[pos*4]
    if hint:
        fb.value_range(0, n_rows - 1)
    fb.i32(4).emit("i32.mul")
    fb.load("i32", 256)               # value = mem[rowid*4 + 256]
    rowids = [(i * 7) % n_rows for i in range(n_rows)]
    mb.add_data(0, struct.pack(f"<{n_rows}i", *rowids))
    mb.add_data(256, struct.pack(f"<{n_rows}i", *range(0, n_rows * 10, 10)))
    return mb.finish()


class TestValueRangeContracts:
    def test_builder_converts_to_preorder_offsets(self):
        module = seek_module()
        # body: local.get=0 const=1 mul=2 load=3 const=4 mul=5 load=6
        assert module.functions[0].value_ranges == {3: (0, 15)}

    def test_empty_range_rejected(self):
        mb = ModuleBuilder("m")
        fb = mb.function("f", results=["i32"])
        fb.i32(0).load("i32")
        with pytest.raises(Exception):
            fb.value_range(5, 4)

    def test_range_needs_a_preceding_instruction(self):
        mb = ModuleBuilder("m")
        fb = mb.function("f")
        with pytest.raises(Exception):
            fb.value_range(0, 1)

    def test_hinted_load_bounds_the_dependent_address(self):
        module = seek_module()
        result = analyze_ranges(module, module.functions[0])
        (dep,) = [f for f in result.facts.values() if f.imm_offset == 256]
        assert (dep.addr.lo, dep.addr.hi) == (0, 60)
        assert dep.addr.exact

    def test_without_hint_dependent_address_is_unbounded(self):
        module = seek_module(hint=False)
        result = analyze_ranges(module, module.functions[0])
        (dep,) = [f for f in result.facts.values() if f.imm_offset == 256]
        assert dep.addr.hi + dep.imm_offset + dep.access_size > 65536

    def test_hint_unlocks_elision_of_the_dependent_access(self):
        hinted = TurboFanCompiler(seek_module()).compile(
            seek_module().functions[0], 0)
        bare_module = seek_module(hint=False)
        bare = TurboFanCompiler(bare_module).compile(
            bare_module.functions[0], 0)
        assert hinted.bounds_checks_elided == 2   # rowid + value loads
        assert bare.bounds_checks_elided == 1     # rowid load only

    def test_hinted_module_agrees_with_checked_tiers(self):
        module = seek_module()
        for pos in range(16):
            outcome = assert_all_modes_agree(module, "seek", (pos,))
            assert outcome == ("ok", ((pos * 7) % 16) * 10)


# ---------------------------------------------------------------------------
# dead-arm diagnostics
# ---------------------------------------------------------------------------

def dead_arm_module(op="if"):
    """A branch whose condition the interval analysis proves constant:
    the parameter is contracted to [0, 10], so ``x < 20`` is always 1."""
    mb = ModuleBuilder("m")
    fb = mb.function("f", params=[("i32", "x")], results=["i32"],
                     export=True)
    fb.param_range(0, 0, 10)
    fb.get(0).i32(20).emit("i32.lt_s")
    if op == "if":
        with fb.if_(["i32"]) as branch:
            fb.i32(1)
            branch.else_()
            fb.i32(2)
    else:
        with fb.block() as done:
            fb.br_if(done)
        fb.i32(3)
    return mb.finish()


class TestDeadArmLint:
    def test_constant_if_condition_flagged(self):
        diags = [d for d in ModuleLinter(dead_arm_module()).lint()
                 if d.code == "dead-arm"]
        assert len(diags) == 1
        (diag,) = diags
        assert diag.severity == "info"
        assert diag.offset == 3  # the `if` instruction
        assert "always 1" in diag.message
        assert "else arm" in diag.message

    def test_constant_br_if_condition_flagged(self):
        diags = [d for d in ModuleLinter(dead_arm_module("br_if")).lint()
                 if d.code == "dead-arm"]
        assert any("always taken" in d.message for d in diags)

    def test_info_severity_passes_strict_lint(self):
        engine = Engine(EngineConfig(lint="strict"))
        instance = engine.instantiate(dead_arm_module())
        assert instance.invoke("f", 5) == 1

    def test_unprovable_condition_not_flagged(self):
        # the scan loop's guard depends on both parameters: no verdict
        diags = ModuleLinter(scan_module()).lint()
        assert not any(d.code == "dead-arm" for d in diags)
