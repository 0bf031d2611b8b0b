"""Tests of the static-analysis framework behind the module linter.

Covers the whole pipeline: preorder offsets, CFG construction, the
interval (range) analysis with its branch refinement, local liveness,
the :class:`ModuleLinter` diagnostics and the ``lint`` engine mode.
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
from repro.wasm.analysis.ranges import INT_RANGE
from repro.wasm.runtime import Engine, EngineConfig, LinearMemory


def scan_module(pages=2, n_rows=1000, bounded=False):
    """The paper-shaped morsel loop: ``scan(begin, end)`` sums an i32
    column mapped at address 256, one load per row.  ``bounded`` runs
    the loop over the constant window ``[0, n_rows)`` instead."""
    mb = ModuleBuilder("m")
    mb.add_memory(pages, pages)
    fb = mb.function("scan", params=[("i32", "begin"), ("i32", "end")],
                     results=["i32"], export=True)
    row = fb.local("i32", "row")
    acc = fb.local("i32", "acc")
    if bounded:
        fb.i32(0).set(row)
    else:
        fb.get(0).set(row)
    with fb.block() as done:
        with fb.loop() as top:
            fb.get(row)
            if bounded:
                fb.i32(n_rows)
            else:
                fb.get(1)
            fb.emit("i32.ge_s")
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
        """Branch refinement pins the constant-bounded loop's address to
        exactly the rows it reads."""
        module = scan_module(n_rows=1000, bounded=True)
        func = module.functions[0]
        result = analyze_ranges(module, func)
        facts = list(result.facts.values())
        assert len(facts) == 1
        fact = facts[0]
        assert fact.op == "i32.load"
        assert fact.imm_offset == 256
        # guard refinement: 0 <= row < 1000, so addr = row*4 in [0, 3996]
        assert fact.addr.lo == 0
        assert fact.addr.hi == 3996

    def test_without_hints_address_is_unbounded(self):
        module = scan_module()
        func = module.functions[0]
        result = analyze_ranges(module, func)
        (fact,) = result.facts.values()
        # nothing bounds `end`: the row index may be anything
        assert fact.addr.hi + fact.imm_offset + fact.access_size > 2 * 65536

    def test_wrapping_arithmetic_loses_exactness(self):
        """A ring op that may wrap widens to the whole type range."""
        mb = ModuleBuilder("m")
        mb.add_memory(1, 1)
        fb = mb.function("f", params=[("i32", "x")], results=["i32"],
                         export=True)
        fb.get(0).i32(3).emit("i32.mul")  # may wrap: x unbounded
        fb.load("i32", 0)
        module = mb.finish()
        result = analyze_ranges(module, module.functions[0])
        (fact,) = result.facts.values()
        assert (fact.addr.lo, fact.addr.hi) == INT_RANGE[32]

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
# dead-arm diagnostics
# ---------------------------------------------------------------------------

def dead_arm_module(op="if"):
    """A branch whose condition the interval analysis proves constant:
    the local is set to 10 right before it, so ``x < 20`` is always 1."""
    mb = ModuleBuilder("m")
    fb = mb.function("f", params=[("i32", "y")], results=["i32"],
                     export=True)
    x = fb.local("i32", "x")
    fb.i32(10).set(x)
    fb.get(x).i32(20).emit("i32.lt_s")
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
        assert diag.offset == 5  # the `if` instruction
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
