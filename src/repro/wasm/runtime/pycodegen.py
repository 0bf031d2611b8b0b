"""Shared infrastructure of the two tier compilers.

Both tiers compile Wasm functions to Python source and ``compile()`` it;
they share the operator translation tables and the execution namespace
(the injected helpers below).  The *Liftoff* tier calls out-of-line
helpers (cheap to emit); the *TurboFan* tier inlines arithmetic and
elides redundant wrapping (cheap to execute).
"""

from __future__ import annotations

import math
import struct

from repro.errors import Trap
from repro.wasm.runtime import values as V

__all__ = [
    "BASE_NAMESPACE",
    "SIMPLE_BINOPS",
    "SIMPLE_UNOPS",
    "LOAD_FMT",
    "STORE_FMT",
    "RING_OPS_32",
    "TRAPPING_OPS",
    "assigned_locals",
    "make_namespace",
]

# struct formats (and widths) per memory instruction
LOAD_FMT = {
    "i32.load": "<i", "i64.load": "<q", "f32.load": "<f", "f64.load": "<d",
    "i32.load8_s": "<b", "i32.load8_u": "<B",
    "i32.load16_s": "<h", "i32.load16_u": "<H",
    "i64.load8_s": "<b", "i64.load8_u": "<B",
    "i64.load16_s": "<h", "i64.load16_u": "<H",
    "i64.load32_s": "<i", "i64.load32_u": "<I",
}
# store: (format, mask applied to the value before packing)
STORE_FMT = {
    "i32.store": ("<I", 0xFFFFFFFF),
    "i64.store": ("<Q", 0xFFFFFFFFFFFFFFFF),
    "f32.store": ("<f", None),
    "f64.store": ("<d", None),
    "i32.store8": ("<B", 0xFF),
    "i32.store16": ("<H", 0xFFFF),
    "i64.store8": ("<B", 0xFF),
    "i64.store16": ("<H", 0xFFFF),
    "i64.store32": ("<I", 0xFFFFFFFF),
}

# Binary operators rendered as Python expressions.  ``{a}``/``{b}`` are the
# operand sources.  These templates produce *signed-correct* results (they
# include wrapping); TurboFan additionally has raw (mod-ring) variants.
SIMPLE_BINOPS = {
    "i32.add": "_w32({a} + {b})",
    "i32.sub": "_w32({a} - {b})",
    "i32.mul": "_w32({a} * {b})",
    "i32.div_s": "_idiv_s32({a}, {b})",
    "i32.div_u": "_idiv_u32({a}, {b})",
    "i32.rem_s": "_irem_s({a}, {b})",
    "i32.rem_u": "_irem_u32({a}, {b})",
    "i32.and": "{a} & {b}",
    "i32.or": "{a} | {b}",
    "i32.xor": "{a} ^ {b}",
    "i32.shl": "_w32({a} << ({b} & 31))",
    "i32.shr_s": "{a} >> ({b} & 31)",
    "i32.shr_u": "_w32(({a} & 4294967295) >> ({b} & 31))",
    "i32.rotl": "_rotl32({a}, {b})",
    "i32.rotr": "_rotr32({a}, {b})",
    "i64.add": "_w64({a} + {b})",
    "i64.sub": "_w64({a} - {b})",
    "i64.mul": "_w64({a} * {b})",
    "i64.div_s": "_idiv_s64({a}, {b})",
    "i64.div_u": "_idiv_u64({a}, {b})",
    "i64.rem_s": "_irem_s({a}, {b})",
    "i64.rem_u": "_irem_u64({a}, {b})",
    "i64.and": "{a} & {b}",
    "i64.or": "{a} | {b}",
    "i64.xor": "{a} ^ {b}",
    "i64.shl": "_w64({a} << ({b} & 63))",
    "i64.shr_s": "{a} >> ({b} & 63)",
    "i64.shr_u": "_w64(({a} & 18446744073709551615) >> ({b} & 63))",
    "i64.rotl": "_rotl64({a}, {b})",
    "i64.rotr": "_rotr64({a}, {b})",
    "f32.add": "_f32r({a} + {b})",
    "f32.sub": "_f32r({a} - {b})",
    "f32.mul": "_f32r({a} * {b})",
    "f32.div": "_f32r(_fdiv({a}, {b}))",
    "f32.min": "_f32r(_fmin({a}, {b}))",
    "f32.max": "_f32r(_fmax({a}, {b}))",
    "f32.copysign": "_f32r(_copysign({a}, {b}))",
    "f64.add": "{a} + {b}",
    "f64.sub": "{a} - {b}",
    "f64.mul": "{a} * {b}",
    "f64.div": "_fdiv({a}, {b})",
    "f64.min": "_fmin({a}, {b})",
    "f64.max": "_fmax({a}, {b})",
    "f64.copysign": "_copysign({a}, {b})",
    # comparisons
    "i32.eq": "({a} == {b}) * 1",
    "i32.ne": "({a} != {b}) * 1",
    "i32.lt_s": "({a} < {b}) * 1",
    "i32.lt_u": "(({a} & 4294967295) < ({b} & 4294967295)) * 1",
    "i32.gt_s": "({a} > {b}) * 1",
    "i32.gt_u": "(({a} & 4294967295) > ({b} & 4294967295)) * 1",
    "i32.le_s": "({a} <= {b}) * 1",
    "i32.le_u": "(({a} & 4294967295) <= ({b} & 4294967295)) * 1",
    "i32.ge_s": "({a} >= {b}) * 1",
    "i32.ge_u": "(({a} & 4294967295) >= ({b} & 4294967295)) * 1",
    "i64.eq": "({a} == {b}) * 1",
    "i64.ne": "({a} != {b}) * 1",
    "i64.lt_s": "({a} < {b}) * 1",
    "i64.lt_u": "(({a} & 18446744073709551615) < ({b} & 18446744073709551615)) * 1",
    "i64.gt_s": "({a} > {b}) * 1",
    "i64.gt_u": "(({a} & 18446744073709551615) > ({b} & 18446744073709551615)) * 1",
    "i64.le_s": "({a} <= {b}) * 1",
    "i64.le_u": "(({a} & 18446744073709551615) <= ({b} & 18446744073709551615)) * 1",
    "i64.ge_s": "({a} >= {b}) * 1",
    "i64.ge_u": "(({a} & 18446744073709551615) >= ({b} & 18446744073709551615)) * 1",
    "f32.eq": "({a} == {b}) * 1",
    "f32.ne": "({a} != {b}) * 1",
    "f32.lt": "({a} < {b}) * 1",
    "f32.gt": "({a} > {b}) * 1",
    "f32.le": "({a} <= {b}) * 1",
    "f32.ge": "({a} >= {b}) * 1",
    "f64.eq": "({a} == {b}) * 1",
    "f64.ne": "({a} != {b}) * 1",
    "f64.lt": "({a} < {b}) * 1",
    "f64.gt": "({a} > {b}) * 1",
    "f64.le": "({a} <= {b}) * 1",
    "f64.ge": "({a} >= {b}) * 1",
}

SIMPLE_UNOPS = {
    "i32.eqz": "({a} == 0) * 1",
    "i64.eqz": "({a} == 0) * 1",
    "i32.clz": "_clz32({a})",
    "i32.ctz": "_ctz32({a})",
    "i32.popcnt": "({a} & 4294967295).bit_count()",
    "i64.clz": "_clz64({a})",
    "i64.ctz": "_ctz64({a})",
    "i64.popcnt": "({a} & 18446744073709551615).bit_count()",
    "f32.abs": "_f32r(abs({a}))",
    "f32.neg": "_f32r(-({a}))",
    "f32.ceil": "_f32r(_fceil({a}))",
    "f32.floor": "_f32r(_ffloor({a}))",
    "f32.trunc": "_f32r(_ftrunc({a}))",
    "f32.nearest": "_f32r(_fnearest({a}))",
    "f32.sqrt": "_f32r(_fsqrt({a}))",
    "f64.abs": "abs({a})",
    "f64.neg": "-({a})",
    "f64.ceil": "_fceil({a})",
    "f64.floor": "_ffloor({a})",
    "f64.trunc": "_ftrunc({a})",
    "f64.nearest": "_fnearest({a})",
    "f64.sqrt": "_fsqrt({a})",
    "i32.wrap_i64": "_w32({a})",
    "i64.extend_i32_s": "{a}",
    "i64.extend_i32_u": "{a} & 4294967295",
    "i32.trunc_f32_s": "_trunc_i32_s({a})",
    "i32.trunc_f32_u": "_trunc_i32_u({a})",
    "i32.trunc_f64_s": "_trunc_i32_s({a})",
    "i32.trunc_f64_u": "_trunc_i32_u({a})",
    "i64.trunc_f32_s": "_trunc_i64_s({a})",
    "i64.trunc_f32_u": "_trunc_i64_u({a})",
    "i64.trunc_f64_s": "_trunc_i64_s({a})",
    "i64.trunc_f64_u": "_trunc_i64_u({a})",
    "f32.convert_i32_s": "_f32r(float({a}))",
    "f32.convert_i32_u": "_f32r(float({a} & 4294967295))",
    "f32.convert_i64_s": "_f32r(float({a}))",
    "f32.convert_i64_u": "_f32r(float({a} & 18446744073709551615))",
    "f64.convert_i32_s": "float({a})",
    "f64.convert_i32_u": "float({a} & 4294967295)",
    "f64.convert_i64_s": "float({a})",
    "f64.convert_i64_u": "float({a} & 18446744073709551615)",
    "f32.demote_f64": "_f32r({a})",
    "f64.promote_f32": "{a}",
    "i32.reinterpret_f32": "_ri_f2i32({a})",
    "i64.reinterpret_f64": "_ri_f2i64({a})",
    "f32.reinterpret_i32": "_ri_i2f32({a})",
    "f64.reinterpret_i64": "_ri_i2f64({a})",
}

# i32 operators that are ring homomorphisms mod 2**32: applying them to
# unwrapped (mod-equal) operands yields mod-equal results, so TurboFan may
# postpone the signed wrap across chains of these.
RING_OPS_32 = frozenset({
    "i32.add", "i32.sub", "i32.mul", "i32.and", "i32.or", "i32.xor", "i32.shl",
})
RING_OPS_64 = frozenset({
    "i64.add", "i64.sub", "i64.mul", "i64.and", "i64.or", "i64.xor", "i64.shl",
})


# Operators that may trap at runtime: their evaluation is an *effect* and
# must not be delayed, reordered past control flow, dead-code-eliminated
# or skipped.
TRAPPING_OPS = frozenset({
    "i32.div_s", "i32.div_u", "i32.rem_s", "i32.rem_u",
    "i64.div_s", "i64.div_u", "i64.rem_s", "i64.rem_u",
    "i32.trunc_f32_s", "i32.trunc_f32_u", "i32.trunc_f64_s", "i32.trunc_f64_u",
    "i64.trunc_f32_s", "i64.trunc_f32_u", "i64.trunc_f64_s", "i64.trunc_f64_u",
})


def assigned_locals(body: list, acc: set | None = None) -> frozenset:
    """All locals written anywhere in ``body`` (recursively)."""
    if acc is None:
        acc = set()
    for instr in body:
        op = instr[0]
        if op == "local.set" or op == "local.tee":
            acc.add(instr[1])
        elif op == "block" or op == "loop":
            assigned_locals(instr[2], acc)
        elif op == "if":
            assigned_locals(instr[2], acc)
            assigned_locals(instr[3], acc)
    return frozenset(acc)


def _safe_sqrt(x: float) -> float:
    return math.sqrt(x) if x >= 0 else math.nan


def _safe_ceil(x: float) -> float:
    return float(math.ceil(x)) if math.isfinite(x) else x


def _safe_floor(x: float) -> float:
    return float(math.floor(x)) if math.isfinite(x) else x


BASE_NAMESPACE = {
    "_w32": V.wrap32,
    "_w64": V.wrap64,
    "_idiv_s32": lambda a, b: V.idiv_s(a, b, 32),
    "_idiv_s64": lambda a, b: V.idiv_s(a, b, 64),
    "_idiv_u32": V.idiv_u32,
    "_idiv_u64": V.idiv_u64,
    "_irem_s": V.irem_s,
    "_irem_u32": V.irem_u32,
    "_irem_u64": V.irem_u64,
    "_rotl32": V.rotl32,
    "_rotr32": V.rotr32,
    "_rotl64": V.rotl64,
    "_rotr64": V.rotr64,
    "_clz32": V.clz32,
    "_ctz32": V.ctz32,
    "_clz64": V.clz64,
    "_ctz64": V.ctz64,
    "_f32r": V.f32round,
    "_fdiv": V.fdiv,
    "_fmin": V.fmin,
    "_fmax": V.fmax,
    "_fnearest": V.fnearest,
    "_ftrunc": V.ftrunc_float,
    "_fsqrt": _safe_sqrt,
    "_fceil": _safe_ceil,
    "_ffloor": _safe_floor,
    "_copysign": math.copysign,
    "_trunc_i32_s": V.trunc_to_i32_s,
    "_trunc_i32_u": V.trunc_to_i32_u,
    "_trunc_i64_s": V.trunc_to_i64_s,
    "_trunc_i64_u": V.trunc_to_i64_u,
    "_ri_f2i32": V.reinterpret_f2i32,
    "_ri_f2i64": V.reinterpret_f2i64,
    "_ri_i2f32": V.reinterpret_i2f32,
    "_ri_i2f64": V.reinterpret_i2f64,
    "_unpack_from": struct.unpack_from,
    "_pack_into": struct.pack_into,
    "_Trap": Trap,
}


def make_namespace(instance, profile=None) -> dict:
    """The globals dict compiled code executes in, bound to one instance."""
    ns = dict(BASE_NAMESPACE)
    ns["_funcs"] = instance.funcs
    ns["_G"] = instance.globals
    ns["_pages"] = instance.memory.pages if instance.memory is not None else None
    ns["_memsize"] = (
        (lambda: instance.memory.size_pages) if instance.memory else None
    )
    ns["_memgrow"] = (
        (lambda d: instance.memory.grow(d)) if instance.memory else None
    )
    ns["_tbl"] = instance.table_lookup

    def _trap(kind, message=""):
        raise Trap(kind, message)

    ns["_trap"] = _trap
    if profile is not None:
        ns["_P"] = profile
        ns["_Pb"] = profile.branch
        ns["_Pm"] = profile.memory_access
    return ns
