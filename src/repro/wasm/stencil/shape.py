"""Code-shape keys: what makes two modules share stencil artifacts.

An assembled :class:`~repro.wasm.stencil.assemble.StencilFunction` is
instance-independent — every per-instance value (globals, memory pages,
the live function table) is reached through the ctx tuple at bind time.
Its closures therefore depend on exactly:

* the **type section** and the **import count/signatures** (call
  stencils bake callee index and arity),
* each function's ``(type_index, locals, body)`` — opcodes, immediates,
  memory offsets, structure.

That dependency set is the *code shape*.  Everything else a module
carries — data-segment payloads (query constants, strings), global
initializers, export names, element segments, memory minimums — is
instance state and deliberately **excluded**, which is what makes the
cache cross-query: two structurally identical queries over the same
tables produce byte-identical code shapes even when their literals (in
the constants region) differ, because the rewired address space lays
columns out deterministically.

This is the issue's "operator shape" (operator kind x column types x
layout) materialized at the module level: the generated code *is* a
function of those three, so hashing the code hashes the shape without
re-deriving it from the plan.  Per-pipeline shape descriptors for
observability are extracted separately by the backend
(:meth:`repro.backend.codegen.QueryCompiler`).
"""

from __future__ import annotations

import hashlib

from repro.wasm.module import Module

__all__ = ["module_shape_key", "function_shape_key"]

#: Bump when assembly output changes incompatibly (cache keys roll over).
_SHAPE_VERSION = b"stencil-shape-v1\0"


def _hash_function(h, func) -> None:
    h.update(repr(func.type_index).encode())
    h.update(repr(func.locals_).encode())
    h.update(repr(func.body).encode())
    h.update(b"\0")


def module_shape_key(module: Module) -> str:
    """A stable digest of the module's code shape (memoized).

    Memoized on the module object: modules are immutable after
    construction (the backend builds, then hands off), and the plan
    cache re-serves the same object, so the digest is paid once per
    compiled module, not once per instantiation.
    """
    cached = getattr(module, "_stencil_shape_key", None)
    if cached is not None:
        return cached
    h = hashlib.sha256(_SHAPE_VERSION)
    h.update(repr([(t.params, t.results) for t in module.types]).encode())
    h.update(repr([imp.type_index for imp in module.imports]).encode())
    h.update(b"\0")
    for func in module.functions:
        _hash_function(h, func)
    key = h.hexdigest()
    try:
        module._stencil_shape_key = key
    except AttributeError:  # pragma: no cover - slotted module variants
        pass
    return key


def function_shape_key(module: Module, func_index: int) -> str:
    """The shape digest of one function (diagnostics, tests)."""
    module_key = module_shape_key(module)
    n_imports = len(module.imports)
    func = module.functions[func_index - n_imports]
    h = hashlib.sha256(module_key.encode())
    _hash_function(h, func)
    return h.hexdigest()
