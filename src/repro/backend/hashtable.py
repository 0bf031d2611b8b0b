"""Ad-hoc generation of specialized hash tables (paper Sections 4.3, 5).

For every grouping or join operator the compiler generates a *fresh*
chaining hash table whose key hashing, key comparison, insertion, growth
and rehashing are monomorphic Wasm code specialized to the exact key and
payload types of that operator — the paper's answer to type-agnostic
pre-compiled libraries with their per-element callbacks:

* key hashing is emitted inline (Fibonacci multiply for integers, FNV-1a
  over the padded bytes for strings — unrolled at the call site for
  ``CHAR(n)``, n <= 8, a looped helper for wider keys),
* key equality is emitted inline (no comparison callback; string keys
  of 1/2/4/8 bytes compare with one load each),
* upsert / insert / probe are emitted INLINE at their pipeline call
  sites (``emit_upsert_inline`` / ``emit_insert_inline`` /
  ``emit_probe_loop``) — the whole point of Section 4.3; the
  ``*_function`` variants remain as the per-access-call ablation
  (``QueryCompiler(inline_adhoc=False)``),
* entries are fixed-stride structs in one contiguous region, so a later
  pipeline can iterate the materialized groups morsel-wise,
* growth doubles the entry region and re-links all buckets using the
  *stored* hash — generated per table, as Section 4.3 demands.

Memory layout of an entry::

    [ next: i32 ][ hash: u32 ][ key fields ... ][ payload fields ... ]
"""

from __future__ import annotations

from repro.backend.layout import TupleLayout
from repro.sql.types import DataType
from repro.wasm.builder import FunctionBuilder

__all__ = ["GeneratedHashTable"]

_GOLDEN64 = -0x61C8864680B583EB  # 0x9E3779B97F4A7C15 as signed i64
_FNV_BASIS = -3750763034362895579
_FNV_PRIME = 1099511628211
#: String keys up to this width hash without a call (Section 4.3: "no
#: per-access function call"): the helper's loop, unrolled.
_INLINE_KEY_BYTES = 8
#: ... and keys of these widths compare with a single load per side.
_WORD_LOADS = {1: ("i32.load8_u", "i32"), 2: ("i32.load16_u", "i32"),
               4: ("i32.load", "i32"), 8: ("i64.load", "i64")}


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


class GeneratedHashTable:
    """One specialized hash table inside a query module.

    Args:
        ctx: the compiler context.
        name: unique name within the module (e.g. ``"ht0"``).
        key_types: the grouping/join key types, in order.
        payload_fields: ``(name, type, init)`` triples; ``init`` is the
            constant initial value stored on entry creation (aggregate
            identity / sentinel), or ``None`` to leave uninitialized
            (join payloads, overwritten right away).
        estimate: expected number of entries (sizes buckets and region).
    """

    def __init__(self, ctx, name: str, key_types: list[DataType],
                 payload_fields: list[tuple[str, DataType, object]],
                 estimate: int):
        self.ctx = ctx
        self.name = name
        self.key_types = key_types
        self.payload_fields = payload_fields
        fields = [(f"k{i}", ty) for i, ty in enumerate(key_types)]
        fields += [(fname, ty) for fname, ty, _ in payload_fields]
        self.layout = TupleLayout(fields, header=8)
        self.initial_entries = max(64, _next_pow2(int(estimate) + 1))
        self.initial_buckets = _next_pow2(max(16, 2 * int(estimate)))

        mb = ctx.mb
        self.g_buckets = mb.add_global("i32", 0, name=f"{name}_buckets")
        self.g_mask = mb.add_global("i32", 0, name=f"{name}_mask")
        self.g_entries = mb.add_global("i32", 0, name=f"{name}_entries")
        self.g_count = mb.add_global("i32", 0, name=f"{name}_count")
        self.g_capacity = mb.add_global("i32", 0, name=f"{name}_capacity")
        mb.export(f"{name}_count", "global", self.g_count)
        mb.export(f"{name}_entries", "global", self.g_entries)

        ctx.add_init(self._emit_init)
        self._grow_index: int | None = None

    # -- init --------------------------------------------------------------

    def _emit_init(self, fb: FunctionBuilder) -> None:
        alloc = self.ctx.alloc_function()
        memzero = self.ctx.memzero_function()
        fb.i32(self.initial_buckets * 4).call(alloc)
        fb.emit("global.set", self.g_buckets)
        fb.emit("global.get", self.g_buckets)
        fb.i32(self.initial_buckets * 4).call(memzero)
        fb.i32(self.initial_buckets - 1)
        fb.emit("global.set", self.g_mask)
        fb.i32(self.initial_entries * self.layout.stride).call(alloc)
        fb.emit("global.set", self.g_entries)
        fb.i32(self.initial_entries)
        fb.emit("global.set", self.g_capacity)
        fb.i32(0)
        fb.emit("global.set", self.g_count)

    # -- key parameter conventions -------------------------------------------

    def _key_params(self) -> list[tuple[str, str]]:
        """Wasm parameter list for the key values (strings as addresses)."""
        return [
            (ty.wasm_type if not ty.is_string else "i32", f"k{i}")
            for i, ty in enumerate(self.key_types)
        ]

    # -- inline hash computation ------------------------------------------------

    def emit_hash(self, fb: FunctionBuilder, key_locals: list[int]) -> int:
        """Emit hashing of the keys in ``key_locals``; returns an i32
        local holding the finished 32-bit hash (never 0-sensitive)."""
        h = fb.local("i64", "h")
        fb.i64(_GOLDEN64).set(h)
        for ty, local in zip(self.key_types, key_locals):
            if (ty.is_string and ty.size <= _INLINE_KEY_BYTES
                    and self.ctx.inline_adhoc):
                # the helper's FNV-1a, byte for byte: same hash values,
                # so bucket and output order do not depend on the choice
                fb.i64(_FNV_BASIS)
                for offset in range(ty.size):
                    fb.get(local).emit("i64.load8_u", 0, offset)
                    fb.emit("i64.xor").i64(_FNV_PRIME).emit("i64.mul")
            elif ty.is_string:
                fb.get(local)
                fb.call(self._hash_bytes_helper(ty.size))
            else:
                fb.get(local)
                if ty.wasm_type == "i32":
                    fb.emit("i64.extend_i32_s")
                elif ty.wasm_type == "f64":
                    fb.emit("i64.reinterpret_f64")
                fb.i64(_GOLDEN64).emit("i64.mul")
            # h = rotl(h, 27) ^ mixed
            fb.get(h).i64(27).emit("i64.rotl")
            fb.emit("i64.xor").set(h)
        out = fb.local("i32", "h32")
        fb.get(h).i64(33).emit("i64.shr_u").get(h).emit("i64.xor")
        fb.emit("i32.wrap_i64").set(out)
        return out

    def _hash_bytes_helper(self, width: int) -> int:
        """Generated FNV-1a over ``width`` padded bytes -> i64."""
        def generate(ctx):
            fb = ctx.mb.function(f"hash_bytes_{width}",
                                 params=[("i32", "addr")], results=["i64"])
            h = fb.local("i64", "h")
            i = fb.local("i32", "i")
            fb.i64(_FNV_BASIS).set(h)
            with fb.block() as done:
                with fb.loop() as top:
                    fb.get(i).i32(width).emit("i32.ge_u")
                    fb.br_if(done)
                    fb.get(h)
                    fb.get(0).get(i).emit("i32.add")
                    fb.emit("i32.load8_u", 0, 0)
                    fb.emit("i64.extend_i32_u")
                    fb.emit("i64.xor")
                    fb.i64(_FNV_PRIME).emit("i64.mul").set(h)
                    fb.get(i).i32(1).emit("i32.add").set(i)
                    fb.br(top)
            fb.get(h)
            return fb

        return self.ctx.helper(("hash_bytes", width), generate)

    # -- inline key equality -------------------------------------------------------

    def emit_keys_equal(self, fb: FunctionBuilder, entry_local: int,
                        key_locals: list[int], expr_compiler) -> None:
        """Emit code leaving i32 0/1: do the entry's keys equal the values
        in ``key_locals``?  Comparisons are fully inlined/monomorphic."""
        first = True
        for i, ty in enumerate(self.key_types):
            field = self.layout.field(f"k{i}")
            if (ty.is_string and ty.size in _WORD_LOADS
                    and self.ctx.inline_adhoc):
                load_op, word = _WORD_LOADS[ty.size]
                fb.get(entry_local).emit(load_op, 0, field.offset)
                fb.get(key_locals[i]).emit(load_op, 0, 0)
                fb.emit(f"{word}.eq")
            elif ty.is_string:
                fb.get(entry_local).i32(field.offset).emit("i32.add")
                fb.get(key_locals[i])
                fb.call(expr_compiler._streq_helper(ty.size, ty.size))
            else:
                fb.get(entry_local)
                fb.emit(field.load_op, 0, field.offset)
                fb.get(key_locals[i])
                fb.emit(f"{ty.wasm_type}.eq")
            if not first:
                fb.emit("i32.and")
            first = False
        if first:  # no keys: always equal
            fb.i32(1)

    # -- key/payload stores -----------------------------------------------------------

    def emit_store_keys(self, fb: FunctionBuilder, entry_local: int,
                        key_locals: list[int]) -> None:
        memcpy = self.ctx.memcpy_function()
        for i, ty in enumerate(self.key_types):
            field = self.layout.field(f"k{i}")
            if ty.is_string:
                fb.get(entry_local).i32(field.offset).emit("i32.add")
                fb.get(key_locals[i])
                fb.i32(ty.size)
                fb.call(memcpy)
            else:
                fb.get(entry_local)
                fb.get(key_locals[i])
                fb.emit(field.store_op, 0, field.offset)

    def emit_init_payload(self, fb: FunctionBuilder, entry_local: int) -> None:
        for fname, ty, init in self.payload_fields:
            if init is None:
                continue
            field = self.layout.field(fname)
            fb.get(entry_local)
            fb.const(ty.wasm_type, init)
            fb.emit(field.store_op, 0, field.offset)

    # -- generated functions --------------------------------------------------------------

    def grow_function(self) -> int:
        """Generated growth: double the entry region, copy, re-link all
        buckets from the stored hashes (the generated rehash the paper
        calls out in Section 4.3)."""
        if self._grow_index is not None:
            return self._grow_index
        ctx = self.ctx
        stride = self.layout.stride
        fb = ctx.mb.function(f"{self.name}_grow")
        alloc = ctx.alloc_function()
        memzero = ctx.memzero_function()
        memcpy = ctx.memcpy_function()
        new_entries = fb.local("i32", "new_entries")
        new_buckets = fb.local("i32", "new_buckets")
        new_nbuckets = fb.local("i32", "new_nbuckets")
        entry = fb.local("i32", "entry")
        end = fb.local("i32", "end")
        slot = fb.local("i32", "slot")

        # new entry region: double capacity, copy the old entries
        fb.emit("global.get", self.g_capacity).i32(1).emit("i32.shl")
        fb.emit("global.set", self.g_capacity)
        fb.emit("global.get", self.g_capacity).i32(stride).emit("i32.mul")
        fb.call(alloc).set(new_entries)
        fb.get(new_entries)
        fb.emit("global.get", self.g_entries)
        fb.emit("global.get", self.g_count).i32(stride).emit("i32.mul")
        fb.call(memcpy)
        fb.get(new_entries).emit("global.set", self.g_entries)

        # new bucket array: 2 * capacity, zeroed
        fb.emit("global.get", self.g_capacity).i32(1).emit("i32.shl")
        fb.set(new_nbuckets)
        fb.get(new_nbuckets).i32(1).emit("i32.sub")
        fb.emit("global.set", self.g_mask)
        fb.get(new_nbuckets).i32(2).emit("i32.shl").call(alloc)
        fb.set(new_buckets)
        fb.get(new_buckets)
        fb.get(new_nbuckets).i32(2).emit("i32.shl")
        fb.call(memzero)
        fb.get(new_buckets).emit("global.set", self.g_buckets)

        # re-link every entry via its stored hash
        fb.emit("global.get", self.g_entries).set(entry)
        fb.get(entry)
        fb.emit("global.get", self.g_count).i32(stride).emit("i32.mul")
        fb.emit("i32.add").set(end)
        with fb.block() as done:
            with fb.loop() as top:
                fb.get(entry).get(end).emit("i32.ge_u")
                fb.br_if(done)
                # slot = buckets + 4 * (hash & mask)
                fb.get(entry).emit("i32.load", 0, 4)  # stored hash
                fb.emit("global.get", self.g_mask).emit("i32.and")
                fb.i32(2).emit("i32.shl").get(new_buckets).emit("i32.add")
                fb.set(slot)
                # entry.next = *slot ; *slot = entry
                fb.get(entry).get(slot).emit("i32.load", 0, 0)
                fb.emit("i32.store", 0, 0)
                fb.get(slot).get(entry).emit("i32.store", 0, 0)
                fb.get(entry).i32(stride).emit("i32.add").set(entry)
                fb.br(top)
        self._grow_index = fb.func_index
        return self._grow_index

    # -- inline emission (the paper's point: no call per access) ---------------

    def emit_find_slot(self, fb: FunctionBuilder, h32: int, slot: int) -> None:
        """slot = buckets + 4 * (hash & mask)."""
        fb.get(h32).emit("global.get", self.g_mask).emit("i32.and")
        fb.i32(2).emit("i32.shl")
        fb.emit("global.get", self.g_buckets).emit("i32.add").set(slot)

    def emit_append_entry(self, fb: FunctionBuilder, h32: int, slot: int,
                          entry: int, key_locals: list[int]) -> None:
        """Inline: grow if full, reserve the next entry, link it into the
        bucket chain, store hash + keys."""
        fb.emit("global.get", self.g_count)
        fb.emit("global.get", self.g_capacity).emit("i32.ge_u")
        with fb.if_():
            fb.call(self.grow_function())
            # growth moved the bucket array: recompute the slot
            self.emit_find_slot(fb, h32, slot)
        fb.emit("global.get", self.g_entries)
        fb.emit("global.get", self.g_count)
        fb.i32(self.layout.stride).emit("i32.mul")
        fb.emit("i32.add").set(entry)
        fb.emit("global.get", self.g_count).i32(1).emit("i32.add")
        fb.emit("global.set", self.g_count)
        fb.get(entry).get(slot).emit("i32.load", 0, 0)
        fb.emit("i32.store", 0, 0)  # entry.next = *slot
        fb.get(slot).get(entry).emit("i32.store", 0, 0)
        fb.get(entry).get(h32).emit("i32.store", 0, 4)
        self.emit_store_keys(fb, entry, key_locals)

    def emit_upsert_inline(self, fb: FunctionBuilder, expr_compiler,
                           key_locals: list[int]) -> int:
        """Inline lookup-or-insert; leaves the entry address in the
        returned local.  Everything — hashing, chain walk, key equality,
        growth trigger, payload init — happens at the call site, exactly
        as Section 4.3 demands (no per-access function call)."""
        entry = fb.local("i32", "entry")
        slot = fb.local("i32", "slot")
        h32 = self.emit_hash(fb, key_locals)
        self.emit_find_slot(fb, h32, slot)
        with fb.block() as found:
            with fb.block() as miss:
                fb.get(slot).emit("i32.load", 0, 0).set(entry)
                with fb.loop() as walk:
                    fb.get(entry).emit("i32.eqz")
                    fb.br_if(miss)
                    fb.get(entry).emit("i32.load", 0, 4)
                    fb.get(h32).emit("i32.eq")
                    with fb.if_():
                        self.emit_keys_equal(fb, entry, key_locals,
                                             expr_compiler)
                        fb.br_if(found)
                    fb.get(entry).emit("i32.load", 0, 0).set(entry)
                    fb.br(walk)
            # miss: append a fresh entry with initialized aggregates
            self.emit_append_entry(fb, h32, slot, entry, key_locals)
            self.emit_init_payload(fb, entry)
        return entry

    def emit_insert_inline(self, fb: FunctionBuilder,
                           key_locals: list[int]) -> int:
        """Inline append-only insert (join build); returns entry local."""
        entry = fb.local("i32", "entry")
        slot = fb.local("i32", "slot")
        h32 = self.emit_hash(fb, key_locals)
        self.emit_find_slot(fb, h32, slot)
        self.emit_append_entry(fb, h32, slot, entry, key_locals)
        return entry

    def emit_probe_loop(self, fb: FunctionBuilder, expr_compiler,
                        key_locals: list[int], body) -> None:
        """Inline probe: walk the whole bucket chain; for every entry with
        equal hash and keys, run ``body(entry_local)`` — the comparison is
        monomorphic inline code, not a callback."""
        entry = fb.local("i32", "match")
        h32 = self.emit_hash(fb, key_locals)
        fb.get(h32).emit("global.get", self.g_mask).emit("i32.and")
        fb.i32(2).emit("i32.shl")
        fb.emit("global.get", self.g_buckets).emit("i32.add")
        fb.emit("i32.load", 0, 0).set(entry)
        with fb.block() as done:
            with fb.loop() as walk:
                fb.get(entry).emit("i32.eqz")
                fb.br_if(done)
                fb.get(entry).emit("i32.load", 0, 4)
                fb.get(h32).emit("i32.eq")
                with fb.if_():
                    self.emit_keys_equal(fb, entry, key_locals,
                                         expr_compiler)
                    with fb.if_():
                        body(entry)
                fb.get(entry).emit("i32.load", 0, 0).set(entry)
                fb.br(walk)

    def upsert_function(self, expr_compiler) -> int:
        """Generated lookup-or-insert, keys fully inlined.

        Signature: ``(key values...) -> entry address``.  New entries get
        their payload fields initialized to the configured constants.
        """
        ctx = self.ctx
        stride = self.layout.stride
        fb = ctx.mb.function(f"{self.name}_upsert",
                             params=self._key_params(), results=["i32"])
        key_locals = list(range(len(self.key_types)))
        entry = fb.local("i32", "entry")
        slot = fb.local("i32", "slot")
        h32 = self.emit_hash(fb, key_locals)

        # probe the chain
        with fb.block() as miss:
            fb.get(h32).emit("global.get", self.g_mask).emit("i32.and")
            fb.i32(2).emit("i32.shl")
            fb.emit("global.get", self.g_buckets).emit("i32.add").set(slot)
            fb.get(slot).emit("i32.load", 0, 0).set(entry)
            with fb.loop() as walk:
                fb.get(entry).emit("i32.eqz")
                fb.br_if(miss)
                fb.get(entry).emit("i32.load", 0, 4)
                fb.get(h32).emit("i32.eq")
                with fb.if_():
                    self.emit_keys_equal(fb, entry, key_locals, expr_compiler)
                    with fb.if_():
                        fb.get(entry).ret()
                fb.get(entry).emit("i32.load", 0, 0).set(entry)
                fb.br(walk)

        # miss: grow if full, then append + link
        fb.emit("global.get", self.g_count)
        fb.emit("global.get", self.g_capacity).emit("i32.ge_u")
        with fb.if_():
            fb.call(self.grow_function())
            # growth moved the bucket array: recompute the slot
            fb.get(h32).emit("global.get", self.g_mask).emit("i32.and")
            fb.i32(2).emit("i32.shl")
            fb.emit("global.get", self.g_buckets).emit("i32.add").set(slot)
        fb.emit("global.get", self.g_entries)
        fb.emit("global.get", self.g_count).i32(stride).emit("i32.mul")
        fb.emit("i32.add").set(entry)
        fb.emit("global.get", self.g_count).i32(1).emit("i32.add")
        fb.emit("global.set", self.g_count)
        fb.get(entry).get(slot).emit("i32.load", 0, 0)
        fb.emit("i32.store", 0, 0)  # entry.next = *slot
        fb.get(slot).get(entry).emit("i32.store", 0, 0)
        fb.get(entry).get(h32).emit("i32.store", 0, 4)
        self.emit_store_keys(fb, entry, key_locals)
        self.emit_init_payload(fb, entry)
        fb.get(entry)
        return fb.func_index

    def insert_function(self) -> int:
        """Generated append-only insert for join builds (duplicates kept).

        Signature: ``(key values...) -> entry address``; the caller then
        stores the payload columns into the returned entry.
        """
        ctx = self.ctx
        stride = self.layout.stride
        fb = ctx.mb.function(f"{self.name}_insert",
                             params=self._key_params(), results=["i32"])
        key_locals = list(range(len(self.key_types)))
        entry = fb.local("i32", "entry")
        slot = fb.local("i32", "slot")
        h32 = self.emit_hash(fb, key_locals)

        fb.emit("global.get", self.g_count)
        fb.emit("global.get", self.g_capacity).emit("i32.ge_u")
        with fb.if_():
            fb.call(self.grow_function())
        fb.get(h32).emit("global.get", self.g_mask).emit("i32.and")
        fb.i32(2).emit("i32.shl")
        fb.emit("global.get", self.g_buckets).emit("i32.add").set(slot)
        fb.emit("global.get", self.g_entries)
        fb.emit("global.get", self.g_count).i32(stride).emit("i32.mul")
        fb.emit("i32.add").set(entry)
        fb.emit("global.get", self.g_count).i32(1).emit("i32.add")
        fb.emit("global.set", self.g_count)
        fb.get(entry).get(slot).emit("i32.load", 0, 0)
        fb.emit("i32.store", 0, 0)
        fb.get(slot).get(entry).emit("i32.store", 0, 0)
        fb.get(entry).get(h32).emit("i32.store", 0, 4)
        self.emit_store_keys(fb, entry, key_locals)
        fb.get(entry)
        return fb.func_index

    def lookup_function(self, expr_compiler) -> int:
        """Generated probe: first chain entry with equal keys, or 0."""
        fb = self.ctx.mb.function(f"{self.name}_lookup",
                                  params=self._key_params(), results=["i32"])
        key_locals = list(range(len(self.key_types)))
        entry = fb.local("i32", "entry")
        h32 = self.emit_hash(fb, key_locals)
        fb.get(h32).emit("global.get", self.g_mask).emit("i32.and")
        fb.i32(2).emit("i32.shl")
        fb.emit("global.get", self.g_buckets).emit("i32.add")
        fb.emit("i32.load", 0, 0).set(entry)
        with fb.loop() as walk:
            fb.get(entry).emit("i32.eqz")
            with fb.if_():
                fb.i32(0).ret()
            fb.get(entry).emit("i32.load", 0, 4)
            fb.get(h32).emit("i32.eq")
            with fb.if_():
                self.emit_keys_equal(fb, entry, key_locals, expr_compiler)
                with fb.if_():
                    fb.get(entry).ret()
            fb.get(entry).emit("i32.load", 0, 0).set(entry)
            fb.br(walk)
        fb.emit("unreachable")
        return fb.func_index

    def next_match_function(self, expr_compiler) -> int:
        """Generated chain continuation: next entry with equal keys, or 0."""
        params = [("i32", "entry")] + self._key_params()
        fb = self.ctx.mb.function(f"{self.name}_next",
                                  params=params, results=["i32"])
        entry = 0
        key_locals = list(range(1, 1 + len(self.key_types)))
        current = fb.local("i32", "current")
        fb.get(entry).emit("i32.load", 0, 0).set(current)
        with fb.loop() as walk:
            fb.get(current).emit("i32.eqz")
            with fb.if_():
                fb.i32(0).ret()
            self.emit_keys_equal(fb, current, key_locals, expr_compiler)
            with fb.if_():
                fb.get(current).ret()
            fb.get(current).emit("i32.load", 0, 0).set(current)
            fb.br(walk)
        fb.emit("unreachable")
        return fb.func_index
