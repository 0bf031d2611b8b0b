"""Shared state of one query compilation.

The :class:`CompilerContext` owns the module builder, the memory plan
(absolute addresses of mapped columns, constants, result window, heap),
the constant pool, and the registry of ad-hoc generated helper functions
(string comparators, ``alloc``, ``memzero``, ...) so each specialized
helper is generated at most once per query module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PlanError
from repro.wasm.builder import ModuleBuilder

__all__ = ["MemoryPlan", "CompilerContext", "CONST_REGION_SIZE",
           "RESULT_REGION_SIZE", "MORSEL_SIZE"]

CONST_REGION_SIZE = 4 * 65536      # string literals, LIKE patterns
RESULT_REGION_SIZE = 16 * 65536    # the rewired result window of Figure 5
MORSEL_SIZE = 16384                # rows per morsel (adaptive switch points)


@dataclass
class MemoryPlan:
    """Absolute addresses in the query's rewired address space."""

    consts_base: int
    result_base: int
    heap_base: int
    heap_end: int
    column_addresses: dict[tuple[str, str], int]  # (binding, column) -> addr
    row_counts: dict[str, int] = field(default_factory=dict)  # binding -> rows
    #: binding -> largest row index count a pipeline over that binding may
    #: see per invocation (the chunk window for chunked scans, else the
    #: full row count).  Declared as ``param_range`` contracts on the
    #: generated pipelines so the interval analysis can bound addresses.
    extent_rows: dict[str, int] = field(default_factory=dict)
    #: (binding, column) -> inclusive host-guaranteed bounds on every
    #: value the column's loads can produce (integer storage domains
    #: only; derived from catalog statistics by the plan analysis).
    #: Declared as ``value_range`` contracts on the generated loads so
    #: the interval analysis can bound *loaded* values — the key to
    #: eliding bounds checks on loads addressed by another load (e.g.
    #: index-seek row ids).
    value_ranges: dict[tuple[str, str], tuple[int, int]] = \
        field(default_factory=dict)

    def column_address(self, binding: str, column: str) -> int:
        try:
            return self.column_addresses[(binding, column)]
        except KeyError:
            raise PlanError(
                f"column {binding}.{column} was not mapped"
            ) from None


class CompilerContext:
    """Everything the per-operator code generators share."""

    def __init__(self, name: str, memory: MemoryPlan,
                 short_circuit: bool = False, inline_adhoc: bool = True):
        self.memory = memory
        self.short_circuit = short_circuit
        self.inline_adhoc = inline_adhoc
        self.mb = ModuleBuilder(name)

        # host imports (declared before any defined function)
        self.flush_results = self.mb.import_function(
            "env", "flush_results", [], []
        )
        self.like_generic = self.mb.import_function(
            "env", "like_generic", ["i32", "i32", "i32"], ["i32"]
        )

        # The module declares a memory as the spec requires, but the host
        # replaces it with its rewired space at instantiation — the
        # paper's SetModuleMemory() patch (Section 6).  The minimum is the
        # true extent of the planned address space (heap is the last
        # region), which the bounds-check elision uses as its proof bound;
        # the host-provided rewired memory always covers it.
        min_pages = max(1, -(-memory.heap_end // 65536))
        self.mb.add_memory(min_pages, 1 << 16, export="memory")

        # module globals
        self.heap_ptr = self.mb.add_global(
            "i32", memory.heap_base, name="heap_ptr"
        )
        self.heap_end = self.mb.add_global(
            "i32", memory.heap_end, name="heap_end"
        )
        self.result_count = self.mb.add_global(
            "i32", 0, name="result_count"
        )
        self.mb.export("heap_ptr", "global", self.heap_ptr)
        self.mb.export("heap_end", "global", self.heap_end)
        self.mb.export("result_count", "global", self.result_count)

        self._constants = bytearray()
        self._constant_cache: dict[bytes, int] = {}
        self._helpers: dict[object, int] = {}
        self._generic_patterns: list[str] = []
        self._alloc_index: int | None = None
        self._init_statements: list = []  # callbacks emitting into init()
        # parameter slots, carved from the top of the constants region
        self._param_slots: dict[int, tuple[int, object]] = {}
        self._param_reserved = 0

    # -- constants ---------------------------------------------------------

    def intern_bytes(self, raw: bytes) -> int:
        """Place constant bytes in the constants region; returns address."""
        cached = self._constant_cache.get(raw)
        if cached is not None:
            return cached
        # 8-align each constant
        pad = (-len(self._constants)) % 8
        self._constants += b"\x00" * pad
        addr = self.memory.consts_base + len(self._constants)
        self._constants += raw
        if len(self._constants) > CONST_REGION_SIZE - self._param_reserved:
            raise PlanError("constant pool exhausted")
        self._constant_cache[raw] = addr
        return addr

    def param_address(self, index: int, ty) -> int:
        """Fixed address of the value slot for parameter ``$index``.

        Slots grow down from the top of the constants region, so the
        layout of every other mapping is untouched.  Generated code
        *loads* from the slot on every execution instead of baking the
        value in — the host rewrites the slot at each EXECUTE, which is
        what makes a compiled module reusable across bindings.
        """
        slot = self._param_slots.get(index)
        if slot is not None:
            return slot[0]
        size = ty.size if ty.is_string else 8
        size = (size + 7) & ~7
        self._param_reserved += size
        addr = self.memory.consts_base + CONST_REGION_SIZE - self._param_reserved
        if addr < self.memory.consts_base + len(self._constants):
            raise PlanError("constant pool exhausted (parameter slots)")
        self._param_slots[index] = (addr, ty)
        return addr

    @property
    def param_layout(self) -> dict[int, tuple[int, object]]:
        """``$index -> (address, type)`` for every parameter slot."""
        return dict(self._param_slots)

    def register_generic_pattern(self, pattern: str) -> int:
        """Host-side LIKE pattern id (generic patterns use a callback)."""
        self._generic_patterns.append(pattern)
        return len(self._generic_patterns) - 1

    @property
    def generic_patterns(self) -> list[str]:
        return self._generic_patterns

    # -- helper functions ---------------------------------------------------

    def helper(self, key, generate) -> int:
        """Memoized ad-hoc helper generation; returns function index.

        ``generate(ctx) -> FunctionBuilder`` runs once per distinct key.
        """
        index = self._helpers.get(key)
        if index is None:
            fb = generate(self)
            index = fb.func_index
            self._helpers[key] = index
        return index

    def alloc_function(self) -> int:
        """The generated bump allocator over the growable heap window."""
        if self._alloc_index is None:
            fb = self.mb.function("alloc", params=[("i32", "n")],
                                  results=["i32"])
            n, out = 0, fb.local("i32", "out")
            # aligned = (n + 7) & ~7
            fb.get(n).i32(7).emit("i32.add").i32(-8).emit("i32.and").set(n)
            # grow if heap_ptr + aligned > heap_end
            fb.emit("global.get", self.heap_ptr).get(n).emit("i32.add")
            fb.emit("global.get", self.heap_end).emit("i32.gt_u")
            with fb.if_():
                # pages = ((need - heap_end) >> 16) + 16
                fb.emit("global.get", self.heap_ptr).get(n).emit("i32.add")
                fb.emit("global.get", self.heap_end).emit("i32.sub")
                fb.i32(16).emit("i32.shr_u").i32(16).emit("i32.add")
                fb.tee(out)
                fb.emit("memory.grow")
                fb.i32(-1).emit("i32.eq")
                with fb.if_():
                    fb.emit("unreachable")  # out of memory
                fb.emit("global.get", self.heap_end)
                fb.get(out).i32(16).emit("i32.shl").emit("i32.add")
                fb.emit("global.set", self.heap_end)
            fb.emit("global.get", self.heap_ptr).tee(out)
            fb.get(n).emit("i32.add")
            fb.emit("global.set", self.heap_ptr)
            fb.get(out)
            self._alloc_index = fb.func_index
        return self._alloc_index

    def memzero_function(self) -> int:
        """Generated zero-fill (8 bytes at a time; size must be 8-aligned)."""
        def generate(ctx):
            fb = ctx.mb.function("memzero",
                                 params=[("i32", "addr"), ("i32", "n")])
            end = fb.local("i32", "end")
            fb.get(0).get(1).emit("i32.add").set(end)
            with fb.block() as done:
                with fb.loop() as top:
                    fb.get(0).get(end).emit("i32.ge_u")
                    fb.br_if(done)
                    fb.get(0).i64(0).store("i64")
                    fb.get(0).i32(8).emit("i32.add").set(0)
                    fb.br(top)
            return fb

        return self.helper("memzero", generate)

    def memcpy_function(self) -> int:
        """Generated byte copy (used when regions may not be 8-aligned)."""
        def generate(ctx):
            fb = ctx.mb.function(
                "memcpy",
                params=[("i32", "dst"), ("i32", "src"), ("i32", "n")],
            )
            end = fb.local("i32", "end")
            fb.get(1).get(2).emit("i32.add").set(end)
            with fb.block() as done:
                with fb.loop() as top:
                    fb.get(1).get(end).emit("i32.ge_u")
                    fb.br_if(done)
                    fb.get(0).get(1).emit("i32.load8_u", 0, 0)
                    fb.emit("i32.store8", 0, 0)
                    fb.get(0).i32(1).emit("i32.add").set(0)
                    fb.get(1).i32(1).emit("i32.add").set(1)
                    fb.br(top)
            return fb

        return self.helper("memcpy", generate)

    # -- init function --------------------------------------------------------

    def add_init(self, emit_callback) -> None:
        """Register ``emit_callback(fb)`` to run inside the generated
        ``init()`` function (hash-table setup, state allocation, ...)."""
        self._init_statements.append(emit_callback)

    def finish(self):
        """Emit init(), the constants data segment; seal the module."""
        init = self.mb.function("init", export=True)
        for emit in self._init_statements:
            emit(init)
        if self._constants:
            self.mb.add_data(self.memory.consts_base, bytes(self._constants))
        return self.mb.finish()
