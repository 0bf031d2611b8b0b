"""Linear memory over a rewired address space.

A module's memory is a facade over a
:class:`repro.storage.rewiring.AddressSpace`: the page table translates
32-bit addresses to host buffers, so table columns mapped by the host are
readable zero-copy — the paper's ``SetModuleMemory()`` patch plus rewiring
(Section 6).

Two access paths exist:

* the method API here (used by the reference interpreter and the host),
* the raw ``pages`` list, inlined by the tier compilers for speed.
"""

from __future__ import annotations

import struct

from repro.errors import ResourceExhausted, Trap
from repro.storage.rewiring import WASM_PAGE_SIZE, AddressSpace

__all__ = ["LinearMemory"]

_PAGE_MASK = WASM_PAGE_SIZE - 1

_LOAD_FMT = {
    "i32.load": ("<i", 4), "i64.load": ("<q", 8),
    "f32.load": ("<f", 4), "f64.load": ("<d", 8),
    "i32.load8_s": ("<b", 1), "i32.load8_u": ("<B", 1),
    "i32.load16_s": ("<h", 2), "i32.load16_u": ("<H", 2),
    "i64.load8_s": ("<b", 1), "i64.load8_u": ("<B", 1),
    "i64.load16_s": ("<h", 2), "i64.load16_u": ("<H", 2),
    "i64.load32_s": ("<i", 4), "i64.load32_u": ("<I", 4),
}
_STORE_FMT = {
    "i32.store": ("<i", 4), "i64.store": ("<q", 8),
    "f32.store": ("<f", 4), "f64.store": ("<d", 8),
    "i32.store8": ("<B", 1), "i32.store16": ("<H", 2),
    "i64.store8": ("<B", 1), "i64.store16": ("<H", 2),
    "i64.store32": ("<I", 4),
}
_STORE_MASK = {
    "i32.store8": 0xFF, "i32.store16": 0xFFFF,
    "i64.store8": 0xFF, "i64.store16": 0xFFFF, "i64.store32": 0xFFFFFFFF,
}


class LinearMemory:
    """A module's linear memory, backed by an :class:`AddressSpace`."""

    #: Optional :class:`repro.robustness.FaultInjector`; when set, the
    #: ``memory.grow`` site is consulted before pages are handed out.
    fault_injector = None
    #: The trace of the run this memory currently serves (set by the
    #: host per run); an injected ``memory.grow`` fault is recorded in it.
    trace = None

    def __init__(self, space: AddressSpace | None = None, min_pages: int = 1,
                 max_pages: int | None = None):
        if space is None:
            # A private, spec-conformant memory: valid from address 0.
            space = AddressSpace(max_pages=max_pages or 1 << 16, first_page=0)
            if min_pages:
                space.alloc("__initial__", min_pages * WASM_PAGE_SIZE)
        self.space = space
        self.pages = space.pages  # the fast path for generated code

    @property
    def size_pages(self) -> int:
        """Current memory size in 64 KiB pages (``memory.size``)."""
        return self.space._next_page

    def grow(self, delta_pages: int) -> int:
        """``memory.grow``: returns the old size or -1 on failure.

        A failure *inside the Wasm semantics* (address space full) keeps
        the spec behavior and returns -1.  A failure of the *host policy*
        — the query's page budget (:class:`ResourceExhausted`, raised by
        the governor attached to the address space, or injected at the
        ``memory.grow`` fault site) — escapes to the host so the fallback
        chain can degrade the query instead of letting generated code
        limp on with a failed allocation.
        """
        old = self.size_pages
        if delta_pages == 0:
            return old
        if self.fault_injector is not None:
            self.fault_injector.check("memory.grow", self.trace)
        try:
            self.space.alloc(f"__grow_{old}__", delta_pages * WASM_PAGE_SIZE)
        except ResourceExhausted:
            raise
        except Exception:
            return -1
        return old

    # -- typed access (interpreter / host path) -----------------------------

    def load(self, op: str, addr: int) -> int | float:
        fmt, size = _LOAD_FMT[op]
        addr &= 0xFFFFFFFF
        try:
            buf, base = self.pages[addr >> 16]
            return struct.unpack_from(fmt, buf, base + (addr & _PAGE_MASK))[0]
        except (TypeError, struct.error, IndexError):
            pass
        # slow path: crosses a page boundary or is genuinely out of bounds
        try:
            raw = self.space.read(addr, size)
        except Exception:
            raise Trap("out of bounds memory access", f"load at {addr:#x}") from None
        return struct.unpack(fmt, raw)[0]

    def store(self, op: str, addr: int, value) -> None:
        fmt, size = _STORE_FMT[op]
        addr &= 0xFFFFFFFF
        mask = _STORE_MASK.get(op)
        if mask is not None:
            value = value & mask
        try:
            buf, base = self.pages[addr >> 16]
            struct.pack_into(fmt, buf, base + (addr & _PAGE_MASK), value)
            return
        except (TypeError, struct.error, IndexError):
            pass
        try:
            self.space.write(addr, struct.pack(fmt, value))
        except Exception:
            raise Trap("out of bounds memory access", f"store at {addr:#x}") from None

    # -- bulk access (host convenience) -----------------------------------------

    def read_bytes(self, addr: int, size: int) -> bytes:
        try:
            return self.space.read(addr & 0xFFFFFFFF, size)
        except Exception:
            raise Trap("out of bounds memory access", f"read at {addr:#x}") from None

    def write_bytes(self, addr: int, data: bytes) -> None:
        """The host's write path: unlike a module :meth:`store` it may
        fill regions the module sees read-only (constants, parameters)."""
        try:
            self.space.write(addr & 0xFFFFFFFF, data, host=True)
        except Exception:
            raise Trap("out of bounds memory access", f"write at {addr:#x}") from None
