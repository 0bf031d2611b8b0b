"""Rewiring: a paged 32-bit address space over host allocations.

The paper (Section 6.1) uses *rewiring* [Schuhknecht et al.] to manipulate
virtual-memory mappings from user space: host allocations (table columns,
result buffers) that live at arbitrary addresses are made to appear as one
consecutive region, which is then handed to the Wasm module as its linear
memory — **without copying**.  Because Wasm (MVP) is limited to 32-bit
addressing, at most 4 GiB can be mapped at once; larger tables are
processed in chunks that are re-wired on demand via a host callback
(``rewire_next_chunk`` in the paper, :meth:`AddressSpace.remap` here).

This module simulates the mechanism faithfully at the level that matters:

* the module-visible address space is an array of 64 KiB pages;
* each page is backed, zero-copy, by a slice of a host buffer
  (``memoryview`` over a NumPy array or ``bytearray``);
* mapping and re-mapping only update the page table — O(pages), no copies;
* loads/stores translate a 32-bit address via ``addr >> 16`` into the page
  table, exactly like an MMU walk.

The Wasm runtime's :class:`~repro.wasm.runtime.memory.LinearMemory` is a
thin facade over an :class:`AddressSpace`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RewiringError

__all__ = ["WASM_PAGE_SIZE", "Mapping", "AddressSpace"]

WASM_PAGE_SIZE = 1 << 16  # 64 KiB, as in the WebAssembly spec
_PAGE_MASK = WASM_PAGE_SIZE - 1
MAX_PAGES = 1 << 16  # 4 GiB / 64 KiB


@dataclass
class Mapping:
    """One mapped region: ``npages`` pages starting at ``address``."""

    name: str
    address: int
    length: int  # bytes of backing buffer actually mapped
    #: May the *module* store into this region?  When not, the page
    #: table holds a read-only view of the buffer, so a store traps on
    #: every tier — and a reader may rely on the bytes staying put for
    #: as long as the page-table entry does.
    writable: bool = False

    @property
    def npages(self) -> int:
        return -(-self.length // WASM_PAGE_SIZE)

    @property
    def end(self) -> int:
        return self.address + self.npages * WASM_PAGE_SIZE


class AddressSpace:
    """A 32-bit, paged address space with zero-copy mappings.

    Attributes:
        pages: the page table.  Entry ``p`` is ``None`` (unmapped) or a
            ``(buffer, base)`` pair meaning byte ``addr`` of the address
            space is byte ``base + (addr & 0xFFFF)`` of ``buffer``.
    """

    #: Optional per-query :class:`repro.robustness.ResourceGovernor`.
    #: When set, every page reservation is charged against the query's
    #: memory budget *before* it takes effect — the single choke point
    #: through which ``alloc``, ``map_buffer`` and ``memory.grow`` all
    #: pass.
    governor = None

    def __init__(self, max_pages: int = MAX_PAGES, first_page: int = 1):
        """By default page 0 stays unmapped as a NULL guard (address 0 is
        the generated code's null pointer); pass ``first_page=0`` for
        plain spec-conformant memories that must be valid from address 0.
        """
        if not (0 < max_pages <= MAX_PAGES):
            raise RewiringError(f"max_pages must be in 1..{MAX_PAGES}")
        self.max_pages = max_pages
        self.pages: list[tuple[object, int] | None] = [None] * max_pages
        #: The host's own entries for pages it may write although the
        #: module may not (``alloc(..., writable=False)``): page ->
        #: ``(writable view, base)``, consulted by ``write(host=True)``.
        self.host_pages: dict[int, tuple[object, int]] = {}
        self._next_page = first_page
        self.mappings: dict[str, Mapping] = {}

    # -- mapping ---------------------------------------------------------------

    @property
    def bytes_mapped(self) -> int:
        return sum(m.npages for m in self.mappings.values()) * WASM_PAGE_SIZE

    def _reserve(self, npages: int) -> int:
        start = self._next_page
        if start + npages > self.max_pages:
            raise RewiringError(
                f"address space exhausted: need {npages} pages, "
                f"{self.max_pages - start} free"
            )
        if self.governor is not None:
            # may raise ResourceExhausted; nothing is reserved in that case
            self.governor.charge_pages(npages)
        self._next_page += npages
        return start

    @staticmethod
    def _byte_view(buffer, writable: bool) -> memoryview:
        """``buffer`` as a flat byte view — read-only unless the module
        may store into the mapping."""
        view = memoryview(buffer)
        if view.ndim != 1 or view.itemsize != 1:
            view = view.cast("B")
        return view if writable else view.toreadonly()

    def map_buffer(self, name: str, buffer, writable: bool = False) -> int:
        """Map ``buffer`` at the next free page-aligned address; return it.

        The buffer is aliased, not copied — the essence of rewiring.  The
        last page may be partially backed; accesses past the end of the
        buffer trap, mirroring an access past the high-water mark.  So
        does a module store into a mapping that is not ``writable``: the
        page table then holds a read-only view (table columns and index
        permutations are mapped this way — generated code can never
        corrupt a base table in place).
        """
        if name in self.mappings:
            raise RewiringError(f"mapping {name!r} already exists")
        view = self._byte_view(buffer, writable)
        if writable and view.readonly:
            raise RewiringError(f"mapping {name!r}: buffer is read-only")
        length = view.nbytes
        npages = max(1, -(-length // WASM_PAGE_SIZE))
        start = self._reserve(npages)
        for p in range(npages):
            self.pages[start + p] = (view, p * WASM_PAGE_SIZE)
        addr = start * WASM_PAGE_SIZE
        self.mappings[name] = Mapping(name, addr, length, writable)
        return addr

    def alloc(self, name: str, nbytes: int, writable: bool = True) -> int:
        """Allocate fresh zeroed memory and map it.

        Used for scratch space the generated code owns: hash tables, sort
        buffers, and the result-set window of Figure 5.  With
        ``writable=False`` the region is the *host's* to fill (constants,
        parameter slots): the module sees it read-only, the host writes
        it through :meth:`write` with ``host=True``.
        """
        if nbytes <= 0:
            raise RewiringError(f"allocation size must be positive, got {nbytes}")
        # Validate before constructing the backing buffer: an over-budget
        # request must fail fast, not materialise gigabytes first.
        npages = max(1, -(-nbytes // WASM_PAGE_SIZE))
        if self._next_page + npages > self.max_pages:
            raise RewiringError(
                f"address space exhausted: need {npages} pages, "
                f"{self.max_pages - self._next_page} free"
            )
        if self.governor is not None:
            self.governor.ensure_pages(npages)
        buf = bytearray(npages * WASM_PAGE_SIZE)
        addr = self.map_buffer(name, buf, writable)
        if not writable:
            view = memoryview(buf)
            for p in range(npages):
                self.host_pages[(addr >> 16) + p] = (view, p * WASM_PAGE_SIZE)
        return addr

    def remap(self, name: str, buffer) -> int:
        """Re-wire an existing mapping to a different host buffer.

        This is the paper's ``rewire_next_chunk`` callback: the module keeps
        addressing the same virtual range while the host swaps which chunk
        of a large table backs it.  The new buffer must fit in the pages of
        the existing mapping.
        """
        try:
            mapping = self.mappings[name]
        except KeyError:
            raise RewiringError(f"unknown mapping {name!r}") from None
        view = self._byte_view(buffer, mapping.writable)
        if view.nbytes > mapping.npages * WASM_PAGE_SIZE:
            raise RewiringError(
                f"remap {name!r}: buffer of {view.nbytes} bytes exceeds the "
                f"mapped window of {mapping.npages} pages"
            )
        start = mapping.address >> 16
        for p in range(mapping.npages):
            if p * WASM_PAGE_SIZE < view.nbytes:
                self.pages[start + p] = (view, p * WASM_PAGE_SIZE)
            else:
                self.pages[start + p] = None
        mapping.length = view.nbytes
        return mapping.address

    def unmap(self, name: str) -> None:
        """Remove a mapping.  The address range is not recycled (the paper
        tears the whole space down per query, as do we)."""
        try:
            mapping = self.mappings.pop(name)
        except KeyError:
            raise RewiringError(f"unknown mapping {name!r}") from None
        start = mapping.address >> 16
        for p in range(mapping.npages):
            self.pages[start + p] = None
            self.host_pages.pop(start + p, None)

    def address_of(self, name: str) -> int:
        try:
            return self.mappings[name].address
        except KeyError:
            raise RewiringError(f"unknown mapping {name!r}") from None

    # -- byte access (used by hosts and tests; the Wasm runtime has its own
    #    fast path over .pages) -------------------------------------------------

    def read(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes at ``addr`` (may span pages of one buffer)."""
        out = bytearray()
        while size > 0:
            entry = self.pages[addr >> 16]
            if entry is None:
                raise RewiringError(f"read from unmapped address {addr:#x}")
            buf, base = entry
            off = base + (addr & _PAGE_MASK)
            take = min(size, WASM_PAGE_SIZE - (addr & _PAGE_MASK), len(buf) - off)
            if take <= 0:
                raise RewiringError(f"read past end of mapping at {addr:#x}")
            out += buf[off : off + take]
            addr += take
            size -= take
        return bytes(out)

    def write(self, addr: int, data: bytes, host: bool = False) -> None:
        """Write ``data`` at ``addr`` (may span pages of one buffer).

        ``host=True`` is the host's own path (data segments, parameter
        binding): it also reaches the regions allocated read-only *to
        the module*, through the writable view their mapping kept."""
        pos = 0
        size = len(data)
        while pos < size:
            entry = (host and self.host_pages.get(addr >> 16)) \
                or self.pages[addr >> 16]
            if entry is None:
                raise RewiringError(f"write to unmapped address {addr:#x}")
            buf, base = entry
            if isinstance(buf, memoryview) and buf.readonly:
                raise RewiringError(f"write to read-only mapping at {addr:#x}")
            off = base + (addr & _PAGE_MASK)
            take = min(size - pos, WASM_PAGE_SIZE - (addr & _PAGE_MASK), len(buf) - off)
            if take <= 0:
                raise RewiringError(f"write past end of mapping at {addr:#x}")
            buf[off : off + take] = data[pos : pos + take]
            addr += take
            pos += take
