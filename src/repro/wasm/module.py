"""In-memory representation of a WebAssembly module.

A :class:`Module` mirrors the section structure of the binary format:
types, imports, functions, tables, memories, globals, exports, element
segments, and data segments.  Function bodies hold the tuple-based
instruction representation described in :mod:`repro.wasm.opcodes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "FuncType",
    "Function",
    "Global",
    "Import",
    "Export",
    "MemoryType",
    "TableType",
    "Element",
    "Data",
    "Module",
]


@dataclass(frozen=True)
class FuncType:
    """A function signature: parameter and result value types."""

    params: tuple[str, ...]
    results: tuple[str, ...]

    def __str__(self) -> str:
        p = " ".join(self.params)
        r = " ".join(self.results)
        return f"({p}) -> ({r})"


@dataclass
class Function:
    """One defined function.

    ``type_index`` points into :attr:`Module.types`; ``locals_`` lists the
    value types of the *extra* locals (parameters are locals 0..n-1);
    ``body`` is a list of instruction tuples.
    """

    type_index: int
    locals_: list[str] = field(default_factory=list)
    body: list = field(default_factory=list)
    name: str | None = None
    local_names: dict[int, str] = field(default_factory=dict)
    #: Host-contract value hints: parameter index -> inclusive ``(lo, hi)``
    #: range the caller promises to respect.  Purely advisory metadata for
    #: the static analyses (not encoded to binary): the codegen declares
    #: the ``[0, extent_rows]`` contract of ``pipeline_i(begin, end)``
    #: here, which lets the interval analysis bound scan addresses.
    param_ranges: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: Host-contract load hints: preorder instruction offset of a load ->
    #: inclusive ``(lo, hi)`` range of every value that load can produce
    #: (the codegen declares the catalog-statistics bounds of column
    #: loads here).  Advisory, like ``param_ranges``: the interval
    #: analysis intersects the load result with the hint, which lets it
    #: bound values no address arithmetic could (index-seek row ids).
    value_ranges: dict[int, tuple[int, int]] = field(default_factory=dict)

    def instruction_count(self) -> int:
        """Instructions in the body, nested blocks included — the size
        measure compile-cost estimates are scaled by."""
        count = 0
        pending = [self.body]
        while pending:
            body = pending.pop()
            count += len(body)
            for instr in body:
                op = instr[0]
                if op == "block" or op == "loop":
                    pending.append(instr[2])
                elif op == "if":
                    pending.append(instr[2])
                    pending.append(instr[3])
        return count


@dataclass
class Global:
    valtype: str
    mutable: bool
    init: object  # constant initial value
    name: str | None = None


@dataclass(frozen=True)
class MemoryType:
    minimum: int  # pages
    maximum: int | None = None


@dataclass(frozen=True)
class TableType:
    minimum: int
    maximum: int | None = None
    elemtype: str = "funcref"


@dataclass(frozen=True)
class Import:
    """An imported function (only functions are importable here, which is
    what the paper's host callbacks need: ``rewire_next_chunk`` etc.)."""

    module: str
    name: str
    type_index: int


@dataclass(frozen=True)
class Export:
    name: str
    kind: str  # "func" | "memory" | "global" | "table"
    index: int


@dataclass
class Element:
    """An active element segment: function indices placed into the table."""

    table_index: int
    offset: int
    func_indices: list[int]


@dataclass
class Data:
    """An active data segment: bytes placed into linear memory."""

    memory_index: int
    offset: int
    payload: bytes


@dataclass
class Module:
    """A complete module."""

    types: list[FuncType] = field(default_factory=list)
    imports: list[Import] = field(default_factory=list)
    functions: list[Function] = field(default_factory=list)
    tables: list[TableType] = field(default_factory=list)
    memories: list[MemoryType] = field(default_factory=list)
    globals: list[Global] = field(default_factory=list)
    exports: list[Export] = field(default_factory=list)
    elements: list[Element] = field(default_factory=list)
    data: list[Data] = field(default_factory=list)
    start: int | None = None
    name: str | None = None

    # -- indexing helpers (function index space = imports then definitions) --

    @property
    def num_imported_functions(self) -> int:
        return len(self.imports)

    def func_type_of(self, func_index: int) -> FuncType:
        """The signature of a function by its index-space index."""
        if func_index < len(self.imports):
            return self.types[self.imports[func_index].type_index]
        defined = self.functions[func_index - len(self.imports)]
        return self.types[defined.type_index]

    def function_by_name(self, name: str) -> tuple[int, Function]:
        """Find a *defined* function by its debug name."""
        for i, func in enumerate(self.functions):
            if func.name == name:
                return len(self.imports) + i, func
        raise KeyError(name)

    def export_by_name(self, name: str) -> Export:
        for export in self.exports:
            if export.name == name:
                return export
        raise KeyError(name)

    def add_type(self, functype: FuncType) -> int:
        """Intern a function type, returning its index."""
        try:
            return self.types.index(functype)
        except ValueError:
            self.types.append(functype)
            return len(self.types) - 1
