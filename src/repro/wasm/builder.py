"""Convenient construction of Wasm modules and function bodies.

:class:`ModuleBuilder` assembles a :class:`~repro.wasm.module.Module`;
:class:`FunctionBuilder` emits instructions with structured-control
context managers::

    mb = ModuleBuilder("query")
    fb = mb.function("f", params=[("i32", "n")], results=["i32"], export=True)
    acc = fb.local("i32", "acc")
    with fb.block() as done:
        with fb.loop() as top:
            fb.get(fb.param(0))
            fb.emit("i32.eqz")
            fb.br_if(done)
            ...
            fb.br(top)
    fb.get(acc)
    module = mb.finish()

The emitted body is the tuple-IR of :mod:`repro.wasm.opcodes`; the
generated module can be validated, encoded to binary, interpreted, or
tier-compiled.
"""

from __future__ import annotations

from repro.errors import EncodeError
from repro.wasm.module import (
    Data,
    Element,
    Export,
    FuncType,
    Function,
    Global,
    Import,
    MemoryType,
    Module,
    TableType,
)
from repro.wasm.opcodes import OPS, VALUE_TYPES

__all__ = ["ModuleBuilder", "FunctionBuilder", "Label"]


class Label:
    """A branch target created by ``block``/``loop``/``if`` context managers."""

    def __init__(self, builder: "FunctionBuilder", kind: str, position: int):
        self._builder = builder
        self.kind = kind
        self.position = position  # index in the builder's control stack

    def depth(self) -> int:
        """The relative depth for a ``br`` emitted *now*."""
        return len(self._builder._control) - 1 - self.position


class _BlockContext:
    """Context manager that opens and closes one structured instruction."""

    def __init__(self, builder: "FunctionBuilder", kind: str, results: list[str]):
        self._builder = builder
        self._kind = kind
        self._results = list(results)

    def __enter__(self) -> Label:
        builder = self._builder
        body: list = []
        if self._kind == "if":
            else_body: list = []
            instr = ("if", self._results, body, else_body)
            self._else_body = else_body
        else:
            instr = (self._kind, self._results, body)
        builder._current().append(instr)
        builder._bodies.append(body)
        label = Label(builder, self._kind, len(builder._control))
        builder._control.append(label)
        self._label = label
        return label

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._builder._bodies.pop()
            self._builder._control.pop()


class _IfContext(_BlockContext):
    """``if`` context manager with an :meth:`else_` switch.

    Unlike block/loop, entering yields the context itself (so ``else_``
    is reachable); it quacks like a :class:`Label` via :meth:`depth`.
    """

    def __init__(self, builder: "FunctionBuilder", results: list[str]):
        super().__init__(builder, "if", results)
        self._in_else = False

    def __enter__(self) -> "_IfContext":
        super().__enter__()
        return self

    def depth(self) -> int:
        return self._label.depth()

    def else_(self) -> None:
        """Switch emission from the then-branch to the else-branch."""
        if self._in_else:
            raise EncodeError("else_() called twice")
        self._in_else = True
        self._builder._bodies.pop()
        self._builder._bodies.append(self._else_body)


class FunctionBuilder:
    """Emits one function body."""

    def __init__(
        self,
        module_builder: "ModuleBuilder",
        name: str,
        params: list[tuple[str, str]],
        results: list[str],
    ):
        for ty, _ in params:
            if ty not in VALUE_TYPES:
                raise EncodeError(f"bad param type {ty!r}")
        for ty in results:
            if ty not in VALUE_TYPES:
                raise EncodeError(f"bad result type {ty!r}")
        self._mb = module_builder
        self.name = name
        self.param_types = [ty for ty, _ in params]
        self.result_types = list(results)
        self._locals: list[str] = []
        self._local_names: dict[int, str] = {
            i: pname for i, (_, pname) in enumerate(params)
        }
        self.body: list = []
        self._bodies: list[list] = [self.body]
        self._control: list[Label] = []
        self.func_index: int = -1  # assigned by ModuleBuilder

    # -- locals -----------------------------------------------------------

    def param(self, index: int) -> int:
        """The local index of parameter ``index``."""
        if not (0 <= index < len(self.param_types)):
            raise EncodeError(f"no parameter {index}")
        return index

    def local(self, ty: str, name: str | None = None) -> int:
        """Declare a fresh local of type ``ty``; returns its index."""
        if ty not in VALUE_TYPES:
            raise EncodeError(f"bad local type {ty!r}")
        index = len(self.param_types) + len(self._locals)
        self._locals.append(ty)
        if name:
            self._local_names[index] = name
        return index

    def type_of_local(self, index: int) -> str:
        if index < len(self.param_types):
            return self.param_types[index]
        return self._locals[index - len(self.param_types)]

    # -- raw emission --------------------------------------------------------

    def _current(self) -> list:
        return self._bodies[-1]

    def emit(self, op: str, *immediates) -> "FunctionBuilder":
        """Emit one non-structured instruction."""
        if op not in OPS:
            raise EncodeError(f"unknown instruction {op!r}")
        if op in ("block", "loop", "if"):
            raise EncodeError(f"use the {op}() context manager")
        self._current().append((op, *immediates))
        return self

    # -- structured control -----------------------------------------------------

    def block(self, results: list[str] | None = None) -> _BlockContext:
        return _BlockContext(self, "block", results or [])

    def loop(self, results: list[str] | None = None) -> _BlockContext:
        return _BlockContext(self, "loop", results or [])

    def if_(self, results: list[str] | None = None) -> _IfContext:
        return _IfContext(self, results or [])

    def br(self, label: Label) -> "FunctionBuilder":
        return self.emit("br", label.depth())

    def br_if(self, label: Label) -> "FunctionBuilder":
        return self.emit("br_if", label.depth())

    # -- common shorthands -----------------------------------------------------

    def i32(self, value: int) -> "FunctionBuilder":
        return self.emit("i32.const", int(value))

    def i64(self, value: int) -> "FunctionBuilder":
        return self.emit("i64.const", int(value))

    def f32(self, value: float) -> "FunctionBuilder":
        return self.emit("f32.const", float(value))

    def f64(self, value: float) -> "FunctionBuilder":
        return self.emit("f64.const", float(value))

    def const(self, ty: str, value) -> "FunctionBuilder":
        return self.emit(f"{ty}.const", value)

    def get(self, local: int) -> "FunctionBuilder":
        return self.emit("local.get", local)

    def set(self, local: int) -> "FunctionBuilder":
        return self.emit("local.set", local)

    def tee(self, local: int) -> "FunctionBuilder":
        return self.emit("local.tee", local)

    def load(self, ty: str, offset: int = 0, align: int = 0) -> "FunctionBuilder":
        return self.emit(f"{ty}.load", align, offset)

    def store(self, ty: str, offset: int = 0, align: int = 0) -> "FunctionBuilder":
        return self.emit(f"{ty}.store", align, offset)

    def call(self, func_index: int) -> "FunctionBuilder":
        return self.emit("call", func_index)

    def ret(self) -> "FunctionBuilder":
        return self.emit("return")


class ModuleBuilder:
    """Assembles a module: imports first, then functions, memory, exports."""

    def __init__(self, name: str | None = None):
        self._module = Module(name=name)
        self._function_builders: list[FunctionBuilder] = []
        self._exports: list[tuple[str, str, FunctionBuilder | int]] = []
        self._finished = False

    # -- imports (must precede function definitions, as in the index space) --

    def import_function(
        self, module: str, name: str, params: list[str], results: list[str]
    ) -> int:
        """Declare an imported host function; returns its function index."""
        if self._function_builders:
            raise EncodeError("imports must be declared before functions")
        type_index = self._module.add_type(
            FuncType(tuple(params), tuple(results))
        )
        self._module.imports.append(Import(module, name, type_index))
        return len(self._module.imports) - 1

    # -- definitions -------------------------------------------------------------

    def function(
        self,
        name: str,
        params: list[tuple[str, str]] | None = None,
        results: list[str] | None = None,
        export: bool = False,
    ) -> FunctionBuilder:
        fb = FunctionBuilder(self, name, params or [], results or [])
        fb.func_index = len(self._module.imports) + len(self._function_builders)
        self._function_builders.append(fb)
        if export:
            self._exports.append((name, "func", fb))
        return fb

    def add_memory(
        self, minimum: int, maximum: int | None = None, export: str | None = None
    ) -> int:
        self._module.memories.append(MemoryType(minimum, maximum))
        index = len(self._module.memories) - 1
        if export:
            self._exports.append((export, "memory", index))
        return index

    def add_global(
        self, valtype: str, init, mutable: bool = True, name: str | None = None
    ) -> int:
        self._module.globals.append(Global(valtype, mutable, init, name))
        return len(self._module.globals) - 1

    def add_table(self, func_indices: list[int]) -> int:
        """Create a funcref table pre-filled with ``func_indices``."""
        self._module.tables.append(TableType(len(func_indices), len(func_indices)))
        table_index = len(self._module.tables) - 1
        self._module.elements.append(Element(table_index, 0, list(func_indices)))
        return table_index

    def add_data(self, offset: int, payload: bytes, memory_index: int = 0) -> None:
        self._module.data.append(Data(memory_index, offset, bytes(payload)))

    def export(self, name: str, kind: str, index: int) -> None:
        self._exports.append((name, kind, index))

    def type_index(self, params: list[str], results: list[str]) -> int:
        """Intern a signature (needed for ``call_indirect``)."""
        return self._module.add_type(FuncType(tuple(params), tuple(results)))

    # -- finish ---------------------------------------------------------------------

    def finish(self) -> Module:
        """Seal the module.  Idempotent."""
        if self._finished:
            return self._module
        module = self._module
        for fb in self._function_builders:
            type_index = module.add_type(
                FuncType(tuple(fb.param_types), tuple(fb.result_types))
            )
            module.functions.append(
                Function(
                    type_index=type_index,
                    locals_=list(fb._locals),
                    body=fb.body,
                    name=fb.name,
                    local_names=dict(fb._local_names),
                )
            )
        for name, kind, target in self._exports:
            index = target.func_index if isinstance(target, FunctionBuilder) else target
            module.exports.append(Export(name, kind, index))
        self._finished = True
        return module
