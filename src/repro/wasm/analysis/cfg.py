"""Basic-block CFG over the structured tuple-IR.

Wasm has structured control flow only — ``block``/``loop``/``if`` nest
bodies, and ``br``/``br_if``/``br_table`` target enclosing labels.  The
analyses in this package (intervals, liveness) want the classic shape
instead: basic blocks and edges.  :func:`build_cfg` lowers a function
body by walking the nesting once:

* every structured instruction eagerly creates its *continuation* block
  (and a loop its *header* block), so every label has a block to target;
* a branch becomes an edge to the frame's target carrying the stack
  *truncation* of the label — ``(entry_height, arity)`` — so transfer
  functions can reshape their abstract stack exactly like the branch
  reshapes the real one;
* conditional terminators (``if``, ``br_if``) stay as the last
  instruction of their block and their two out-edges are tagged
  ``"taken"``/``"fallthrough"`` so a solver can refine the condition's
  operands per edge;
* code after an unconditional terminator collects into a fresh block
  with no in-edges — the lint pass reports those as unreachable.

Instructions are addressed by a *preorder offset* (:func:`assign_offsets`)
rather than by list position: the tuple-IR nests bodies, and consumers
(the linter's diagnostics) need one flat, stable numbering
that survives skipping dead or constant-folded branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.wasm.module import Function, Module
from repro.wasm.opcodes import OPS

__all__ = ["BasicBlock", "CFG", "Edge", "assign_offsets", "build_cfg",
           "stack_effect"]


def assign_offsets(body: list) -> dict[tuple[int, int], int]:
    """Preorder instruction numbering of a (nested) function body.

    Returns ``{(id(body_list), position): offset}``; nested bodies of
    ``block``/``loop``/``if`` are numbered right after their parent
    instruction.  Keying by list identity lets any recursive walk over
    the same body objects look its offsets up without threading a
    counter through control flow.
    """
    table: dict[tuple[int, int], int] = {}

    def walk(b: list, counter: int) -> int:
        for pos, instr in enumerate(b):
            table[(id(b), pos)] = counter
            counter += 1
            op = instr[0]
            if op == "block" or op == "loop":
                counter = walk(instr[2], counter)
            elif op == "if":
                counter = walk(instr[2], counter)
                counter = walk(instr[3], counter)
        return counter

    walk(body, 0)
    return table


def stack_effect(module: Module, instr: tuple) -> tuple[int, int]:
    """``(pops, pushes)`` of one non-control instruction."""
    op = instr[0]
    if op == "call":
        ft = module.func_type_of(instr[1])
        return len(ft.params), len(ft.results)
    if op == "call_indirect":
        ft = module.types[instr[1]]
        return len(ft.params) + 1, len(ft.results)
    if op == "drop":
        return 1, 0
    if op == "select":
        return 3, 1
    if op == "local.get" or op == "global.get":
        return 0, 1
    if op == "local.set" or op == "global.set":
        return 1, 0
    if op == "local.tee":
        return 1, 1
    info = OPS[op]
    return len(info.params), len(info.results)


@dataclass
class Edge:
    """One CFG edge.

    ``kind`` is ``"jump"`` (unconditional / structured fallthrough),
    ``"taken"``/``"fallthrough"`` (the two sides of an ``if`` or
    ``br_if``), or ``"table"`` (one ``br_table`` arm).  ``trunc`` is the
    ``(entry_height, arity)`` of the branched-to label, or ``None`` when
    the branch does not reshape the stack (structured fallthrough, edges
    into an ``if`` arm, edges to the exit block).
    """

    target: int
    kind: str = "jump"
    trunc: tuple[int, int] | None = None


@dataclass
class BasicBlock:
    index: int
    #: ``(preorder_offset, instruction_tuple)`` pairs.  A conditional
    #: terminator (``if``/``br_if``/``br_table``) is the last entry.
    instrs: list[tuple[int, tuple]] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)
    #: Operand-stack height on entry; ``None`` for blocks created inside
    #: syntactically dead code (they have no in-edges).
    entry_height: int | None = None
    is_loop_header: bool = False


@dataclass
class CFG:
    blocks: list[BasicBlock]
    entry: int
    exit: int
    offsets: dict[tuple[int, int], int]

    def reachable(self) -> set[int]:
        """Block indices reachable from the entry block."""
        seen = {self.entry}
        work = [self.entry]
        while work:
            for edge in self.blocks[work.pop()].edges:
                if edge.target not in seen:
                    seen.add(edge.target)
                    work.append(edge.target)
        return seen

    def predecessors(self) -> dict[int, list[int]]:
        preds: dict[int, list[int]] = {b.index: [] for b in self.blocks}
        for block in self.blocks:
            for edge in block.edges:
                preds[edge.target].append(block.index)
        return preds


class _Frame:
    """One enclosing label during the lowering walk."""

    __slots__ = ("kind", "entry_height", "arity", "target")

    def __init__(self, kind: str, entry_height: int | None, arity: int,
                 target: int):
        self.kind = kind  # "func" | "block" | "loop" | "if"
        self.entry_height = entry_height
        self.arity = arity
        self.target = target  # block index a br to this label jumps to


def _plus(height: int | None, n: int) -> int | None:
    return None if height is None else height + n


class _Builder:
    def __init__(self, module: Module, func: Function,
                 offsets: dict[tuple[int, int], int]):
        self.module = module
        self.func = func
        self.offsets = offsets
        self.blocks: list[BasicBlock] = []
        self.current = self._new_block(0)
        self.exit = self._new_block(None)
        self.height: int | None = 0

    def _new_block(self, entry_height: int | None) -> BasicBlock:
        block = BasicBlock(len(self.blocks), entry_height=entry_height)
        self.blocks.append(block)
        return block

    @property
    def alive(self) -> bool:
        return self.height is not None

    def _dead(self) -> None:
        """Open a successor-less block for syntactically dead code."""
        self.current = self._new_block(None)
        self.height = None

    def _goto(self, block: BasicBlock) -> None:
        """Fall through into ``block`` (edge only if the flow is live)."""
        if self.alive:
            self.current.edges.append(Edge(block.index))
        self.current = block
        self.height = block.entry_height

    def _branch_edge(self, frames: list[_Frame], depth: int,
                     kind: str) -> None:
        frame = frames[-1 - depth]
        if frame.kind == "func":
            self.current.edges.append(Edge(self.exit.index, kind))
        else:
            arity = frame.arity if frame.kind != "loop" else 0
            self.current.edges.append(
                Edge(frame.target, kind, trunc=(frame.entry_height, arity))
            )

    # -- the walk ---------------------------------------------------------

    def walk(self, body: list, frames: list[_Frame]) -> None:
        for pos, instr in enumerate(body):
            off = self.offsets[(id(body), pos)]
            op = instr[0]

            if op == "block":
                cont = self._new_block(_plus(self.height, len(instr[1])))
                frames.append(_Frame("block", self.height, len(instr[1]),
                                     cont.index))
                self.walk(instr[2], frames)
                frames.pop()
                self._goto(cont)
            elif op == "loop":
                header = self._new_block(self.height)
                header.is_loop_header = True
                cont = self._new_block(_plus(self.height, len(instr[1])))
                self._goto(header)
                frames.append(_Frame("loop", self.height, len(instr[1]),
                                     header.index))
                self.walk(instr[2], frames)
                frames.pop()
                self._goto(cont)
            elif op == "if":
                self.current.instrs.append((off, instr))
                inner_height = _plus(self.height, -1)  # condition popped
                then_block = self._new_block(inner_height)
                else_block = self._new_block(inner_height)
                cont = self._new_block(_plus(inner_height, len(instr[1])))
                if self.alive:
                    self.current.edges.append(Edge(then_block.index, "taken"))
                    self.current.edges.append(
                        Edge(else_block.index, "fallthrough"))
                frames.append(_Frame("if", inner_height, len(instr[1]),
                                     cont.index))
                self.current, self.height = then_block, inner_height
                self.walk(instr[2], frames)
                if self.alive:
                    self.current.edges.append(Edge(cont.index))
                self.current, self.height = else_block, inner_height
                self.walk(instr[3], frames)
                frames.pop()
                self._goto(cont)
            elif op == "br":
                self.current.instrs.append((off, instr))
                if self.alive:
                    self._branch_edge(frames, instr[1], "jump")
                self._dead()
            elif op == "br_if":
                self.current.instrs.append((off, instr))
                after = _plus(self.height, -1)
                fallthrough = self._new_block(after)
                if self.alive:
                    self._branch_edge(frames, instr[1], "taken")
                    self.current.edges.append(
                        Edge(fallthrough.index, "fallthrough"))
                self.current, self.height = fallthrough, after
            elif op == "br_table":
                self.current.instrs.append((off, instr))
                if self.alive:
                    for target in instr[1]:
                        self._branch_edge(frames, target, "table")
                    self._branch_edge(frames, instr[2], "table")
                self._dead()
            elif op == "return":
                self.current.instrs.append((off, instr))
                if self.alive:
                    self.current.edges.append(Edge(self.exit.index))
                self._dead()
            elif op == "unreachable":
                self.current.instrs.append((off, instr))
                self._dead()
            else:
                self.current.instrs.append((off, instr))
                if self.alive:
                    pops, pushes = stack_effect(self.module, instr)
                    self.height += pushes - pops


def build_cfg(module: Module, func: Function,
              offsets: dict[tuple[int, int], int] | None = None) -> CFG:
    """Lower one validated function body into a basic-block CFG."""
    if offsets is None:
        offsets = assign_offsets(func.body)
    builder = _Builder(module, func, offsets)
    func_type = module.types[func.type_index]
    frames = [_Frame("func", 0, len(func_type.results), builder.exit.index)]
    builder.walk(func.body, frames)
    if builder.alive:
        builder.current.edges.append(Edge(builder.exit.index))
    return CFG(builder.blocks, entry=0, exit=builder.exit.index,
               offsets=offsets)
