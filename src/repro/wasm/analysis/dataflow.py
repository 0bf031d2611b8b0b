"""Generic worklist solvers over the basic-block CFG.

Both directions share the same scheme: keep one abstract state per
block, pull a block off the worklist, run the client's transfer
function, join the result into the neighbours, and re-queue whichever
neighbour changed.  The client supplies the lattice (``join``, state
equality via ``==``) and the transfer:

* **forward** — ``transfer(block, state) -> list[(Edge, state | None)]``.
  Producing one state *per out-edge* lets path-sensitive analyses (the
  interval domain) refine a branch condition differently on the taken
  and fallthrough edges; ``None`` marks an edge proven infeasible.
* **backward** — ``transfer(block, state) -> state`` over the join of
  the successors' states (liveness and friends).

Termination: the forward solver applies the client's ``widen`` operator
once a loop header has been visited more than ``widen_after`` times.
Every cycle of a structured CFG passes through a loop header, so that
caps interval ascent, while the blocks inside the loop keep the bounds
their branch conditions refine the widened state to.  A generous global
visit budget backstops client lattices of unexpected height
(:class:`FixpointLimit` rather than an infinite loop).
"""

from __future__ import annotations

from repro.wasm.analysis.cfg import CFG

__all__ = ["FixpointLimit", "solve_backward", "solve_forward"]


class FixpointLimit(Exception):
    """The solver exceeded its global visit budget (lattice too tall)."""


def solve_forward(cfg: CFG, entry_state, transfer, join, widen=None,
                  widen_after: int = 4, max_visits_per_block: int = 200):
    """Run a forward analysis to fixpoint.

    Returns ``{block_index: entry_state}`` for every reached block;
    blocks absent from the result were never reached (dead code or
    edges proven infeasible).
    """
    in_states = {cfg.entry: entry_state}
    visits = [0] * len(cfg.blocks)
    worklist = [cfg.entry]
    budget = max_visits_per_block * max(1, len(cfg.blocks))
    while worklist:
        index = worklist.pop()
        budget -= 1
        if budget < 0:
            raise FixpointLimit(f"no fixpoint after {visits} visits")
        block = cfg.blocks[index]
        if block.index == cfg.exit:
            continue
        for edge, state in transfer(block, in_states[index]):
            if state is None or edge.target == cfg.exit:
                continue
            old = in_states.get(edge.target)
            if old is None:
                new = state
            else:
                new = join(old, state)
                visits[edge.target] += 1
                if (widen is not None and visits[edge.target] > widen_after
                        and cfg.blocks[edge.target].is_loop_header):
                    new = widen(old, new)
            if old is None or new != old:
                in_states[edge.target] = new
                if edge.target not in worklist:
                    worklist.append(edge.target)
    return in_states


def solve_backward(cfg: CFG, bottom, transfer, join,
                   max_visits_per_block: int = 200):
    """Run a backward analysis to fixpoint.

    Returns ``({block_index: entry_state}, {block_index: exit_state})``
    for every block (unreachable ones included — liveness over dead
    stores is still well-defined and useful for lint).
    """
    in_states = {block.index: bottom for block in cfg.blocks}
    preds = cfg.predecessors()
    worklist = [block.index for block in cfg.blocks]
    budget = max_visits_per_block * max(1, len(cfg.blocks))
    out_states: dict[int, object] = {}
    while worklist:
        index = worklist.pop()
        budget -= 1
        if budget < 0:
            raise FixpointLimit("no fixpoint (backward)")
        block = cfg.blocks[index]
        out = bottom
        for edge in block.edges:
            out = join(out, in_states[edge.target])
        out_states[index] = out
        new_in = transfer(block, out)
        if new_in != in_states[index]:
            in_states[index] = new_in
            for pred in preds[index]:
                if pred not in worklist:
                    worklist.append(pred)
    return in_states, out_states
