"""Static analysis over decoded Wasm function bodies.

The pipeline: :mod:`.cfg` lowers the structured tuple-IR into a
basic-block CFG, :mod:`.dataflow` provides the generic forward/backward
worklist solvers, :mod:`.ranges` runs an interval abstract
interpretation, and :mod:`.liveness` computes local liveness.
:mod:`.lint` packages it all as the :class:`ModuleLinter` behind
``EngineConfig(lint=...)``, the package's only consumer at run time.
"""

from repro.wasm.analysis.cfg import (
    BasicBlock,
    CFG,
    Edge,
    assign_offsets,
    build_cfg,
)
from repro.wasm.analysis.dataflow import solve_backward, solve_forward
from repro.wasm.analysis.lint import Diagnostic, ModuleLinter
from repro.wasm.analysis.liveness import LivenessResult, analyze_liveness
from repro.wasm.analysis.ranges import (
    AVal,
    MemAccessFact,
    RangeResult,
    analyze_ranges,
)

__all__ = [
    "AVal",
    "BasicBlock",
    "CFG",
    "Diagnostic",
    "Edge",
    "LivenessResult",
    "MemAccessFact",
    "ModuleLinter",
    "RangeResult",
    "analyze_liveness",
    "analyze_ranges",
    "assign_offsets",
    "build_cfg",
    "solve_backward",
    "solve_forward",
]
