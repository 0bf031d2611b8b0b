"""Plan-level static analysis: column facts, folding, lint.

The relational twin of :mod:`repro.wasm.analysis` — the same
analyze-once, consume-everywhere idea, one layer up.  A bottom-up
dataflow pass propagates per-column facts (value intervals seeded from
catalog statistics and refined by predicates, constantness, key
uniqueness) through the logical plan.  Consumers:

* **contradiction folding** — a root whose facts prove an empty result
  is replaced by :class:`~repro.plan.logical.LogicalEmpty`, so no Wasm
  is ever generated or compiled (``Database.plan``);
* **predicate implication** — conjuncts already implied by established
  facts are dropped before join ordering
  (:mod:`repro.plan.optimizer`);
* **PlanLinter** — structured, offset-bearing diagnostics over
  inter-operator invariants, mirroring
  :class:`~repro.wasm.analysis.lint.ModuleLinter`.

Results are cached per fingerprint alongside the plan in
:mod:`repro.server.plancache` and recomputed on catalog-version bumps.
"""

from repro.plan.analysis.dataflow import PlanAnalysis, analyze_plan
from repro.plan.analysis.facts import ColumnFact, RelationFacts
from repro.plan.analysis.lint import PlanDiagnostic, PlanLinter
from repro.plan.analysis.predicates import (
    evaluate_conjunct,
    refine_facts,
)

__all__ = [
    "ColumnFact",
    "RelationFacts",
    "PlanAnalysis",
    "analyze_plan",
    "PlanDiagnostic",
    "PlanLinter",
    "evaluate_conjunct",
    "refine_facts",
]
