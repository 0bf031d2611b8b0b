"""Bottom-up column-fact dataflow over the logical plan.

The relational analogue of :func:`repro.wasm.analysis.dataflow.solve_forward`
without its fixpoint machinery: a logical plan is a tree, so one
postorder fold of the transfer function solves every operator exactly
once.

Facts start at table scans, seeded from catalog statistics (min/max are
exact storage-domain bounds computed from the stored NumPy columns),
and are refined by every predicate on the way up.  The resulting
:class:`PlanAnalysis` is the one artifact all four consumers read:
contradiction folding, predicate implication, codegen value-range
hints, and EXPLAIN rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.plan import logical as L
from repro.plan.analysis.facts import ColumnFact, RelationFacts
from repro.plan.analysis.predicates import refine_facts
from repro.sql import ast

__all__ = ["PlanAnalysis", "analyze_plan", "seed_scan_facts"]


@dataclass
class PlanAnalysis:
    """Everything the fact dataflow proved about one plan.

    ``scan_facts`` holds the *statistics-derived* per-column intervals
    of each base-table scan (integer storage domains only).  These are
    host-guaranteed bounds on every stored value — unlike the
    predicate-refined root facts they remain sound as value-range
    contracts on raw column loads, which is exactly what the Wasm
    bounds-check elision consumes.
    """

    #: Facts about the root operator's output relation.
    root_facts: RelationFacts
    #: (root column name, fact) pairs, in output order, for rendering.
    column_facts: list = field(default_factory=list)
    #: binding -> {column -> (lo, hi)} integer storage-domain bounds.
    scan_facts: dict = field(default_factory=dict)
    #: Rendered conjuncts the optimizer dropped as implied.
    dropped_conjuncts: list = field(default_factory=list)
    #: PlanLinter diagnostics (filled in by Database.plan when lint is on).
    lint: list = field(default_factory=list)

    @property
    def proven_empty(self) -> bool:
        return self.root_facts.proven_empty

    @property
    def empty_reason(self) -> str | None:
        return self.root_facts.empty_reason

    def describe(self) -> list[str]:
        """Human-readable lines for EXPLAIN."""
        lines = []
        if self.proven_empty:
            lines.append(f"proven empty: {self.empty_reason}")
        if self.root_facts.row_bound is not None and not self.proven_empty:
            lines.append(f"row bound: <= {self.root_facts.row_bound}")
        for name, fact in self.column_facts:
            lines.append(f"{name}: {fact.describe()}")
        for rendered in self.dropped_conjuncts:
            lines.append(f"implied predicate dropped: {rendered}")
        for diag in self.lint:
            lines.append(f"lint: {diag.render()}")
        return lines


def analyze_plan(root: L.LogicalOperator, catalog,
                 observed=None) -> PlanAnalysis:
    """Run the fact dataflow over ``root`` and return its analysis.

    ``observed`` is an optional
    :class:`~repro.plan.cardinality.ObservedCardinalities` (feedback
    re-plan): measured post-filter row counts tighten the per-binding
    row *bounds* the dataflow derives.  Measured counts come from one
    execution, so they are estimate seeds, not proofs: they are clamped
    to ``>= 1`` and can therefore never set ``proven_empty`` (which
    folds plans to an empty relation — a correctness decision that must
    rest on catalog truth alone), and parameterized statements —
    whose counts vary per ``$n`` binding — contribute nothing here.
    """
    observed_rows: dict[str, int] = {}
    observed_root: int | None = None
    if observed is not None and not observed.parameterized:
        observed_rows = {
            binding: max(int(rows), 1)
            for binding, rows in observed.bindings.items()
        }
        if observed.root_rows is not None:
            observed_root = max(int(observed.root_rows), 1)
    # a logical plan is a tree: one postorder sweep solves every
    # operator after its children
    order = _postorder(root)
    states: dict[int, RelationFacts] = {}
    for op in order:
        states[id(op)] = _transfer(
            op, [states[id(child)] for child in op.children],
            catalog, observed_rows,
        )
    root_facts = states[id(root)]
    if observed_root is not None and not root_facts.proven_empty:
        if root_facts.row_bound is None \
                or observed_root < root_facts.row_bound:
            root_facts = RelationFacts(
                dict(root_facts.columns), observed_root,
                root_facts.proven_empty, root_facts.empty_reason,
            )
    column_facts = [
        (col.name, root_facts.fact(col.ref))
        for col in root.output_columns
        if root_facts.fact(col.ref) != ColumnFact.top()
    ]
    return PlanAnalysis(
        root_facts=root_facts,
        column_facts=column_facts,
        scan_facts=_collect_scan_facts(order, catalog),
    )


def _postorder(root: L.LogicalOperator) -> list[L.LogicalOperator]:
    out = []

    def visit(op):
        for child in op.children:
            visit(child)
        out.append(op)

    visit(root)
    return out


def seed_scan_facts(scan: L.LogicalScan, catalog) -> RelationFacts:
    """Statistics-seeded facts of one base-table scan (also used by the
    optimizer's implication pass, which refines a copy per binding)."""
    table = catalog.get(scan.table_name)
    stats = table.statistics
    columns = {}
    for col in scan.schema:
        if col.ty.is_string:
            continue
        cstat = stats.column(col.name)
        unique = col.primary_key or (
            cstat.distinct > 0 and cstat.distinct == stats.row_count
        )
        columns[(scan.binding, col.name)] = ColumnFact(
            lo=cstat.minimum, hi=cstat.maximum,
            distinct=cstat.distinct, unique=unique,
        )
    facts = RelationFacts(columns=columns, row_bound=stats.row_count)
    if stats.row_count == 0:
        facts = facts.mark_empty(f"table {scan.table_name} is empty")
    return facts


def _transfer(op, children, catalog,
              observed_rows: dict | None = None) -> RelationFacts:
    if isinstance(op, L.LogicalScan):
        return seed_scan_facts(op, catalog)
    if isinstance(op, L.LogicalFilter):
        child = children[0]
        if child.proven_empty:
            return child
        facts = refine_facts(child, op.predicate)
        # measured post-filter cardinality of a base-table filter
        # (feedback seed): tightens the bound, never proves emptiness
        if observed_rows and isinstance(op.child, L.LogicalScan) \
                and op.child.binding in observed_rows \
                and not facts.proven_empty:
            seen = observed_rows[op.child.binding]
            if facts.row_bound is None or seen < facts.row_bound:
                facts = RelationFacts(dict(facts.columns), seen,
                                      facts.proven_empty,
                                      facts.empty_reason)
        return facts
    if isinstance(op, L.LogicalJoin):
        left, right = children
        columns = dict(left.columns)
        columns.update(right.columns)
        if left.proven_empty or right.proven_empty:
            source = left if left.proven_empty else right
            return RelationFacts(columns, 0, True, source.empty_reason)
        row_bound = None
        if left.row_bound is not None and right.row_bound is not None:
            row_bound = left.row_bound * right.row_bound
        facts = RelationFacts(columns, row_bound)
        if op.predicate is not None:
            facts = refine_facts(facts, op.predicate)
        return facts
    if isinstance(op, L.LogicalAggregate):
        child = children[0]
        columns = {}
        for i, key in enumerate(op.keys):
            if isinstance(key, ast.ColumnRef) and key.resolved is not None:
                columns[("$agg", f"k{i}")] = child.fact(key.resolved)
        if not op.keys:
            # Scalar aggregation produces exactly one row even over an
            # empty input (COUNT(*) = 0): the empty proof must not
            # propagate past this operator.
            return RelationFacts(columns, row_bound=1)
        if child.proven_empty:
            return RelationFacts(columns, 0, True, child.empty_reason)
        row_bound = child.row_bound
        ndvs = [columns[("$agg", f"k{i}")].distinct
                for i in range(len(op.keys))
                if ("$agg", f"k{i}") in columns]
        if ndvs and all(n > 0 for n in ndvs) and len(ndvs) == len(op.keys):
            product = 1
            for n in ndvs:
                product *= n
            row_bound = product if row_bound is None else min(row_bound,
                                                              product)
        return RelationFacts(columns, row_bound)
    if isinstance(op, L.LogicalProject):
        child = children[0]
        columns = {}
        for expr, name in op.items:
            ref = ("$proj", name)
            if isinstance(expr, ast.ColumnRef) and expr.resolved is not None:
                columns[ref] = child.fact(expr.resolved)
            elif isinstance(expr, ast.Literal) and expr.ty is not None \
                    and not expr.ty.is_string \
                    and not isinstance(expr.value, str):
                try:
                    storage = expr.ty.to_storage(expr.value)
                except (TypeError, ValueError):
                    continue
                columns[ref] = ColumnFact(lo=storage, hi=storage, distinct=1)
        return RelationFacts(columns, child.row_bound,
                             child.proven_empty, child.empty_reason)
    if isinstance(op, L.LogicalSort):
        return children[0]
    if isinstance(op, L.LogicalLimit):
        child = children[0]
        if op.limit == 0:
            return child.mark_empty("LIMIT 0")
        row_bound = child.row_bound
        if op.limit is not None:
            row_bound = op.limit if row_bound is None \
                else min(row_bound, op.limit)
        return RelationFacts(dict(child.columns), row_bound,
                             child.proven_empty, child.empty_reason)
    if isinstance(op, L.LogicalEmpty):
        facts = RelationFacts(
            columns={}, row_bound=0, proven_empty=True,
            empty_reason=op.reason,
        )
        return facts
    # Unknown operator: assume nothing (top), sound by construction.
    return RelationFacts()


def _collect_scan_facts(order, catalog) -> dict:
    """Statistics-derived integer bounds per scan binding (hint source)."""
    out: dict = {}
    for op in order:
        if not isinstance(op, L.LogicalScan):
            continue
        stats = catalog.get(op.table_name).statistics
        bounds = {}
        for col in op.schema:
            if col.ty.is_string:
                continue
            cstat = stats.column(col.name)
            if isinstance(cstat.minimum, int) and isinstance(cstat.maximum,
                                                             int) \
                    and not isinstance(cstat.minimum, bool):
                bounds[col.name] = (cstat.minimum, cstat.maximum)
        if bounds:
            out[op.binding] = bounds
    return out
