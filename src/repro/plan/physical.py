"""Physical plans: executable operators over the lowered expression IR.

Physical planning fixes each operator's input/output tuple layout and
lowers every AST expression into the slot IR of :mod:`repro.plan.exprs`.
All engines execute this one physical plan format:

* the Volcano engine interprets it tuple-at-a-time,
* the vectorized engine runs type-specialized primitives over it,
* the HyPer-like engine and the Wasm backend compile its pipelines.

Operator repertoire (matching the paper's Section 4): sequential scan,
filter, projection, hash join (equi), nested-loop join (fallback), hash
group-by, scalar aggregation, sort, and limit.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.errors import PlanError
from repro.plan import logical as L
from repro.plan.analysis.dataflow import seed_scan_facts
from repro.plan.builder import split_conjuncts
from repro.plan.cardinality import CardinalityEstimator
from repro.plan.exprs import Aggregate, LExpr, Lowerer
from repro.plan.logical import OutputColumn
from repro.plan.optimizer import bindings_of
from repro.sql import ast
from repro.sql import types as T
from repro.sql.analyzer import _expr_key

__all__ = [
    "PhysicalOperator", "SeqScan", "IndexSeek", "EmptyResult", "Filter",
    "Project", "HashJoin", "NestedLoopJoin", "HashGroupBy",
    "ScalarAggregate", "Sort", "Limit", "create_physical_plan",
    "explain_physical", "plan_exprs", "collect_params",
]


@dataclass
class PhysicalOperator:
    """Base class: typed output layout plus a cardinality estimate."""

    output: list[OutputColumn] = field(init=False, default_factory=list)
    estimated_rows: float = field(init=False, default=0.0)

    @property
    def children(self) -> list["PhysicalOperator"]:
        return []

    @property
    def output_types(self) -> list[T.DataType]:
        return [col.ty for col in self.output]


@dataclass
class SeqScan(PhysicalOperator):
    """Full scan of a base table, pruned to the needed columns."""

    table_name: str
    binding: str
    columns: list[str]  # pruned column names, in output order

    def __init__(self, table_name, binding, columns, output, rows):
        self.table_name = table_name
        self.binding = binding
        self.columns = columns
        self.output = output
        self.estimated_rows = rows


@dataclass
class EmptyResult(PhysicalOperator):
    """A sink for plans proven empty by static analysis.

    Produces the folded subplan's schema and zero rows.  Engines
    short-circuit it: no translation, no code generation, no tier
    compilation — the executed query leaves no ``compile.*`` span.
    """

    reason: str

    def __init__(self, output, reason):
        self.output = output
        self.reason = reason
        self.estimated_rows = 0.0


@dataclass
class Filter(PhysicalOperator):
    child: PhysicalOperator
    predicate: LExpr

    def __init__(self, child, predicate, selectivity=0.25):
        self.child = child
        self.predicate = predicate
        self.output = child.output
        self.estimated_rows = max(child.estimated_rows * selectivity, 1.0)

    @property
    def children(self):
        return [self.child]


@dataclass
class Project(PhysicalOperator):
    child: PhysicalOperator
    exprs: list[LExpr]

    def __init__(self, child, exprs, output):
        self.child = child
        self.exprs = exprs
        self.output = output
        self.estimated_rows = child.estimated_rows

    @property
    def children(self):
        return [self.child]


@dataclass
class HashJoin(PhysicalOperator):
    """Equi hash join: the *build* child is materialized into a hash
    table; the *probe* child streams (Section 4.3 of the paper).
    Output layout: build columns, then probe columns."""

    build: PhysicalOperator
    probe: PhysicalOperator
    build_keys: list[LExpr]   # over the build child's output
    probe_keys: list[LExpr]   # over the probe child's output
    residual: LExpr | None    # over the combined output

    def __init__(self, build, probe, build_keys, probe_keys, residual, rows):
        self.build = build
        self.probe = probe
        self.build_keys = build_keys
        self.probe_keys = probe_keys
        self.residual = residual
        self.output = build.output + probe.output
        self.estimated_rows = rows

    @property
    def children(self):
        return [self.build, self.probe]


@dataclass
class NestedLoopJoin(PhysicalOperator):
    """Fallback join (cross product or non-equi predicate); the left
    child is materialized, the right child streams."""

    left: PhysicalOperator
    right: PhysicalOperator
    predicate: LExpr | None  # over the combined output

    def __init__(self, left, right, predicate, rows):
        self.left = left
        self.right = right
        self.predicate = predicate
        self.output = left.output + right.output
        self.estimated_rows = rows

    @property
    def children(self):
        return [self.left, self.right]


@dataclass
class HashGroupBy(PhysicalOperator):
    child: PhysicalOperator
    keys: list[LExpr]
    aggregates: list[Aggregate]

    def __init__(self, child, keys, aggregates, output, rows):
        self.child = child
        self.keys = keys
        self.aggregates = aggregates
        self.output = output
        self.estimated_rows = rows

    @property
    def children(self):
        return [self.child]


@dataclass
class ScalarAggregate(PhysicalOperator):
    """Aggregation without grouping keys: exactly one output row."""

    child: PhysicalOperator
    aggregates: list[Aggregate]

    def __init__(self, child, aggregates, output):
        self.child = child
        self.aggregates = aggregates
        self.output = output
        self.estimated_rows = 1.0

    @property
    def children(self):
        return [self.child]


@dataclass
class Sort(PhysicalOperator):
    child: PhysicalOperator
    order: list[tuple[LExpr, bool]]  # (key expression, descending)

    def __init__(self, child, order):
        self.child = child
        self.order = order
        self.output = child.output
        self.estimated_rows = child.estimated_rows

    @property
    def children(self):
        return [self.child]


@dataclass
class Limit(PhysicalOperator):
    child: PhysicalOperator
    limit: int | None
    offset: int

    def __init__(self, child, limit, offset):
        self.child = child
        self.limit = limit
        self.offset = offset
        self.output = child.output
        self.estimated_rows = min(
            child.estimated_rows, limit if limit is not None else 1 << 60
        )

    @property
    def children(self):
        return [self.child]


# ---------------------------------------------------------------------------
# Resolution helpers
# ---------------------------------------------------------------------------

def _make_resolver(output: list[OutputColumn]):
    by_ref = {col.ref: (i, col.ty) for i, col in enumerate(output)}

    def resolve(ref):
        try:
            return by_ref[ref]
        except KeyError:
            raise PlanError(f"cannot resolve column {ref!r}") from None

    return resolve


def _substitute_matches(expr: ast.Expr, output: list[OutputColumn]) -> ast.Expr:
    """Replace subtrees matching a child output column (by structural
    key) with a reference to that column.  Enables SELECT/HAVING/ORDER
    expressions over aggregation results.

    Returns a rewritten copy — only nodes on the path to a substituted
    subtree are copied — and leaves ``expr`` untouched: the analyzed
    AST is planned again after a catalog bump (prepared statements) or
    a feedback re-plan.
    """
    by_key = {col.key: col for col in output if col.key is not None}

    def unchanged(new, old) -> bool:
        if isinstance(new, (list, tuple)):
            return all(unchanged(n, o) for n, o in zip(new, old))
        return new is old

    def rewrite(node: ast.Expr) -> ast.Expr:
        col = by_key.get(_expr_key(node))
        if col is not None:
            ref = ast.ColumnRef(col.ref[0], col.ref[1])
            ref.resolved = col.ref
            ref.ty = col.ty
            return ref
        if isinstance(node, ast.Unary):
            new = {"operand": rewrite(node.operand)}
        elif isinstance(node, ast.Binary):
            new = {"left": rewrite(node.left), "right": rewrite(node.right)}
        elif isinstance(node, ast.Between):
            new = {"expr": rewrite(node.expr), "low": rewrite(node.low),
                   "high": rewrite(node.high)}
        elif isinstance(node, ast.InList):
            new = {"expr": rewrite(node.expr),
                   "items": [rewrite(i) for i in node.items]}
        elif isinstance(node, (ast.Like, ast.Cast)):
            new = {"expr": rewrite(node.expr)}
        elif isinstance(node, ast.CaseWhen):
            new = {"whens": [(rewrite(c), rewrite(r))
                             for c, r in node.whens],
                   "else_": None if node.else_ is None
                   else rewrite(node.else_)}
        elif isinstance(node, ast.FuncCall):
            new = {"args": [a if isinstance(a, ast.Star) else rewrite(a)
                            for a in node.args]}
        else:
            return node
        if all(unchanged(value, getattr(node, name))
               for name, value in new.items()):
            return node
        node = copy.copy(node)
        for name, value in new.items():
            setattr(node, name, value)
        return node

    return rewrite(expr)


def _retarget_by_name(expr: ast.Expr, output: list[OutputColumn]) -> ast.Expr:
    """Sort keys above DISTINCT/projection: if a plain column reference
    does not resolve structurally, match it against the child's output
    column *names* (SQL's order-by-output-column rule)."""
    if not isinstance(expr, ast.ColumnRef):
        return expr
    refs = {col.ref for col in output}
    if expr.resolved in refs:
        return expr
    matches = [col for col in output if col.name == expr.column]
    if len(matches) == 1:
        ref = ast.ColumnRef(matches[0].ref[0], matches[0].ref[1])
        ref.resolved = matches[0].ref
        ref.ty = matches[0].ty
        return ref
    return expr


def _lower_over(expr: ast.Expr, child: PhysicalOperator) -> LExpr:
    substituted = _substitute_matches(expr, child.output)
    return Lowerer(_make_resolver(child.output)).lower(substituted)


# ---------------------------------------------------------------------------
# Plan creation
# ---------------------------------------------------------------------------

def create_physical_plan(logical: L.LogicalOperator,
                         catalog: Catalog) -> PhysicalOperator:
    """Optimized logical plan -> physical plan with lowered expressions."""
    used = _used_columns(logical)
    stats = {}
    facts = {}
    for op in _walk(logical):
        if isinstance(op, L.LogicalScan):
            stats[op.binding] = catalog.get(op.table_name).statistics
            facts[op.binding] = seed_scan_facts(op, catalog)
    estimator = CardinalityEstimator(stats, facts)
    return _Planner(catalog, used, estimator).build(logical)


def _walk(op: L.LogicalOperator):
    yield op
    for child in op.children:
        yield from _walk(child)


def _used_columns(root: L.LogicalOperator) -> dict[str, set[str]]:
    """Which base-table columns the plan reads, per binding."""
    used: dict[str, set[str]] = {}

    def record(expr: ast.Expr) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.ColumnRef) and node.resolved is not None:
                binding, column = node.resolved
                used.setdefault(binding, set()).add(column)

    for op in _walk(root):
        if isinstance(op, L.LogicalFilter):
            record(op.predicate)
        elif isinstance(op, L.LogicalJoin) and op.predicate is not None:
            record(op.predicate)
        elif isinstance(op, L.LogicalAggregate):
            for key in op.keys:
                record(key)
            for agg in op.aggregates:
                record(agg)
        elif isinstance(op, L.LogicalProject):
            for expr, _ in op.items:
                record(expr)
        elif isinstance(op, L.LogicalSort):
            for expr, _ in op.order:
                record(expr)
    return used


class _Planner:
    def __init__(self, catalog: Catalog, used: dict[str, set[str]],
                 estimator: CardinalityEstimator):
        self.catalog = catalog
        self.used = used
        self.estimator = estimator

    def build(self, op: L.LogicalOperator) -> PhysicalOperator:
        if isinstance(op, L.LogicalScan):
            return self._build_scan(op)
        if isinstance(op, L.LogicalFilter):
            if isinstance(op.child, L.LogicalScan):
                seek = self._try_index_seek(op)
                if seek is not None:
                    return seek
            child = self.build(op.child)
            predicate = _lower_over(op.predicate, child)
            return Filter(child, predicate,
                          self.estimator.selectivity(op.predicate))
        if isinstance(op, L.LogicalJoin):
            return self._build_join(op)
        if isinstance(op, L.LogicalAggregate):
            return self._build_aggregate(op)
        if isinstance(op, L.LogicalProject):
            child = self.build(op.child)
            exprs = [_lower_over(expr, child) for expr, _ in op.items]
            return Project(child, exprs, op.output_columns)
        if isinstance(op, L.LogicalSort):
            child = self.build(op.child)
            order = [
                (_lower_over(_retarget_by_name(expr, child.output), child),
                 desc)
                for expr, desc in op.order
            ]
            return Sort(child, order)
        if isinstance(op, L.LogicalLimit):
            return Limit(self.build(op.child), op.limit, op.offset)
        if isinstance(op, L.LogicalEmpty):
            return EmptyResult(op.output_columns, op.reason)
        raise PlanError(f"cannot plan {type(op).__name__}")

    def _try_index_seek(self, op: L.LogicalFilter):
        """Rewrite Filter(Scan) into IndexSeek (+ residual Filter) when an
        ordered index covers a range/equality conjunct with literal
        bounds — the paper's index-seek pipeline source."""
        scan: L.LogicalScan = op.child
        table = self.catalog.get(scan.table_name)
        if not table.indexes:
            return None

        bounds: dict[str, list] = {}  # column -> [low, lstrict, high, hstrict]
        residual: list[ast.Expr] = []
        for conj in split_conjuncts(op.predicate):
            extracted = _extract_bound(conj)
            if extracted is not None:
                column, low, lstrict, high, hstrict = extracted
                if table.index_on(column) is not None:
                    entry = bounds.setdefault(column, [None, False,
                                                       None, False])
                    _tighten(entry, low, lstrict, high, hstrict)
                    continue
            residual.append(conj)
        if not bounds:
            return None

        # use one index (the first bounded column); others stay residual
        key_column, (low, lstrict, high, hstrict) = next(iter(bounds.items()))
        for column, entry in list(bounds.items())[1:]:
            residual.append(_rebuild_bound(scan.binding, column, entry,
                                           table))

        wanted = self.used.get(scan.binding, set())
        columns = [c.name for c in scan.schema if c.name in wanted]
        output = [
            OutputColumn((scan.binding, name), name,
                         scan.schema.column(name).ty)
            for name in columns
        ]
        selectivity = self.estimator.selectivity(op.predicate)
        rows = max(table.row_count * selectivity, 1.0)
        seek = IndexSeek(
            scan.table_name, scan.binding, columns, key_column,
            low, high, lstrict, hstrict, output, rows,
        )
        if residual:
            pred = residual[0]
            for conj in residual[1:]:
                combined = ast.Binary("AND", pred, conj)
                combined.ty = T.BOOLEAN
                pred = combined
            return Filter(seek, _lower_over(pred, seek),
                          self.estimator.selectivity(pred))
        return seek

    def _build_scan(self, op: L.LogicalScan) -> SeqScan:
        table = self.catalog.get(op.table_name)
        wanted = self.used.get(op.binding, set())
        columns = [c.name for c in op.schema if c.name in wanted]
        output = [
            OutputColumn((op.binding, name), name,
                         op.schema.column(name).ty)
            for name in columns
        ]
        return SeqScan(op.table_name, op.binding, columns, output,
                       float(table.row_count))

    def _build_join(self, op: L.LogicalJoin) -> PhysicalOperator:
        build = self.build(op.left)
        probe = self.build(op.right)
        left_bindings = {c.ref[0] for c in op.left.output_columns}
        right_bindings = {c.ref[0] for c in op.right.output_columns}

        equi: list[tuple[ast.Expr, ast.Expr]] = []
        residual_conjuncts: list[ast.Expr] = []
        for conj in split_conjuncts(op.predicate):
            pair = _equi_key_pair(conj, left_bindings, right_bindings)
            if pair is not None:
                equi.append(pair)
            else:
                residual_conjuncts.append(conj)

        sel = self.estimator.selectivity(op.predicate)
        rows = max(build.estimated_rows * probe.estimated_rows * sel, 1.0)

        if not equi:
            predicate = None
            if residual_conjuncts:
                combined = _CombinedOutput(build, probe)
                predicate = combined.lower_all(residual_conjuncts)
            return NestedLoopJoin(build, probe, predicate, rows)

        build_keys, probe_keys = [], []
        for left_expr, right_expr in equi:
            lk = _lower_over(left_expr, build)
            rk = _lower_over(right_expr, probe)
            common = T.common_type(lk.ty, rk.ty)
            lowerer = Lowerer(lambda ref: (_ for _ in ()).throw(
                PlanError("unexpected column")))
            build_keys.append(lowerer.coerce(lk, common))
            probe_keys.append(lowerer.coerce(rk, common))

        residual = None
        if residual_conjuncts:
            residual = _CombinedOutput(build, probe).lower_all(
                residual_conjuncts
            )
        return HashJoin(build, probe, build_keys, probe_keys, residual, rows)

    def _build_aggregate(self, op: L.LogicalAggregate) -> PhysicalOperator:
        child = self.build(op.child)
        lowerer = Lowerer(_make_resolver(child.output))
        keys = [
            lowerer.lower(_substitute_matches(k, child.output))
            for k in op.keys
        ]
        aggregates = [
            Lowerer(_make_resolver(child.output)).lower_aggregate(agg)
            for agg in op.aggregates
        ]
        output = op.output_columns
        if not keys:
            return ScalarAggregate(child, aggregates, output)
        groups = 1.0
        for key in op.keys:
            groups *= self.estimator.distinct_of(key)
        groups = min(groups, child.estimated_rows)
        return HashGroupBy(child, keys, aggregates, output, max(groups, 1.0))


class _CombinedOutput:
    """Lowers expressions over the concatenated output of two children."""

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator):
        self.output = left.output + right.output

    def lower_all(self, conjuncts: list[ast.Expr]) -> LExpr:
        lowered = None
        lowerer = Lowerer(_make_resolver(self.output))
        for conj in conjuncts:
            expr = lowerer.lower(_substitute_matches(conj, self.output))
            from repro.plan.exprs import Logic

            lowered = expr if lowered is None else Logic("AND", lowered, expr)
        return lowered


def _equi_key_pair(conj: ast.Expr, left_bindings: set[str],
                   right_bindings: set[str]):
    """``a = b`` with each side touching only one input -> key pair."""
    if not (isinstance(conj, ast.Binary) and conj.op == "="):
        return None
    lb = bindings_of(conj.left)
    rb = bindings_of(conj.right)
    if lb and rb:
        if lb <= left_bindings and rb <= right_bindings:
            return conj.left, conj.right
        if lb <= right_bindings and rb <= left_bindings:
            return conj.right, conj.left
    return None


def _extract_bound(conj: ast.Expr):
    """``col <op> literal`` (either side) or BETWEEN -> bound spec, or
    None.  Returns (column, low, low_strict, high, high_strict) with
    storage-level values."""
    if isinstance(conj, ast.Between) and not conj.negated \
            and isinstance(conj.expr, ast.ColumnRef) \
            and isinstance(conj.low, ast.Literal) \
            and isinstance(conj.high, ast.Literal) \
            and not conj.expr.ty.is_string:
        ty = conj.expr.ty
        return (conj.expr.resolved[1], ty.to_storage(conj.low.value), False,
                ty.to_storage(conj.high.value), False)
    if not (isinstance(conj, ast.Binary)
            and conj.op in ("=", "<", "<=", ">", ">=")):
        return None
    left, right, op = conj.left, conj.right, conj.op
    if isinstance(left, ast.Literal) and isinstance(right, ast.ColumnRef):
        flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        left, right, op = right, left, flip.get(op, op)
    if not (isinstance(left, ast.ColumnRef) and isinstance(right, ast.Literal)
            and left.resolved is not None and not left.ty.is_string):
        return None
    value = left.ty.to_storage(right.value)
    column = left.resolved[1]
    if op == "=":
        return (column, value, False, value, False)
    if op == "<":
        return (column, None, False, value, True)
    if op == "<=":
        return (column, None, False, value, False)
    if op == ">":
        return (column, value, True, None, False)
    return (column, value, False, None, False)


def _tighten(entry: list, low, lstrict, high, hstrict) -> None:
    if low is not None and (entry[0] is None or low > entry[0]
                            or (low == entry[0] and lstrict)):
        entry[0], entry[1] = low, lstrict
    if high is not None and (entry[2] is None or high < entry[2]
                             or (high == entry[2] and hstrict)):
        entry[2], entry[3] = high, hstrict


def _rebuild_bound(binding: str, column: str, entry: list, table):
    """Turn an unused bound back into an AST predicate for the residual
    filter (storage values -> typed literals)."""
    ty = table.schema.column(column).ty
    low, lstrict, high, hstrict = entry
    parts = []
    for value, strict, op_incl, op_strict in (
        (low, lstrict, ">=", ">"), (high, hstrict, "<=", "<"),
    ):
        if value is None:
            continue
        ref = ast.ColumnRef(binding, column)
        ref.resolved = (binding, column)
        ref.ty = ty
        lit = ast.Literal(ty.from_storage(value))
        lit.ty = ty
        node = ast.Binary(op_strict if strict else op_incl, ref, lit)
        node.ty = T.BOOLEAN
        parts.append(node)
    pred = parts[0]
    for part in parts[1:]:
        pred = ast.Binary("AND", pred, part)
        pred.ty = T.BOOLEAN
    return pred


def plan_exprs(op: PhysicalOperator):
    """Yield every :class:`LExpr` held by the operator tree under ``op``.

    Walks the expression-bearing fields of each operator (predicates,
    projections, join keys, grouping keys, aggregate arguments, sort
    keys); used to find :class:`~repro.plan.exprs.Param` nodes when a
    cached plan is re-bound at EXECUTE time.
    """
    if isinstance(op, Filter):
        yield op.predicate
    elif isinstance(op, Project):
        yield from op.exprs
    elif isinstance(op, HashJoin):
        yield from op.build_keys
        yield from op.probe_keys
        if op.residual is not None:
            yield op.residual
    elif isinstance(op, NestedLoopJoin):
        if op.predicate is not None:
            yield op.predicate
    elif isinstance(op, (HashGroupBy, ScalarAggregate)):
        if isinstance(op, HashGroupBy):
            yield from op.keys
        for agg in op.aggregates:
            if agg.arg is not None:
                yield agg.arg
    elif isinstance(op, Sort):
        for key, _descending in op.order:
            yield key
    for child in op.children:
        yield from plan_exprs(child)


def collect_params(op: PhysicalOperator):
    """All Param nodes in a physical plan (every occurrence, any order)."""
    from repro.plan.exprs import params_used

    found = []
    for expr in plan_exprs(op):
        found.extend(params_used(expr))
    return found


def reestimate_with_observed(root: PhysicalOperator, observed) -> None:
    """Fold measured cardinalities onto a physical plan's estimates.

    One bottom-up pass over the operator tree: filters directly above a
    scan whose binding the feedback store measured take the measured
    post-filter count, joins covering an observed binding subset take
    the measured join cardinality, and derived operators re-propagate.
    ``estimated_rows`` feeds the Wasm engine's heap sizing (breaker
    hash tables and sort arrays) and the ``(~N rows)`` EXPLAIN
    annotations — estimation state only, never correctness.
    """
    def visit(op: PhysicalOperator) -> None:
        for child in op.children:
            visit(child)
        if isinstance(op, Filter):
            child = op.child
            if isinstance(child, (SeqScan, IndexSeek)) \
                    and child.binding in observed.bindings:
                op.estimated_rows = observed.bindings[child.binding]
            else:
                op.estimated_rows = min(op.estimated_rows,
                                        child.estimated_rows)
        elif isinstance(op, (HashJoin, NestedLoopJoin)):
            subset = frozenset(col.ref[0] for col in op.output)
            if subset in observed.joins:
                op.estimated_rows = observed.joins[subset]
        elif isinstance(op, (Project, Sort)):
            op.estimated_rows = op.child.estimated_rows
        elif isinstance(op, HashGroupBy):
            op.estimated_rows = min(op.estimated_rows,
                                    max(op.child.estimated_rows, 1.0))
        elif isinstance(op, Limit):
            op.estimated_rows = min(
                op.child.estimated_rows,
                op.limit if op.limit is not None else 1 << 60,
            )

    visit(root)


def explain_physical(op: PhysicalOperator, indent: int = 0) -> str:
    pad = "  " * indent
    name = type(op).__name__
    detail = ""
    if isinstance(op, SeqScan):
        detail = f" {op.table_name}({', '.join(op.columns)})"
    elif isinstance(op, IndexSeek):
        detail = (f" {op.table_name}.{op.key_column}"
                  f" [{op.low}..{op.high}] -> ({', '.join(op.columns)})")
    elif isinstance(op, HashJoin):
        detail = f" keys={len(op.build_keys)}"
    elif isinstance(op, HashGroupBy):
        detail = f" keys={len(op.keys)} aggs={len(op.aggregates)}"
    elif isinstance(op, ScalarAggregate):
        detail = f" aggs={len(op.aggregates)}"
    elif isinstance(op, Limit):
        detail = f" limit={op.limit}"
    elif isinstance(op, EmptyResult):
        detail = f" [{op.reason}]"
    lines = [f"{pad}{name}{detail}  (~{int(op.estimated_rows)} rows)"]
    for child in op.children:
        lines.append(explain_physical(child, indent + 1))
    return "\n".join(lines)


@dataclass
class IndexSeek(PhysicalOperator):
    """Range scan through an ordered index (the paper's "index seek"
    pipeline source, Section 4.2).

    The host resolves the key bounds to a position range in the index's
    permutation; the generated/interpreted loop walks positions, loads
    the row id, and fetches the pruned columns at that row — random
    access the rewiring layer makes possible inside the Wasm module.
    Bounds are storage-level values; inclusive unless the strict flag is
    set; ``None`` means open.
    """

    table_name: str
    binding: str
    columns: list[str]
    key_column: str
    low: object
    high: object
    low_strict: bool
    high_strict: bool

    def __init__(self, table_name, binding, columns, key_column,
                 low, high, low_strict, high_strict, output, rows):
        self.table_name = table_name
        self.binding = binding
        self.columns = columns
        self.key_column = key_column
        self.low = low
        self.high = high
        self.low_strict = low_strict
        self.high_strict = high_strict
        self.output = output
        self.estimated_rows = rows
