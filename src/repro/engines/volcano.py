"""The Volcano engine: tuple-at-a-time iterators (PostgreSQL's model).

Each physical operator becomes an iterator implementing the classic
``open/next/close`` interface [Graefe 94]; every tuple flows through one
virtual ``next()`` call per operator, and predicates/projections are
evaluated by the expression interpreter.  This is the paper's
PostgreSQL baseline: simple, portable, and paying the full per-tuple
interpretation overhead that the compiling engines eliminate.

Cost accounting: one ``virtual_call`` per ``next()`` invocation, one
``interp_dispatch`` per expression IR node evaluated, and bulk memory
events for scans and hash tables.
"""

from __future__ import annotations

from repro.catalog.catalog import Catalog
from repro.costmodel import Profile
from repro.engines import aggstate
from repro.engines.base import ExecutionResult, QueryEngine, Stopwatch, Timings
from repro.engines.eval import evaluate
from repro.errors import EngineError
from repro.observability.trace import trace_span
from repro.plan import physical as P

__all__ = ["VolcanoEngine"]


class _Iterator:
    """Base iterator: counts virtual calls when profiling."""

    def __init__(self, profile: Profile | None):
        self.profile = profile

    def open(self) -> None:
        pass

    def __iter__(self):
        return self

    def __next__(self):  # pragma: no cover - subclasses implement
        raise NotImplementedError

    def _tick(self) -> None:
        if self.profile is not None:
            self.profile.virtual_calls += 1


#: Scanned rows between two checks of a run's gate (cancellation,
#: deadline, the scheduler's turnstile); a power of two.
GATE_ROWS = 1024


class _ScanIterator(_Iterator):
    def __init__(self, op: P.SeqScan, table, profile, gate=None):
        super().__init__(profile)
        self.op = op
        self.table = table
        self._gate = gate
        self._row = 0
        self._count = table.row_count
        # .tolist() converts to plain Python values once, up front
        self._columns = [
            table.column(name).values.tolist() for name in op.columns
        ]
        if profile is not None and self._count:
            for name in op.columns:
                profile.memory_bulk(
                    f"scan:{op.binding}:{name}",
                    accesses=self._count,
                    sequential=self._count,
                    footprint=int(table.column(name).nbytes),
                )

    def __next__(self):
        self._tick()
        if self._row >= self._count:
            raise StopIteration
        i = self._row
        if self._gate is not None and not i & (GATE_ROWS - 1):
            self._gate()
        self._row += 1
        return tuple(col[i] for col in self._columns)


class _IndexSeekIterator(_Iterator):
    """Range scan through an ordered index: positions resolve once at
    open(); rows come back in key order (random access by row id)."""

    def __init__(self, op: P.IndexSeek, table, profile, gate=None):
        super().__init__(profile)
        self.op = op
        self._gate = gate
        index = table.index_on(op.key_column)
        self._lo, self._hi = index.positions(
            op.low, op.high, op.low_strict, op.high_strict
        )
        self._row_ids = index.row_ids
        self._pos = self._lo
        self._columns = [
            table.column(name).values.tolist() for name in op.columns
        ]
        if profile is not None and self._hi > self._lo:
            rows = self._hi - self._lo
            profile.memory_bulk(
                f"idxseek:{op.binding}", accesses=rows, sequential=0,
                footprint=max(sum(table.column(n).nbytes
                                  for n in op.columns), 1),
            )

    def __next__(self):
        self._tick()
        if self._pos >= self._hi:
            raise StopIteration
        if self._gate is not None \
                and not (self._pos - self._lo) & (GATE_ROWS - 1):
            self._gate()
        row_id = int(self._row_ids[self._pos])
        self._pos += 1
        return tuple(col[row_id] for col in self._columns)


class _FilterIterator(_Iterator):
    def __init__(self, op: P.Filter, child: _Iterator, profile):
        super().__init__(profile)
        self.predicate = op.predicate
        self.child = child

    def open(self):
        self.child.open()

    def __next__(self):
        self._tick()
        for row in self.child:
            if evaluate(self.predicate, row, self.profile):
                return row
        raise StopIteration


class _ProjectIterator(_Iterator):
    def __init__(self, op: P.Project, child: _Iterator, profile):
        super().__init__(profile)
        self.exprs = op.exprs
        self.child = child

    def open(self):
        self.child.open()

    def __next__(self):
        self._tick()
        row = next(self.child)
        return tuple(evaluate(e, row, self.profile) for e in self.exprs)


class _HashJoinIterator(_Iterator):
    def __init__(self, op: P.HashJoin, build: _Iterator, probe: _Iterator,
                 profile):
        super().__init__(profile)
        self.op = op
        self.build_child = build
        self.probe_child = probe
        self.table: dict | None = None
        self._matches: list = []
        self._probe_row = None

    def open(self):
        self.build_child.open()
        self.probe_child.open()
        self.table = {}
        rows = 0
        for row in self.build_child:
            key = tuple(
                evaluate(k, row, self.profile) for k in self.op.build_keys
            )
            self.table.setdefault(key, []).append(row)
            rows += 1
        if self.profile is not None and rows:
            row_size = sum(c.ty.size for c in self.op.build.output) + 16
            self.profile.memory_bulk(
                f"join-build:{id(self.op)}", accesses=rows, sequential=0,
                footprint=max(rows * row_size, 1),
            )

    def __next__(self):
        self._tick()
        while True:
            if self._matches:
                build_row = self._matches.pop()
                combined = build_row + self._probe_row
                if self.op.residual is None or evaluate(
                    self.op.residual, combined, self.profile
                ):
                    return combined
                continue
            self._probe_row = next(self.probe_child)
            key = tuple(
                evaluate(k, self._probe_row, self.profile)
                for k in self.op.probe_keys
            )
            if self.profile is not None:
                self.profile.memory_bulk(
                    f"join-probe:{id(self.op)}", accesses=1, sequential=0,
                    footprint=max(len(self.table or {}) * 32, 1),
                )
            self._matches = list(self.table.get(key, ()))


class _NestedLoopIterator(_Iterator):
    def __init__(self, op: P.NestedLoopJoin, left: _Iterator,
                 right: _Iterator, profile):
        super().__init__(profile)
        self.op = op
        self.left_child = left
        self.right_child = right
        self.left_rows: list = []
        self._index = 0
        self._right_row = None

    def open(self):
        self.left_child.open()
        self.right_child.open()
        self.left_rows = list(self.left_child)
        self._index = len(self.left_rows)  # force first right fetch

    def __next__(self):
        self._tick()
        while True:
            if self._index < len(self.left_rows):
                combined = self.left_rows[self._index] + self._right_row
                self._index += 1
                if self.op.predicate is None or evaluate(
                    self.op.predicate, combined, self.profile
                ):
                    return combined
                continue
            self._right_row = next(self.right_child)
            self._index = 0


class _HashGroupByIterator(_Iterator):
    def __init__(self, op: P.HashGroupBy, child: _Iterator, profile):
        super().__init__(profile)
        self.op = op
        self.child = child
        self._groups = None
        self._output = None

    def open(self):
        self.child.open()
        groups: dict[tuple, list] = {}
        rows = 0
        for row in self.child:
            key = tuple(
                evaluate(k, row, self.profile) for k in self.op.keys
            )
            states = groups.get(key)
            if states is None:
                states = groups[key] = aggstate.new_states(self.op.aggregates)
            values = [
                evaluate(agg.arg, row, self.profile)
                if agg.arg is not None else None
                for agg in self.op.aggregates
            ]
            aggstate.update_states(states, self.op.aggregates, values)
            rows += 1
        if self.profile is not None and rows:
            row_size = 16 + sum(k.ty.size for k in self.op.keys) \
                + 8 * len(self.op.aggregates)
            self.profile.memory_bulk(
                f"group:{id(self.op)}", accesses=rows, sequential=0,
                footprint=max(len(groups) * row_size, 1),
            )
        self._groups = groups
        self._output = iter(groups.items())

    def __next__(self):
        self._tick()
        key, states = next(self._output)
        finals = aggstate.finalize_states(states, self.op.aggregates)
        return key + tuple(finals)


class _ScalarAggregateIterator(_Iterator):
    def __init__(self, op: P.ScalarAggregate, child: _Iterator, profile):
        super().__init__(profile)
        self.op = op
        self.child = child
        self._done = False

    def open(self):
        self.child.open()

    def __next__(self):
        self._tick()
        if self._done:
            raise StopIteration
        self._done = True
        states = aggstate.new_states(self.op.aggregates)
        for row in self.child:
            values = [
                evaluate(agg.arg, row, self.profile)
                if agg.arg is not None else None
                for agg in self.op.aggregates
            ]
            aggstate.update_states(states, self.op.aggregates, values)
        return tuple(aggstate.finalize_states(states, self.op.aggregates))


class _SortIterator(_Iterator):
    def __init__(self, op: P.Sort, child: _Iterator, profile):
        super().__init__(profile)
        self.op = op
        self.child = child
        self._output = None

    def open(self):
        self.child.open()
        rows = list(self.child)
        # stable multi-key sort: apply keys right-to-left
        for key_expr, descending in reversed(self.op.order):
            rows.sort(
                key=lambda row: evaluate(key_expr, row, self.profile),
                reverse=descending,
            )
        if self.profile is not None and rows:
            import math

            n = len(rows)
            self.profile.add("sort_comparisons", n * math.log2(max(n, 2)))
        self._output = iter(rows)

    def __next__(self):
        self._tick()
        return next(self._output)


class _LimitIterator(_Iterator):
    def __init__(self, op: P.Limit, child: _Iterator, profile):
        super().__init__(profile)
        self.limit = op.limit
        self.offset = op.offset
        self.child = child
        self._emitted = 0
        self._skipped = 0

    def open(self):
        self.child.open()

    def __next__(self):
        self._tick()
        while self._skipped < self.offset:
            next(self.child)
            self._skipped += 1
        if self.limit is not None and self._emitted >= self.limit:
            raise StopIteration
        self._emitted += 1
        return next(self.child)


class VolcanoEngine(QueryEngine):
    """Tuple-at-a-time execution (the PostgreSQL baseline)."""

    name = "volcano"

    def execute(self, plan: P.PhysicalOperator, catalog: Catalog,
                profile: Profile | None = None,
                trace=None, run=None) -> ExecutionResult:
        if isinstance(plan, P.EmptyResult):
            return self.execute_folded(plan, profile, trace)
        timings = Timings()
        with Stopwatch(timings, "translation"), \
                trace_span(trace, "translation", engine=self.name):
            root = self._build(plan, catalog, profile, self.run_gate(run))
        with Stopwatch(timings, "execution"), \
                trace_span(trace, "execution", engine=self.name):
            root.open()
            rows = list(root)
        result = self.finalize_rows(plan, rows)
        result.engine = self.name
        result.timings = timings
        result.profile = profile
        result.trace = trace
        return result

    def _build(self, op: P.PhysicalOperator, catalog: Catalog,
               profile, gate) -> _Iterator:
        """The iterator tree of ``op``; its scans call ``gate`` every
        :data:`GATE_ROWS` rows."""
        if isinstance(op, P.SeqScan):
            return _ScanIterator(op, catalog.get(op.table_name), profile,
                                 gate)
        if isinstance(op, P.IndexSeek):
            return _IndexSeekIterator(op, catalog.get(op.table_name),
                                      profile, gate)
        if isinstance(op, P.Filter):
            return _FilterIterator(
                op, self._build(op.child, catalog, profile, gate), profile
            )
        if isinstance(op, P.Project):
            return _ProjectIterator(
                op, self._build(op.child, catalog, profile, gate), profile
            )
        if isinstance(op, P.HashJoin):
            return _HashJoinIterator(
                op,
                self._build(op.build, catalog, profile, gate),
                self._build(op.probe, catalog, profile, gate),
                profile,
            )
        if isinstance(op, P.NestedLoopJoin):
            return _NestedLoopIterator(
                op,
                self._build(op.left, catalog, profile, gate),
                self._build(op.right, catalog, profile, gate),
                profile,
            )
        if isinstance(op, P.HashGroupBy):
            return _HashGroupByIterator(
                op, self._build(op.child, catalog, profile, gate), profile
            )
        if isinstance(op, P.ScalarAggregate):
            return _ScalarAggregateIterator(
                op, self._build(op.child, catalog, profile, gate), profile
            )
        if isinstance(op, P.Sort):
            return _SortIterator(
                op, self._build(op.child, catalog, profile, gate), profile
            )
        if isinstance(op, P.Limit):
            return _LimitIterator(
                op, self._build(op.child, catalog, profile, gate), profile
            )
        raise EngineError(f"volcano cannot execute {type(op).__name__}")
