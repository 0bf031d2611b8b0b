"""The vectorized engine: selection vectors over pre-compiled primitives.

Implements the MonetDB/X100 processing model the paper attributes to
DuckDB (Section 8.1): queries execute as a sequence of *pre-compiled,
type-specialized vectorized primitives*; control flow is converted to
data flow through **selection vectors** that successive predicate
kernels refine (the paper's Listing 2).  NumPy kernels stand in for the
pre-compiled primitives — they are exactly that: type-specialized
vectorized machine code compiled ahead of time, invoked per primitive
through a type-agnostic interface.

Two behaviours of the model matter for the paper's figures and are
implemented faithfully:

* a conjunction is evaluated **one side at a time** — the right-hand
  side only on rows selected by the left (Fig. 6c/6d asymmetries);
* every primitive invocation pays a dispatch overhead, and every
  selected element pays selection-vector maintenance, while per-element
  compute is cheap (SIMD) — see the cost weights.

Cost accounting: one ``vector_op`` per primitive invocation,
``vector_elements`` per element processed, a branch site per selection
kernel (writing a selection vector is a conditional store), and bulk
memory events for gathers and hash tables.
"""

from __future__ import annotations

import numpy as np

from repro.catalog.catalog import Catalog
from repro.costmodel import Profile
from repro.engines.base import ExecutionResult, QueryEngine, Stopwatch, Timings
from repro.engines.eval import sql_like_regex
from repro.errors import EngineError
from repro.observability.trace import trace_span
from repro.plan import exprs as E
from repro.plan import physical as P
from repro.sql import types as T

__all__ = ["VectorizedEngine"]


class _Chunk:
    """A batch of rows: one NumPy array per column."""

    __slots__ = ("columns", "length")

    def __init__(self, columns: list[np.ndarray], length: int):
        self.columns = columns
        self.length = length

    @classmethod
    def empty_like(cls, types: list[T.DataType]) -> "_Chunk":
        return cls([np.empty(0, dtype=ty.numpy_dtype) for ty in types], 0)

    def take(self, sel: np.ndarray) -> "_Chunk":
        return _Chunk([col[sel] for col in self.columns], len(sel))


def _int_div_trunc(a: np.ndarray, b) -> np.ndarray:
    """Truncating (toward-zero) integer division, matching Wasm."""
    with np.errstate(divide="ignore"):
        q = np.abs(a) // np.abs(b)
    negative = (a < 0) != (np.asarray(b) < 0)
    return np.where(negative, -q, q).astype(a.dtype, copy=False)


def _factorize(column: np.ndarray) -> tuple[np.ndarray, int]:
    """Values -> dense codes [0, n) preserving sort order."""
    uniques, codes = np.unique(column, return_inverse=True)
    return codes.astype(np.int64), len(uniques)


def _combine_keys(key_columns: list[np.ndarray]) -> np.ndarray:
    """Multiple key columns -> one int64 code column (row identity)."""
    codes, _ = _factorize(key_columns[0])
    for column in key_columns[1:]:
        more, n = _factorize(column)
        codes = codes * n + more
    return codes


class _Evaluator:
    """Vectorized evaluation of the lowered IR over a chunk."""

    def __init__(self, profile: Profile | None):
        self.profile = profile

    def _kernel(self, site: str, n: int) -> None:
        if self.profile is not None:
            self.profile.vector_ops += 1
            self.profile.vector_elements += n

    # -- full-vector expression evaluation ----------------------------------

    def evaluate(self, expr: E.LExpr, chunk: _Chunk) -> np.ndarray:
        n = chunk.length
        if isinstance(expr, E.Slot):
            return chunk.columns[expr.index]
        if isinstance(expr, E.Const):
            self._kernel(f"const:{id(expr)}", 0)
            return np.full(n, expr.value, dtype=expr.ty.numpy_dtype)
        if isinstance(expr, E.Param):
            if expr.value is None:
                raise EngineError(f"parameter ${expr.index} is unbound")
            self._kernel(f"param:{id(expr)}", 0)
            return np.full(n, expr.value, dtype=expr.ty.numpy_dtype)
        if isinstance(expr, E.Arith):
            a = self.evaluate(expr.left, chunk)
            b = self.evaluate(expr.right, chunk)
            self._kernel(f"arith:{id(expr)}", n)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                if expr.op == "+":
                    return a + b
                if expr.op == "-":
                    return a - b
                if expr.op == "*":
                    return a * b
                if expr.op == "/":
                    if expr.ty.is_floating:
                        return np.divide(a, b)
                    return _int_div_trunc(a, b)
                if expr.op == "%":
                    r = np.abs(a) % np.abs(b)
                    return np.where(a < 0, -r, r).astype(a.dtype, copy=False)
            raise EngineError(f"unknown arithmetic op {expr.op!r}")
        if isinstance(expr, E.Compare):
            a = self.evaluate(expr.left, chunk)
            b = self.evaluate(expr.right, chunk)
            self._kernel(f"cmp:{id(expr)}", n)
            op = expr.op
            if op == "=":
                return a == b
            if op == "<>":
                return a != b
            if op == "<":
                return a < b
            if op == "<=":
                return a <= b
            if op == ">":
                return a > b
            return a >= b
        if isinstance(expr, E.Logic):
            a = self.evaluate(expr.left, chunk)
            b = self.evaluate(expr.right, chunk)
            self._kernel(f"logic:{id(expr)}", n)
            return (a & b) if expr.op == "AND" else (a | b)
        if isinstance(expr, E.Not):
            return ~self.evaluate(expr.operand, chunk)
        if isinstance(expr, E.Neg):
            return -self.evaluate(expr.operand, chunk)
        if isinstance(expr, E.Promote):
            value = self.evaluate(expr.operand, chunk)
            self._kernel(f"promote:{id(expr)}", n)
            return value.astype(expr.ty.numpy_dtype, copy=False)
        if isinstance(expr, E.Case):
            conditions = [self.evaluate(c, chunk) for c, _ in expr.whens]
            results = [self.evaluate(r, chunk) for _, r in expr.whens]
            default = self.evaluate(expr.else_, chunk)
            self._kernel(f"case:{id(expr)}", n * len(conditions))
            return np.select(conditions, results, default=default)
        if isinstance(expr, E.Like):
            value = self.evaluate(expr.operand, chunk)
            self._kernel(f"like:{id(expr)}", n)
            matched = self._like(expr, value)
            return ~matched if expr.negated else matched
        if isinstance(expr, E.Extract):
            days = self.evaluate(expr.operand, chunk).astype(np.int64)
            self._kernel(f"extract:{id(expr)}", n)
            return _extract_vec(expr.part, days)
        raise EngineError(f"cannot evaluate {type(expr).__name__}")

    def _like(self, expr: E.Like, value: np.ndarray) -> np.ndarray:
        kind, pattern = expr.kind, expr.pattern
        if kind == "exact":
            width = value.dtype.itemsize
            return value == np.array(pattern[:width], dtype=value.dtype)
        text = np.char.rstrip(value, b"\x00")
        if kind == "prefix":
            return np.char.startswith(text, pattern)
        if kind == "suffix":
            return np.char.endswith(text, pattern)
        if kind == "contains":
            return np.char.find(text, pattern) >= 0
        regex = sql_like_regex(pattern)
        return np.array(
            [bool(regex.match(v.decode("utf-8", "replace"))) for v in text]
        )

    # -- selection-vector refinement (the paper's Listing 2) -------------------

    def select(self, predicate: E.LExpr, chunk: _Chunk,
               sel: np.ndarray) -> np.ndarray:
        """Refine selection vector ``sel``: indices satisfying ``predicate``.

        Conjunctions evaluate the right-hand side only on the rows the
        left-hand side selected — one primitive after another, exactly as
        a vectorized interpreter must.
        """
        if isinstance(predicate, E.Logic) and predicate.op == "AND":
            sel = self.select(predicate.left, chunk, sel)
            return self.select(predicate.right, chunk, sel)
        if isinstance(predicate, E.Logic) and predicate.op == "OR":
            left = self.select(predicate.left, chunk, sel)
            right = self.select(predicate.right, chunk, sel)
            return np.union1d(left, right)
        mask = self.evaluate(predicate, chunk.take(sel)).astype(bool)
        if self.profile is not None:
            survivors = int(mask.sum())
            # a select kernel writes its output behind a branch per element
            self.profile.branch_bulk(
                f"selkernel:{id(predicate)}", survivors, int(mask.size)
            )
            self.profile.vector_ops += 1
            self.profile.vector_elements += int(mask.size)
            # selection-vector maintenance: read the incoming vector per
            # element, write an index per survivor (scalar, data-dependent)
            self.profile.add("selvec_ops", float(mask.size + survivors))
        return sel[mask]


def _extract_vec(part: str, days: np.ndarray) -> np.ndarray:
    """Vectorized civil_from_days (same algorithm as engines.datecalc)."""
    z = days + 719468
    era = np.where(z >= 0, z, z - 146096) // 146097
    doe = z - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    year = yoe + era * 400
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    day = doy - (153 * mp + 2) // 5 + 1
    month = np.where(mp < 10, mp + 3, mp - 9)
    year = year + (month <= 2)
    if part == "YEAR":
        return year.astype(np.int32)
    if part == "MONTH":
        return month.astype(np.int32)
    return day.astype(np.int32)


class VectorizedEngine(QueryEngine):
    """Selection-vector vectorized execution (the DuckDB baseline)."""

    name = "vectorized"

    def execute(self, plan: P.PhysicalOperator, catalog: Catalog,
                profile: Profile | None = None,
                trace=None) -> ExecutionResult:
        if isinstance(plan, P.EmptyResult):
            return self.execute_folded(plan, profile, trace)
        timings = Timings()
        evaluator = _Evaluator(profile)
        with Stopwatch(timings, "execution"), \
                trace_span(trace, "execution", engine=self.name):
            chunk = self._run(plan, catalog, evaluator)
            rows = list(zip(*[col.tolist() for col in chunk.columns])) \
                if chunk.length else []
        result = self.finalize_rows(plan, rows)
        result.engine = self.name
        result.timings = timings
        result.profile = profile
        result.trace = trace
        return result

    # -- operators -------------------------------------------------------------

    def _run(self, op: P.PhysicalOperator, catalog: Catalog,
             ev: _Evaluator) -> _Chunk:
        if isinstance(op, P.SeqScan):
            table = catalog.get(op.table_name)
            columns = [table.column(name).values for name in op.columns]
            if ev.profile is not None:
                for name, values in zip(op.columns, columns):
                    ev.profile.memory_bulk(
                        f"scan:{op.binding}:{name}",
                        accesses=len(table), sequential=len(table),
                        footprint=int(values.nbytes) if len(table) else 1,
                    )
            return _Chunk(list(columns), table.row_count)

        if isinstance(op, P.IndexSeek):
            table = catalog.get(op.table_name)
            index = table.index_on(op.key_column)
            lo, hi = index.positions(op.low, op.high,
                                     op.low_strict, op.high_strict)
            row_ids = index.row_ids[lo:hi]
            columns = [
                table.column(name).values[row_ids] for name in op.columns
            ]
            if ev.profile is not None and len(row_ids):
                ev._kernel(f"idxseek:{id(op)}", len(row_ids))
                ev.profile.memory_bulk(
                    f"idxseek:{op.binding}", accesses=int(len(row_ids)),
                    sequential=0,
                    footprint=max(sum(table.column(n).nbytes
                                      for n in op.columns), 1),
                )
            return _Chunk(list(columns), int(len(row_ids)))

        if isinstance(op, P.Filter):
            chunk = self._run(op.child, catalog, ev)
            sel = np.arange(chunk.length)
            sel = ev.select(op.predicate, chunk, sel)
            if ev.profile is not None:
                # gathering the survivors through the selection vector is
                # one data-dependent indexed read per column per survivor
                ev.profile.add(
                    "selvec_ops", float(len(sel) * max(len(chunk.columns), 1))
                )
            return chunk.take(sel)

        if isinstance(op, P.Project):
            chunk = self._run(op.child, catalog, ev)
            columns = [
                np.asarray(ev.evaluate(expr, chunk)) for expr in op.exprs
            ]
            columns = [
                col.astype(ty.numpy_dtype, copy=False)
                for col, ty in zip(columns, op.output_types)
            ]
            return _Chunk(columns, chunk.length)

        if isinstance(op, P.HashJoin):
            return self._hash_join(op, catalog, ev)

        if isinstance(op, P.NestedLoopJoin):
            return self._nested_loop(op, catalog, ev)

        if isinstance(op, P.HashGroupBy):
            return self._group_by(op, catalog, ev)

        if isinstance(op, P.ScalarAggregate):
            return self._scalar_aggregate(op, catalog, ev)

        if isinstance(op, P.Sort):
            chunk = self._run(op.child, catalog, ev)
            if chunk.length == 0:
                return chunk
            order = np.arange(chunk.length)
            for key_expr, descending in reversed(op.order):
                keys = np.asarray(ev.evaluate(key_expr, chunk))[order]
                codes, _ = _factorize(keys)
                if descending:
                    codes = -codes
                order = order[np.argsort(codes, kind="stable")]
            if ev.profile is not None:
                n = chunk.length
                ev.profile.add("sort_comparisons",
                               float(n) * float(np.log2(max(n, 2))))
            return chunk.take(order)

        if isinstance(op, P.Limit):
            chunk = self._run(op.child, catalog, ev)
            start = op.offset
            stop = None if op.limit is None else start + op.limit
            sel = np.arange(chunk.length)[start:stop]
            return chunk.take(sel)

        raise EngineError(f"vectorized cannot execute {type(op).__name__}")

    def _hash_join(self, op: P.HashJoin, catalog, ev: _Evaluator) -> _Chunk:
        build = self._run(op.build, catalog, ev)
        probe = self._run(op.probe, catalog, ev)
        if build.length == 0 or probe.length == 0:
            return _Chunk.empty_like(op.output_types)

        build_key = _combine_keys([
            np.asarray(ev.evaluate(k, build)) for k in op.build_keys
        ]) if len(op.build_keys) > 1 else np.asarray(
            ev.evaluate(op.build_keys[0], build)
        )
        probe_key = _combine_keys([
            np.asarray(ev.evaluate(k, probe)) for k in op.probe_keys
        ]) if len(op.probe_keys) > 1 else np.asarray(
            ev.evaluate(op.probe_keys[0], probe)
        )
        if len(op.build_keys) > 1:
            # combined codes are only comparable within one side; recombine
            build_cols = [np.asarray(ev.evaluate(k, build))
                          for k in op.build_keys]
            probe_cols = [np.asarray(ev.evaluate(k, probe))
                          for k in op.probe_keys]
            build_key, probe_key = _combine_two_sided(build_cols, probe_cols)

        ev._kernel(f"join-hash:{id(op)}", build.length + probe.length)
        if ev.profile is not None:
            # hashing + probing are scalar, data-dependent steps
            ev.profile.add("ht_scalar_ops",
                           float(build.length + probe.length))
            row_size = sum(c.ty.size for c in op.build.output) + 16
            ev.profile.memory_bulk(
                f"join-build:{id(op)}", accesses=build.length, sequential=0,
                footprint=max(build.length * row_size, 1),
            )
            ev.profile.memory_bulk(
                f"join-probe:{id(op)}", accesses=probe.length, sequential=0,
                footprint=max(build.length * row_size, 1),
            )

        # sorted-lookup join: factorized groups + offset expansion
        sort_index = np.argsort(build_key, kind="stable")
        sorted_keys = build_key[sort_index]
        positions = np.searchsorted(sorted_keys, probe_key, side="left")
        ends = np.searchsorted(sorted_keys, probe_key, side="right")
        counts = ends - positions

        probe_idx = np.repeat(np.arange(probe.length), counts)
        build_pos = _expand_ranges(positions, counts)
        build_idx = sort_index[build_pos]

        combined = _Chunk(
            [col[build_idx] for col in build.columns]
            + [col[probe_idx] for col in probe.columns],
            len(build_idx),
        )
        if op.residual is not None:
            sel = ev.select(op.residual, combined,
                            np.arange(combined.length))
            combined = combined.take(sel)
        return combined

    def _nested_loop(self, op: P.NestedLoopJoin, catalog, ev) -> _Chunk:
        left = self._run(op.left, catalog, ev)
        right = self._run(op.right, catalog, ev)
        if left.length == 0 or right.length == 0:
            return _Chunk.empty_like(op.output_types)
        left_idx = np.repeat(np.arange(left.length), right.length)
        right_idx = np.tile(np.arange(right.length), left.length)
        combined = _Chunk(
            [col[left_idx] for col in left.columns]
            + [col[right_idx] for col in right.columns],
            len(left_idx),
        )
        ev._kernel(f"nlj:{id(op)}", combined.length)
        if op.predicate is not None:
            sel = ev.select(op.predicate, combined,
                            np.arange(combined.length))
            combined = combined.take(sel)
        return combined

    def _group_by(self, op: P.HashGroupBy, catalog, ev) -> _Chunk:
        chunk = self._run(op.child, catalog, ev)
        if chunk.length == 0:
            return _Chunk.empty_like(op.output_types)
        key_arrays = [np.asarray(ev.evaluate(k, chunk)) for k in op.keys]
        stacked = key_arrays[0] if len(key_arrays) == 1 \
            else _combine_keys(key_arrays)
        uniques, group_ids = np.unique(stacked, return_inverse=True)
        n_groups = len(uniques)
        ev._kernel(f"group-hash:{id(op)}", chunk.length)
        if ev.profile is not None:
            # per element: one scalar hash+probe, one scalar scatter
            # into the aggregate states (np.add.at is scalar under the
            # hood, as is any hash aggregate)
            ev.profile.add("ht_scalar_ops", 3.0 * chunk.length)
            row_size = 16 + sum(k.ty.size for k in op.keys) \
                + 8 * len(op.aggregates)
            ev.profile.memory_bulk(
                f"group:{id(op)}", accesses=chunk.length, sequential=0,
                footprint=max(n_groups * row_size, 1),
            )

        # representative row per group provides the key output values
        representatives = np.zeros(n_groups, dtype=np.int64)
        representatives[group_ids[::-1]] = np.arange(chunk.length)[::-1]
        out_columns = [arr[representatives] for arr in key_arrays]

        for agg in op.aggregates:
            ev._kernel(f"agg:{agg.kind}:{id(agg)}", chunk.length)
            out_columns.append(
                _aggregate_vec(agg, ev, chunk, group_ids, n_groups)
            )
        return _Chunk(out_columns, n_groups)

    def _scalar_aggregate(self, op: P.ScalarAggregate, catalog, ev) -> _Chunk:
        chunk = self._run(op.child, catalog, ev)
        group_ids = np.zeros(chunk.length, dtype=np.int64)
        columns = []
        for agg in op.aggregates:
            ev._kernel(f"agg:{agg.kind}:{id(agg)}", chunk.length)
            columns.append(_aggregate_vec(agg, ev, chunk, group_ids, 1))
        return _Chunk(columns, 1)


def _expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ranges [starts[i], starts[i]+counts[i]) efficiently."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    ends = np.cumsum(counts)
    begins = ends - counts
    out[0] = starts[np.argmax(counts > 0)]
    nonzero = counts > 0
    first_positions = begins[nonzero]
    start_values = starts[nonzero]
    out[first_positions[1:]] = (
        start_values[1:] - (start_values[:-1] + counts[nonzero][:-1] - 1)
    )
    return np.cumsum(out)


def _combine_two_sided(build_cols: list[np.ndarray],
                       probe_cols: list[np.ndarray]):
    """Factorize multi-column keys consistently across both join sides."""
    build_codes = np.zeros(len(build_cols[0]), dtype=np.int64)
    probe_codes = np.zeros(len(probe_cols[0]), dtype=np.int64)
    for b_col, p_col in zip(build_cols, probe_cols):
        merged = np.concatenate([b_col, p_col])
        _, codes = np.unique(merged, return_inverse=True)
        n = codes.max() + 1
        build_codes = build_codes * n + codes[: len(b_col)]
        probe_codes = probe_codes * n + codes[len(b_col):]
    return build_codes, probe_codes


#: The bulk form of the compare updates.  They run over the rows in
#: *reverse*: numpy's fmin/fmax skip a NaN and, of equal values,
#: keep the one applied last -- so reversed, the first row's, exactly
#: the strict compare of the other engines.
_BULK = {"min": np.fmin, "max": np.fmax}


def _aggregate_vec(agg, ev: _Evaluator, chunk: _Chunk,
                   group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    row = agg.row
    values = None if agg.arg is None \
        else np.asarray(ev.evaluate(agg.arg, chunk))
    state = []
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for f in row.fields:
            if f.update == "count":
                state.append(np.bincount(group_ids, minlength=n_groups)
                             .astype(np.int64))
                continue
            ty = f.acc_type(agg)
            out = np.full(n_groups, f.identity(ty), dtype=ty.numpy_dtype)
            fed = values.astype(out.dtype, copy=False)
            if f.update == "add":
                np.add.at(out, group_ids, fed)
            else:
                _BULK[f.update].at(out, group_ids[::-1], fed[::-1])
            state.append(out)
        if not row.mean:
            return state[0].astype(agg.ty.numpy_dtype, copy=False)
        total, count = state
        mean = total.astype(np.float64) / count / 10**agg.scale
    return np.where(count > 0, mean, 0.0)
