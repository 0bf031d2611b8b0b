"""The oracle: reference rows from engines independent of the one
under test, and the row comparison.

Reference rows come from the ``vectorized`` engine on a database built
separately from the same seed, cross-checked against ``volcano``; if
those two disagree the reference itself is broken and the run aborts
(:class:`OracleError`).  TPC-H references are additionally checked
against digests committed under ``expected/`` for the seeds listed
there.  Unordered results compare as sorted multisets, floats at 1e-9
relative.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os

from repro.db import Database

from benchmarks.ledger.workloads import Statement

__all__ = ["Oracle", "OracleError", "rows_match", "digest"]

REL_TOL = 1e-9
EXPECTED = os.path.join(os.path.dirname(__file__), "expected",
                        "tpch_digests.json")


class OracleError(Exception):
    """The reference cannot be trusted; the run has no verdict."""


def _sort_key(row):
    # floats are rounded for *ordering* only, so two engines' last-bit
    # differences cannot shuffle otherwise equal multisets
    return tuple(
        (0, float(f"{v:.9g}")) if isinstance(v, float) and not math.isnan(v)
        else (1, repr(v)) if isinstance(v, float)
        else (0, int(v)) if isinstance(v, numbers.Integral)
        else (2, repr(v))
        for v in row
    )


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        try:
            a, b = float(a), float(b)
        except (TypeError, ValueError):
            return False
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
    return a == b


def rows_match(got, want, ordered: bool) -> bool:
    got, want = list(got), list(want)
    if len(got) != len(want):
        return False
    if not ordered:
        got, want = sorted(got, key=_sort_key), sorted(want, key=_sort_key)
    return all(
        len(g) == len(w) and all(_same(x, y) for x, y in zip(g, w))
        for g, w in zip(got, want)
    )


def digest(rows, ordered: bool) -> str:
    """A stable hash of a reference result (floats at 9 digits)."""
    rows = list(rows) if ordered else sorted(rows, key=_sort_key)
    text = json.dumps([
        [f"{v:.9g}" if isinstance(v, float) else str(v) for v in row]
        for row in rows
    ])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Oracle:
    """Reference results for one workload's statements, computed once
    per distinct statement on a private copy of the data."""

    def __init__(self, tables):
        self.db = Database()
        for table in tables:
            self.db.register_table(table)
        self._cache: dict[str, list] = {}

    def reference(self, stmt: Statement) -> list:
        rows = self._cache.get(stmt.ref_sql)
        if rows is None:
            rows = self.db.execute(stmt.ref_sql, engine="vectorized").rows
            check = self.db.execute(stmt.ref_sql, engine="volcano").rows
            if not rows_match(check, rows, stmt.ordered):
                raise OracleError(
                    f"vectorized and volcano disagree on: {stmt.ref_sql}"
                )
            self._cache[stmt.ref_sql] = rows
        return rows

    def check(self, stmt: Statement, rows) -> bool:
        return rows_match(rows, self.reference(stmt), stmt.ordered)

    def check_digests(self, seed: int, statements) -> int:
        """Compare TPC-H references with the committed digests of this
        seed; returns how many were checked (0: seed not committed)."""
        with open(EXPECTED) as handle:
            expected = json.load(handle).get(str(seed))
        if expected is None:
            return 0
        checked = 0
        for stmt in {s.cls: s for s in statements}.values():
            if stmt.cls not in expected:
                continue
            have = digest(self.reference(stmt), stmt.ordered)
            if have != expected[stmt.cls]:
                raise OracleError(
                    f"reference for {stmt.cls} (seed {seed}) has digest "
                    f"{have}, expected {expected[stmt.cls]} — the oracle "
                    f"engines or the data generator changed"
                )
            checked += 1
        return checked
