"""Planning must not mutate the analyzed AST.

One analyzed ``ast.Select`` is planned more than once in normal
operation — a prepared statement re-plans after every catalog bump, a
feedback re-plan rebuilds a cache entry from the same AST — so
``Database.plan`` has to leave its input exactly as the analyzer
produced it.  The regression: aggregate substitution rewrote
``2 * SUM(x)`` into ``2 * $agg.a0`` in place, and the second plan of
the same statement died with ``cannot resolve column ('$agg', 'a0')``.
"""

import copy

import pytest

from repro.bench.tpch import QUERIES, tpch_database
from repro.plan.physical import explain_physical
from repro.sql.analyzer import analyze
from repro.sql.parser import parse

EXPRESSION_OVER_AGGREGATE = (
    "SELECT l_returnflag, 2 * SUM(l_quantity) + 1 FROM lineitem "
    "GROUP BY l_returnflag HAVING SUM(l_quantity) > 5 "
    "ORDER BY 2 * SUM(l_quantity) + 1 DESC, l_returnflag"
)

STATEMENTS = {**QUERIES, "expr_over_agg": EXPRESSION_OVER_AGGREGATE}


@pytest.fixture(scope="module")
def db():
    return tpch_database(scale_factor=0.002, seed=1,
                         default_engine="volcano")


@pytest.mark.parametrize("name", sorted(STATEMENTS))
class TestPlanningIsRepeatable:
    def test_plan_twice(self, db, name):
        stmt = parse(STATEMENTS[name])
        analyze(stmt, db.catalog)
        pristine = copy.deepcopy(stmt)
        first = explain_physical(db.plan(stmt))
        assert stmt == pristine, "planning rewrote the analyzed AST"
        assert explain_physical(db.plan(stmt)) == first

    def test_analyze_plan_analyze_plan(self, db, name):
        stmt = parse(STATEMENTS[name])
        analyze(stmt, db.catalog)
        first = explain_physical(db.plan(stmt))
        analyze(stmt, db.catalog)
        assert explain_physical(db.plan(stmt)) == first


def test_replanned_statement_returns_the_same_rows(db):
    stmt = parse(EXPRESSION_OVER_AGGREGATE)
    analyze(stmt, db.catalog)
    engine = db.resolve_engine("volcano")
    first = engine.execute(db.plan(stmt), db.catalog).rows
    assert first and engine.execute(db.plan(stmt), db.catalog).rows == first
