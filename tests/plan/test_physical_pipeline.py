"""Tests of physical planning, expression lowering, and pipelines."""

import datetime as dt

import pytest

from repro.plan import exprs as E
from repro.plan import physical as P
from repro.plan.exprs import classify_like_pattern, slots_used
from repro.plan.pipeline import dissect_into_pipelines, is_pipeline_breaker
from repro.sql import types as T

from tests.plan.conftest import plan_for


class TestPhysicalShapes:
    def test_projection_pruning(self, db):
        plan = plan_for(db, "SELECT x FROM r WHERE y > 1.0")
        scan = _find(plan, P.SeqScan)
        assert set(scan.columns) == {"x", "y"}  # id, d, name, price pruned

    def test_count_star_scans_no_columns(self, db):
        plan = plan_for(db, "SELECT COUNT(*) FROM r")
        scan = _find(plan, P.SeqScan)
        assert scan.columns == []

    def test_equi_join_becomes_hash_join(self, db):
        plan = plan_for(db, "SELECT 1 FROM r, s WHERE r.id = s.rid")
        join = _find(plan, P.HashJoin)
        assert len(join.build_keys) == 1
        assert join.residual is None

    def test_non_equi_join_becomes_nested_loop(self, db):
        plan = plan_for(db, "SELECT 1 FROM r, s WHERE r.id < s.rid")
        assert _find(plan, P.NestedLoopJoin) is not None

    def test_mixed_predicates_become_residual(self, db):
        plan = plan_for(
            db, "SELECT 1 FROM r, s WHERE r.id = s.rid AND r.x + s.v > 3"
        )
        join = _find(plan, P.HashJoin)
        assert join.residual is not None

    def test_scalar_aggregate_without_group(self, db):
        plan = plan_for(db, "SELECT SUM(x) FROM r")
        assert _find(plan, P.ScalarAggregate) is not None
        assert _find(plan, P.HashGroupBy) is None

    def test_group_by_becomes_hash_group(self, db):
        plan = plan_for(db, "SELECT x, COUNT(*) FROM r GROUP BY x")
        group = _find(plan, P.HashGroupBy)
        assert len(group.keys) == 1
        assert group.aggregates[0].kind == "COUNT"

    def test_join_key_types_coerced(self, db):
        plan = plan_for(db, "SELECT 1 FROM r, s WHERE r.x = s.v")
        join = _find(plan, P.HashJoin)
        # INT32 vs INT64 unify to INT64 on both sides
        assert join.build_keys[0].ty == T.INT64
        assert join.probe_keys[0].ty == T.INT64


class TestLowering:
    def _lower(self, db, sql):
        plan = plan_for(db, sql)
        return _find(plan, P.Filter).predicate

    def test_between_desugars(self, db):
        pred = self._lower(db, "SELECT x FROM r WHERE x BETWEEN 2 AND 5")
        assert isinstance(pred, E.Logic)
        assert isinstance(pred.left, E.Compare)
        assert pred.left.op == ">="

    def test_in_list_desugars_to_or(self, db):
        pred = self._lower(db, "SELECT x FROM r WHERE x IN (1, 2, 3)")
        assert isinstance(pred, E.Logic)
        assert pred.op == "OR"

    def test_date_constant_becomes_day_number(self, db):
        pred = self._lower(db, "SELECT x FROM r WHERE d < DATE '1995-02-01'")
        assert isinstance(pred.right, E.Const)
        assert pred.right.value == T.date_to_days(dt.date(1995, 2, 1))

    def test_decimal_comparison_scales_literal(self, db):
        pred = self._lower(db, "SELECT x FROM r WHERE price > 10")
        # the literal 10 is scaled to 1000 (DECIMAL(12,2) storage)
        consts = [n for n in E.walk_lexpr(pred) if isinstance(n, E.Const)]
        assert any(c.value == 1000 for c in consts)

    def test_decimal_multiplication_rescales(self, db):
        plan = plan_for(db, "SELECT SUM(price * (1 - 0.1)) FROM r")
        agg = _find(plan, P.ScalarAggregate).aggregates[0]
        # somewhere in the lowered tree there is a division by 100
        divs = [
            n for n in E.walk_lexpr(agg.arg)
            if isinstance(n, E.Arith) and n.op == "/"
        ]
        assert divs

    def test_decimal_division_is_float(self, db):
        plan = plan_for(db, "SELECT price / price FROM r")
        expr = _find(plan, P.Project).exprs[0]
        assert expr.ty == T.DOUBLE
        assert isinstance(expr, E.Arith)
        assert expr.left.ty == T.DOUBLE

    def test_avg_argument_keeps_its_exact_type(self, db):
        # AVG sums an INT argument as i64 (like SUM); only finalize
        # divides in f64, so the result type stays DOUBLE
        plan = plan_for(db, "SELECT AVG(x) FROM r")
        agg = _find(plan, P.ScalarAggregate).aggregates[0]
        assert agg.kind == "AVG"
        assert agg.arg.ty == T.INT64
        assert agg.ty == T.DOUBLE
        assert agg.row.order_free

    def test_slots_used(self, db):
        pred = self._lower(db, "SELECT x FROM r WHERE x < 3 AND y > 1.0")
        assert len(slots_used(pred)) == 2


class TestLikeClassification:
    @pytest.mark.parametrize("pattern,kind", [
        ("PROMO%", "prefix"),
        ("%ECONOMY", "suffix"),
        ("%BRASS%", "contains"),
        ("exact", "exact"),
        ("a_c", "generic"),
        ("%a%b%", "generic"),
        ("%", "contains"),
    ])
    def test_classification(self, pattern, kind):
        got_kind, _ = classify_like_pattern(pattern)
        assert got_kind == kind

    def test_prefix_payload_is_bytes(self):
        kind, payload = classify_like_pattern("PROMO%")
        assert payload == b"PROMO"


class TestPipelines:
    def test_listing1_dissection_matches_figure3(self, db):
        """The paper's Listing 1 produces exactly Figure 3's pipelines."""
        # x < 8, not the paper's x < 42: x only spans [0, 9] here and a
        # threshold above the maximum is provably true, so the plan
        # analysis would drop the predicate and dissolve the Filter
        plan = plan_for(db, """
            SELECT r.x, MIN(s.v)
            FROM r, s
            WHERE r.x < 8 AND r.id = s.rid
            GROUP BY r.x
        """)
        pipelines = dissect_into_pipelines(plan)
        descriptions = [p.describe() for p in pipelines]
        assert len(pipelines) == 3
        # P0: scan R -> filter => join build
        assert "Scan(r)" in descriptions[0]
        assert "Filter" in descriptions[0]
        assert "HashJoin" in descriptions[0]
        # P1: scan S -> probe => group
        assert "Scan(s)" in descriptions[1]
        assert "HashJoin" in descriptions[1]
        assert "HashGroupBy" in descriptions[1]
        # P2: groups -> project => result
        assert "HashGroupBy" in descriptions[2]
        assert "Result" in descriptions[2]

    def test_topological_order(self, db):
        plan = plan_for(db, """
            SELECT r.x, COUNT(*) FROM r, s
            WHERE r.id = s.rid GROUP BY r.x ORDER BY r.x
        """)
        pipelines = dissect_into_pipelines(plan)
        # every pipeline's source was a previous pipeline's sink (or a scan)
        produced = set()
        for pipe in pipelines:
            if not isinstance(pipe.source, P.SeqScan):
                assert id(pipe.source) in produced, pipe.describe()
            if pipe.sink is not None:
                produced.add(id(pipe.sink))

    def test_breaker_classification(self, db):
        plan = plan_for(db, "SELECT x FROM r ORDER BY x")
        sort = _find(plan, P.Sort)
        scan = _find(plan, P.SeqScan)
        assert is_pipeline_breaker(sort)
        assert not is_pipeline_breaker(scan)

    def test_pure_scan_single_pipeline(self, db):
        plan = plan_for(db, "SELECT x FROM r WHERE x > 1")
        pipelines = dissect_into_pipelines(plan)
        assert len(pipelines) == 1
        assert pipelines[0].sink is None

    def test_sort_adds_two_pipelines(self, db):
        plan = plan_for(db, "SELECT x FROM r ORDER BY x")
        pipelines = dissect_into_pipelines(plan)
        assert len(pipelines) == 2
        assert isinstance(pipelines[1].source, P.Sort)


def _find(plan, cls):
    if isinstance(plan, cls):
        return plan
    for child in plan.children:
        found = _find(child, cls)
        if found is not None:
            return found
    return None
