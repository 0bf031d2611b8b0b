"""Tests of the plan-level static analysis (facts, folding, lint).

Covers the fact lattice, predicate implication/contradiction reasoning,
the bottom-up dataflow over logical plans, the PlanLinter's structured
diagnostics and the ``plan_lint`` Database knob, EXPLAIN rendering of
derived facts, and the plan-cache warm path (facts cached alongside the
plan, recomputed only on catalog-version bumps).
"""

import warnings

import pytest

from repro.db import Database
from repro.errors import ConfigError, LintError
from repro.observability import FakeClock, QueryTrace
from repro.plan import logical as L
from repro.plan.analysis import (
    ColumnFact,
    PlanDiagnostic,
    PlanLinter,
    RelationFacts,
    analyze_plan,
    evaluate_conjunct,
    refine_facts,
)
from repro.plan.analysis.dataflow import seed_scan_facts
from repro.plan.builder import build_logical_plan
from repro.plan.optimizer import optimize
from repro.server.service import QueryService
from repro.sql.analyzer import analyze
from repro.sql.parser import parse

from tests.plan.conftest import plan_for


def logical_for(db, sql, report=None):
    """Parse, analyze, build, and optimize one SELECT's logical plan."""
    stmt = parse(sql)
    analyze(stmt, db.catalog)
    plan = build_logical_plan(stmt, db.catalog)
    return optimize(plan, db.catalog, report=report)


def analysis_for(db, sql):
    return analyze_plan(logical_for(db, sql), db.catalog)


def _find_logical(plan, cls):
    if isinstance(plan, cls):
        return plan
    for child in plan.children:
        found = _find_logical(child, cls)
        if found is not None:
            return found
    return None


def _scan(db, table):
    return _find_logical(logical_for(db, f"SELECT * FROM {table}"),
                         L.LogicalScan)


def _filter_predicate(db, sql):
    """The (resolved) predicate of the first LogicalFilter in ``sql``."""
    node = _find_logical(logical_for(db, sql), L.LogicalFilter)
    assert node is not None, f"no Filter survived optimization: {sql}"
    return node.predicate


class TestColumnFact:
    def test_top_knows_nothing(self):
        fact = ColumnFact.top()
        assert not fact.constant and not fact.empty
        # the system stores no NULLs, so even "top" states that invariant
        assert fact.describe() == "not-null"

    def test_constant_and_empty(self):
        assert ColumnFact(lo=5, hi=5).constant
        assert ColumnFact(lo=6, hi=5).empty
        assert not ColumnFact(lo=4, hi=5).constant

    def test_clamp_intersects(self):
        fact = ColumnFact(lo=0, hi=9).clamp(lo=3, hi=20)
        assert (fact.lo, fact.hi) == (3, 9)

    def test_clamp_strict_shrinks_integer_bounds(self):
        fact = ColumnFact(lo=0, hi=9).clamp(lo=2, hi=7, lo_strict=True,
                                            hi_strict=True)
        assert (fact.lo, fact.hi) == (3, 6)

    def test_clamp_strict_keeps_float_bounds_closed(self):
        fact = ColumnFact().clamp(lo=1.5, hi=2.5, lo_strict=True,
                                  hi_strict=True)
        assert (fact.lo, fact.hi) == (1.5, 2.5)  # sound over-approximation

    def test_clamp_unchanged_returns_self(self):
        fact = ColumnFact(lo=0, hi=9)
        assert fact.clamp(lo=-5, hi=100) is fact

    def test_join_unions_intervals(self):
        a = ColumnFact(lo=0, hi=4, unique=True, distinct=5)
        b = ColumnFact(lo=2, hi=9, unique=False, distinct=3)
        joined = a.join(b)
        assert (joined.lo, joined.hi) == (0, 9)
        assert not joined.unique          # both must guarantee it
        assert joined.distinct == 5       # upper bound survives

    def test_join_drops_one_sided_knowledge(self):
        joined = ColumnFact(lo=0, hi=4).join(ColumnFact())
        assert joined.lo is None and joined.hi is None

    def test_describe_forms(self):
        assert ColumnFact(lo=5, hi=5).describe().startswith("=5")
        assert "[0, 9]" in ColumnFact(lo=0, hi=9).describe()
        assert "empty" in ColumnFact(lo=6, hi=5).describe()
        assert "unique" in ColumnFact(lo=0, hi=9, unique=True).describe()
        assert "ndv=10" in ColumnFact(lo=0, hi=9, distinct=10).describe()
        assert "[-inf, 7]" in ColumnFact(hi=7).describe()


class TestRelationFacts:
    def test_fact_defaults_to_top(self):
        facts = RelationFacts()
        assert facts.fact(("r", "x")) == ColumnFact.top()

    def test_with_fact_is_persistent(self):
        base = RelationFacts()
        derived = base.with_fact(("r", "x"), ColumnFact(lo=1, hi=2))
        assert base.fact(("r", "x")) == ColumnFact.top()
        assert derived.fact(("r", "x")).lo == 1

    def test_mark_empty_pins_row_bound(self):
        facts = RelationFacts(row_bound=100).mark_empty("because")
        assert facts.proven_empty and facts.row_bound == 0
        assert facts.empty_reason == "because"

    def test_mark_empty_keeps_first_reason(self):
        facts = RelationFacts().mark_empty("first").mark_empty("second")
        assert facts.empty_reason == "first"

    def test_join_keeps_shared_columns_only(self):
        a = RelationFacts({("r", "x"): ColumnFact(lo=0, hi=4)}, row_bound=10)
        b = RelationFacts({("r", "y"): ColumnFact(lo=0, hi=4)}, row_bound=20)
        joined = a.join(b)
        assert joined.columns == {}
        assert joined.row_bound == 20


class TestPredicateEvaluation:
    """Three-valued conjunct evaluation against statistics-seeded facts.

    The r fixture stores x = i % 10, so the seeded fact is x in [0, 9]
    with ndv 10; id is the 0..99 primary key.
    """

    def _facts(self, db):
        return seed_scan_facts(_scan(db, "r"), db.catalog)

    def test_seeded_scan_facts(self, db):
        facts = self._facts(db)
        x = facts.fact(("r", "x"))
        assert (x.lo, x.hi, x.distinct) == (0, 9, 10)
        assert facts.fact(("r", "id")).unique
        assert facts.row_bound == 100

    def test_implied_predicate_is_true(self, db):
        pred = _filter_predicate(db, "SELECT x FROM r WHERE x < 5")
        wide = self._facts(db)
        assert evaluate_conjunct(pred, wide) is None  # 5 splits [0, 9]

    def test_contradiction_is_false(self, db):
        pred = _filter_predicate(db, "SELECT x FROM r WHERE x < 5")
        narrowed = self._facts(db).with_fact(("r", "x"),
                                             ColumnFact(lo=7, hi=9))
        assert evaluate_conjunct(pred, narrowed) is False

    def test_interval_decides_comparison(self, db):
        facts = self._facts(db)
        lt = _filter_predicate(db, "SELECT x FROM r WHERE x < 5")
        # rebuild "x < 42" style verdicts by narrowing the fact instead
        below = facts.with_fact(("r", "x"), ColumnFact(lo=0, hi=4))
        assert evaluate_conjunct(lt, below) is True

    def test_refine_tightens_interval(self, db):
        pred = _filter_predicate(
            db, "SELECT x FROM r WHERE x > 1 AND x < 4")
        refined = refine_facts(self._facts(db), pred)
        fact = refined.fact(("r", "x"))
        assert (fact.lo, fact.hi) == (2, 3)
        assert not refined.proven_empty

    def test_refine_to_contradiction_marks_empty(self, db):
        pred = _filter_predicate(
            db, "SELECT x FROM r WHERE x > 6 AND x < 3")
        refined = refine_facts(self._facts(db), pred)
        assert refined.proven_empty
        assert refined.row_bound == 0

    def test_between_bounds_extracted(self, db):
        pred = _filter_predicate(
            db, "SELECT x FROM r WHERE x BETWEEN 3 AND 6")
        fact = refine_facts(self._facts(db), pred).fact(("r", "x"))
        assert (fact.lo, fact.hi) == (3, 6)

    def test_equality_pins_constant(self, db):
        pred = _filter_predicate(db, "SELECT x FROM r WHERE x = 7")
        fact = refine_facts(self._facts(db), pred).fact(("r", "x"))
        assert fact.constant and fact.lo == 7

    def test_decimal_bound_in_storage_domain(self, db):
        # price = i * 1.25 stored scaled by 100: [0, 12375]
        pred = _filter_predicate(db, "SELECT x FROM r WHERE price > 100")
        fact = refine_facts(self._facts(db), pred).fact(("r", "price"))
        assert fact.lo == 10_001  # strict > in scaled-integer storage

    def test_parameter_never_evaluates(self, db):
        from repro.sql import ast

        ref = _filter_predicate(db, "SELECT x FROM r WHERE x < 5").left
        pred = ast.Binary("<", ref, ast.Parameter(1))
        assert evaluate_conjunct(pred, self._facts(db)) is None


class TestAnalyzePlan:
    def test_contradiction_proves_empty(self, db):
        analysis = analysis_for(db, "SELECT x FROM r WHERE x > 100")
        assert analysis.proven_empty
        assert "contradicts" in analysis.empty_reason

    def test_inverted_between_proves_empty(self, db):
        analysis = analysis_for(
            db, "SELECT x FROM r WHERE x BETWEEN 8 AND 2")
        assert analysis.proven_empty

    def test_limit_zero_proves_empty(self, db):
        analysis = analysis_for(db, "SELECT x FROM r LIMIT 0")
        assert analysis.proven_empty
        assert analysis.empty_reason == "LIMIT 0"

    def test_join_with_empty_side_is_empty(self, db):
        analysis = analysis_for(db, """
            SELECT r.x FROM r, s WHERE r.id = s.rid AND s.rid < 0
        """)
        assert analysis.proven_empty

    def test_scalar_aggregate_is_never_folded(self, db):
        """COUNT(*) over an empty input still produces one row."""
        analysis = analysis_for(
            db, "SELECT COUNT(*) FROM r WHERE x > 100")
        assert not analysis.proven_empty
        assert analysis.root_facts.row_bound == 1

    def test_group_by_row_bound_is_ndv(self, db):
        analysis = analysis_for(
            db, "SELECT x, COUNT(*) FROM r GROUP BY x")
        assert analysis.root_facts.row_bound == 10  # ndv(x)

    def test_limit_caps_row_bound(self, db):
        analysis = analysis_for(db, "SELECT x FROM r LIMIT 7")
        assert analysis.root_facts.row_bound == 7

    def test_predicates_refine_root_column_facts(self, db):
        analysis = analysis_for(
            db, "SELECT x FROM r WHERE x > 1 AND x < 4")
        named = dict(analysis.column_facts)
        assert (named["x"].lo, named["x"].hi) == (2, 3)

    def test_primary_key_fact_survives_to_root(self, db):
        analysis = analysis_for(db, "SELECT id FROM r")
        named = dict(analysis.column_facts)
        assert named["id"].unique

    def test_projected_literal_becomes_constant(self, db):
        analysis = analysis_for(db, "SELECT 3 AS c, x FROM r")
        named = dict(analysis.column_facts)
        assert named["c"].constant and named["c"].lo == 3

    def test_empty_table_scan_is_empty(self):
        database = Database(default_engine="volcano")
        database.execute("CREATE TABLE e (a INT)")
        analysis = analysis_for(database, "SELECT a FROM e")
        assert analysis.proven_empty
        assert "empty" in analysis.empty_reason


class TestPredicateImplication:
    def test_implied_conjunct_dropped_by_optimizer(self, db):
        report = []
        plan = logical_for(db, "SELECT x FROM r WHERE x < 42",
                           report=report)
        assert _find_logical(plan, L.LogicalFilter) is None
        assert report and "42" in report[0]

    def test_partial_implication_keeps_the_rest(self, db):
        report = []
        plan = logical_for(
            db, "SELECT x FROM r WHERE x < 42 AND x > 5", report=report)
        node = _find_logical(plan, L.LogicalFilter)
        assert node is not None  # x > 5 is undecided, so it survives
        assert len(report) == 1

    def test_undecided_predicate_untouched(self, db):
        report = []
        plan = logical_for(db, "SELECT x FROM r WHERE x < 5",
                           report=report)
        assert _find_logical(plan, L.LogicalFilter) is not None
        assert report == []

    def test_dropped_conjuncts_reach_explain(self, db):
        text = db.explain("SELECT x FROM r WHERE x < 42")
        assert "implied predicate dropped" in text
        assert "42" in text

    def test_dropped_predicate_result_unchanged(self, db):
        rows = db.execute("SELECT COUNT(*) FROM r WHERE x < 42").rows
        assert rows == [(100,)]


class TestFoldedCardinality:
    """Satellite: folded subplans report 0 estimated rows in EXPLAIN."""

    def test_folded_plan_estimates_zero_rows(self, db):
        text = db.explain("SELECT x FROM r WHERE x > 100")
        assert "EmptyResult" in text
        assert "(~0 rows)" in text

    def test_unfolded_contradiction_estimates_zero_selectivity(self, db):
        """A contradicted filter under a scalar aggregate is not folded,
        but the estimator consumes the facts: 1-row floor, not the
        statistical guess."""
        plan = plan_for(db, "SELECT COUNT(*) FROM r WHERE x > 100")
        from repro.plan import physical as P

        node = plan
        while not isinstance(node, P.Filter):
            node = node.children[0]
        assert node.estimated_rows == 1.0  # max(100 * 0.0, 1.0)

    def test_implied_filter_estimates_full_input(self, db):
        plan = plan_for(db, "SELECT COUNT(*) FROM r WHERE x >= 0")
        from repro.plan import physical as P

        # the filter was dropped entirely: the scan feeds the aggregate
        names = []
        node = plan
        while node is not None:
            names.append(type(node).__name__)
            node = node.children[0] if node.children else None
        assert "Filter" not in names


class TestPlanLinter:
    CLEAN_QUERIES = [
        "SELECT x FROM r WHERE x < 5",
        "SELECT r.x, MIN(s.v) FROM r, s WHERE r.id = s.rid GROUP BY r.x",
        "SELECT x, COUNT(*) FROM r GROUP BY x ORDER BY x LIMIT 3",
        "SELECT price * 2 FROM r WHERE name LIKE 'n%'",
        "SELECT SUM(x + 1) FROM r",
    ]

    @pytest.mark.parametrize("sql", CLEAN_QUERIES)
    def test_clean_plans_have_no_diagnostics(self, db, sql):
        assert PlanLinter(logical_for(db, sql)).lint() == []

    def test_empty_sink(self, db):
        broken = L.LogicalProject(_scan(db, "r"), [])
        diags = PlanLinter(broken).lint()
        assert any(d.code == "empty-sink" and d.offset == 0 for d in diags)

    def test_unresolved_column(self, db):
        # a parsed-but-never-analyzed predicate has no resolution
        stmt = parse("SELECT x FROM r WHERE x < 5")
        pred = stmt.where
        broken = L.LogicalFilter(_scan(db, "r"), pred)
        diags = PlanLinter(broken).lint()
        assert any(d.code == "unresolved-column" for d in diags)

    def test_unknown_column(self, db):
        # a predicate over r filtering a scan of s: resolved, but the
        # referent is produced by nobody below
        pred = _filter_predicate(db, "SELECT x FROM r WHERE x < 5")
        broken = L.LogicalFilter(_scan(db, "s"), pred)
        diags = PlanLinter(broken).lint()
        codes = {d.code for d in diags}
        assert "unknown-column" in codes

    def test_type_mismatch(self, db):
        from repro.sql import types as T

        pred = _filter_predicate(db, "SELECT x FROM r WHERE x < 5")
        ref = pred.left
        assert ref.resolved == ("r", "x")
        ref.ty = T.INT64  # r.x is produced as INT32
        broken = L.LogicalFilter(_scan(db, "r"), pred)
        diags = PlanLinter(broken).lint()
        assert any(d.code == "type-mismatch" for d in diags)

    def test_non_boolean_predicate(self, db):
        stmt = parse("SELECT x + 1 FROM r")
        analyze(stmt, db.catalog)
        expr = stmt.items[0].expr  # INT32-typed arithmetic
        broken = L.LogicalFilter(_scan(db, "r"), expr)
        diags = PlanLinter(broken).lint()
        assert any(d.code == "predicate-type" for d in diags)

    def test_duplicate_output_refs(self, db):
        scan = _scan(db, "r")
        broken = L.LogicalJoin(scan, scan)  # same binding on both sides
        diags = PlanLinter(broken).lint()
        assert any(d.code == "duplicate-ref" for d in diags)

    def test_misplaced_aggregate(self, db):
        agg_plan = logical_for(db, "SELECT SUM(x) FROM r")
        agg_expr = _find_logical(agg_plan, L.LogicalAggregate).aggregates[0]
        broken = L.LogicalProject(_scan(db, "r"), [(agg_expr, "s")])
        diags = PlanLinter(broken).lint()
        assert any(d.code == "misplaced-aggregate" for d in diags)

    def test_aggregate_output_covered_by_child(self, db):
        """SUM(x) referenced above the aggregate that produces it is
        matched structurally, not reported."""
        plan = logical_for(db, "SELECT SUM(x) + 1 FROM r")
        assert PlanLinter(plan).lint() == []

    def test_diagnostics_sorted_and_offset_bearing(self, db):
        stmt = parse("SELECT x FROM r WHERE x < 5")
        pred = stmt.where
        inner = L.LogicalFilter(_scan(db, "r"), pred)
        outer = L.LogicalProject(inner, [])
        diags = PlanLinter(outer).lint()
        assert [d.offset for d in diags] == sorted(d.offset for d in diags)
        assert {d.operator for d in diags} >= {"LogicalProject",
                                               "LogicalFilter"}

    def test_render_format(self):
        diag = PlanDiagnostic("unknown-column", "LogicalFilter", 2, "boom")
        assert diag.render() == "[unknown-column] op#2 LogicalFilter: boom"
        assert str(diag) == diag.render()


def _lint_db(mode):
    database = Database(default_engine="volcano", plan_lint=mode)
    database.execute("CREATE TABLE t (a INT)")
    database.table("t").append_rows([(i,) for i in range(5)])
    return database


class TestLintModes:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError):
            Database(plan_lint="chatty")

    def test_strict_passes_clean_queries(self):
        database = _lint_db("strict")
        assert database.execute("SELECT a FROM t WHERE a < 3").rows \
            == [(0,), (1,), (2,)]

    def test_strict_raises_on_diagnostics(self, monkeypatch):
        database = _lint_db("strict")
        diag = PlanDiagnostic("synthetic", "LogicalScan", 0, "injected")
        monkeypatch.setattr(PlanLinter, "lint", lambda self: [diag])
        with pytest.raises(LintError) as excinfo:
            database.execute("SELECT a FROM t")
        assert "synthetic" in str(excinfo.value)

    def test_warn_mode_warns_and_runs(self, monkeypatch):
        database = _lint_db("warn")
        diag = PlanDiagnostic("synthetic", "LogicalScan", 0, "injected")
        monkeypatch.setattr(PlanLinter, "lint", lambda self: [diag])
        with pytest.warns(UserWarning, match="synthetic"):
            result = database.execute("SELECT COUNT(*) FROM t")
        assert result.rows == [(5,)]

    def test_off_mode_never_lints(self, monkeypatch):
        database = _lint_db("off")

        def explode(self):
            raise AssertionError("linter ran with plan_lint=off")

        monkeypatch.setattr(PlanLinter, "lint", explode)
        assert database.execute("SELECT COUNT(*) FROM t").rows == [(5,)]

    def test_lint_diagnostics_attached_to_analysis(self, monkeypatch):
        database = _lint_db("warn")
        diag = PlanDiagnostic("synthetic", "LogicalScan", 0, "injected")
        monkeypatch.setattr(PlanLinter, "lint", lambda self: [diag])
        stmt = parse("SELECT a FROM t")
        analyze(stmt, database.catalog)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plan = database.plan(stmt)
        assert plan.analysis.lint == [diag]
        assert "lint: [synthetic]" in "\n".join(plan.analysis.describe())

    def test_lint_span_traced(self, monkeypatch):
        database = _lint_db("warn")
        monkeypatch.setattr(PlanLinter, "lint", lambda self: [])
        trace = QueryTrace(clock=FakeClock())
        database.execute("SELECT a FROM t", trace=trace)
        assert "plan.lint" in trace.kinds()


class TestExplainRendering:
    def test_analysis_section_lists_facts(self, db):
        text = db.explain("SELECT x FROM r WHERE x > 1 AND x < 4")
        assert "== analysis ==" in text
        assert "x: [2, 3]" in text
        assert "row bound: <= 100" in text

    def test_proven_empty_explains_reason_and_plan(self, db):
        text = db.explain("SELECT x FROM r WHERE x > 100")
        assert "proven empty:" in text
        assert "LogicalEmpty" in text or "EmptyResult" in text

    def test_explain_analyze_renders_analysis(self, db):
        result = db.execute(
            "EXPLAIN ANALYZE SELECT x FROM r WHERE x = 7",
            engine="wasm")
        text = "\n".join(r[0] for r in result.rows)
        assert "analysis:" in text
        assert "x: =7" in text


class TestFoldedExecution:
    @pytest.mark.parametrize("engine", ["volcano", "wasm",
                                        "wasm[interpreter]"])
    def test_folded_query_returns_empty(self, db, engine):
        result = db.execute("SELECT x, y FROM r WHERE x > 100",
                            engine=engine)
        assert result.rows == []
        assert result.column_names == ["x", "y"]

    def test_folding_skips_wasm_compilation(self, db):
        trace = QueryTrace(clock=FakeClock())
        db.execute("SELECT x FROM r WHERE x > 100", engine="wasm",
                   trace=trace)
        kinds = trace.kinds()
        assert "plan.analysis" in kinds
        assert "translation" not in kinds
        assert not any(k.startswith("compile.") for k in kinds)

    def test_unfolded_query_still_compiles(self, db):
        trace = QueryTrace(clock=FakeClock())
        db.execute("SELECT x FROM r WHERE x > 5", engine="wasm",
                   trace=trace)
        assert any(k.startswith("compile.") for k in trace.kinds())


class TestPlanCacheReuse:
    SQL = "SELECT x FROM r WHERE x > 1 AND x < 4"

    def _service(self):
        service = QueryService()
        service.db.execute("CREATE TABLE r (id INT PRIMARY KEY, x INT)")
        service.db.table("r").append_rows([(i, i % 10) for i in range(50)])
        return service

    def test_warm_path_skips_reanalysis(self):
        service = self._service()
        cold = QueryTrace(clock=FakeClock())
        first = service.execute(self.SQL, trace=cold)
        assert first.plan_cache == "miss"
        assert "plan.analysis" in cold.kinds()

        warm = QueryTrace(clock=FakeClock())
        second = service.execute(self.SQL, trace=warm)
        assert second.plan_cache == "hit"
        assert second.rows == first.rows
        assert "plan.analysis" not in warm.kinds()
        assert warm.find("plancache.hit")

    def test_cached_entry_carries_analysis(self):
        service = self._service()
        service.execute(self.SQL)
        entries = list(service.cache._entries.values())
        assert entries
        assert all(e.analysis is not None for e in entries)
        assert all(not e.analysis.proven_empty for e in entries)

    def test_catalog_bump_forces_reanalysis(self):
        service = self._service()
        assert service.execute(self.SQL).plan_cache == "miss"
        assert service.execute(self.SQL).plan_cache == "hit"
        service.execute("INSERT INTO r VALUES (100, 3)")
        rebuilt = QueryTrace(clock=FakeClock())
        result = service.execute(self.SQL, trace=rebuilt)
        assert result.plan_cache == "miss"
        assert "plan.analysis" in rebuilt.kinds()

    def test_folded_plan_cached_and_reused(self):
        service = self._service()
        sql = "SELECT x FROM r WHERE x > 100"
        assert service.execute(sql).rows == []
        warm = service.execute(sql)
        assert warm.plan_cache == "hit"
        assert warm.rows == []
