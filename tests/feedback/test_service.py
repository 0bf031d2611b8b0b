"""End-to-end feedback loop through the QueryService: Q-Error
re-optimization rebuilds the cached plan in place, never picks a tier
(that is the engine ladder's decision alone), and stays byte-identical
to feedback-off."""

import pytest

from repro.bench.tpch import QUERIES, generate_tpch
from repro.feedback import FeedbackConfig, FeedbackStore
from repro.observability.metrics import get_registry
from repro.observability.trace import QueryTrace
from repro.server import QueryService

# one flagged customer out of 50; the planner's NDV-based equality
# selectivity predicts half the table, so the first execution measures
# a Q-Error far above the default threshold of 4
MISESTIMATED_JOIN = (
    "SELECT c_id, o_id FROM customers, orders "
    "WHERE c_id = o_cust AND flag = 1"
)


# 1.0 is a perfect estimate: any seedable statement re-plans at once
ALWAYS_REPLAN = FeedbackConfig(q_error_threshold=1.0)


def populate(service):
    service.execute("CREATE TABLE customers (c_id INT PRIMARY KEY, flag INT)")
    service.execute("CREATE TABLE orders "
                    "(o_id INT PRIMARY KEY, o_cust INT)")
    customers = ", ".join(
        f"({i}, {1 if i == 7 else 0})" for i in range(50)
    )
    service.execute(f"INSERT INTO customers VALUES {customers}")
    orders = ", ".join(f"({i}, {i % 50})" for i in range(400))
    service.execute(f"INSERT INTO orders VALUES {orders}")


@pytest.fixture()
def service():
    svc = QueryService()
    populate(svc)
    return svc


class TestReoptimization:
    def test_first_execution_triggers_an_in_place_replan(self, service):
        trace = QueryTrace()
        first = service.execute(MISESTIMATED_JOIN, trace=trace)
        kinds = [event.kind for event in trace.events]
        assert "feedback.observed" in kinds
        assert "feedback.reoptimize" in kinds
        observed = next(e for e in trace.events
                        if e.kind == "feedback.observed")
        assert observed.attrs["q_error"] >= 4.0
        assert first.plan_cache == "miss"
        assert len(first.rows) == 8  # customer 7 appears in 400/50 orders

    def test_second_execution_hits_the_rebuilt_entry(self, service):
        first = service.execute(MISESTIMATED_JOIN)
        trace = QueryTrace()
        second = service.execute(MISESTIMATED_JOIN, trace=trace)
        assert second.plan_cache == "hit"
        assert sorted(second.rows) == sorted(first.rows)
        # the rebuilt entry is already re-optimized: no second replan
        kinds = [event.kind for event in trace.events]
        assert "feedback.reoptimize" not in kinds

    def test_rebuild_planned_with_observed_seeds(self, service):
        trace = QueryTrace()
        service.execute(MISESTIMATED_JOIN, trace=trace)
        seeded = [e for e in trace.events if e.kind == "feedback.seeded"]
        assert seeded, "the in-place rebuild should plan with seeds"
        assert "customers" in seeded[-1].attrs["seeds"]

    def test_results_identical_to_feedback_off(self, service):
        oracle = QueryService(feedback=False)
        populate(oracle)
        expected = sorted(oracle.execute(MISESTIMATED_JOIN).rows)
        for _ in range(3):
            rows = sorted(service.execute(MISESTIMATED_JOIN).rows)
            assert rows == expected

    def test_feedback_off_records_nothing(self):
        svc = QueryService(feedback=False)
        populate(svc)
        trace = QueryTrace()
        svc.execute(MISESTIMATED_JOIN, trace=trace)
        assert svc.feedback is None
        kinds = [event.kind for event in trace.events]
        assert not any(kind.startswith("feedback.") for kind in kinds)

    def test_insert_invalidates_the_observations(self, service):
        service.execute(MISESTIMATED_JOIN)
        assert service.feedback.stats()["tracked"] >= 1
        service.execute("INSERT INTO orders VALUES (400, 7)")
        assert service.feedback.stats()["tracked"] == 0

    def test_metrics_move(self, service):
        registry = get_registry()
        observations = registry.counter("feedback_observations_total")
        replans = registry.counter("feedback_replans_total")
        obs_before, replans_before = observations.total, replans.total
        service.execute(MISESTIMATED_JOIN)
        assert observations.total > obs_before
        assert replans.total > replans_before

    def test_parameterized_statements_feed_back_safely(self, service):
        session = service.create_session()
        service.execute(
            "PREPARE q AS SELECT c_id FROM customers WHERE flag = $1",
            session=session,
        )
        for arg, expected in ((1, 1), (0, 49), (1, 1)):
            rows = service.execute(f"EXECUTE q({arg})",
                                   session=session).rows
            assert len(rows) == expected


class TestRebuildsReplanTheSameAst:
    """An in-place feedback rebuild and a catalog-bump re-plan both
    plan an AST that was planned before; neither may trip over the
    first plan's leftovers."""

    @pytest.mark.parametrize("feedback", [True, False])
    def test_prepared_expression_over_aggregate_survives_an_insert(
            self, feedback):
        svc = QueryService(feedback=feedback)
        svc.execute("CREATE TABLE r (id INT PRIMARY KEY, x INT)")
        svc.execute("INSERT INTO r VALUES (1, 10), (2, 20), (3, 30)")
        session = svc.create_session()
        svc.execute("PREPARE p AS SELECT 2 * SUM(x) FROM r WHERE id < $1",
                    session=session)
        assert svc.execute("EXECUTE p(10)", session=session).rows \
            == [(120,)]
        svc.execute("INSERT INTO r VALUES (4, 40)")
        bumped = svc.execute("EXECUTE p(10)", session=session)
        assert bumped.plan_cache == "miss"
        assert bumped.rows == [(200,)]

    @pytest.mark.parametrize("feedback", [True, ALWAYS_REPLAN])
    def test_first_execution_of_tpch_q14_succeeds(self, feedback):
        svc = QueryService(feedback=feedback)
        for table in generate_tpch(scale_factor=0.002, seed=1).values():
            svc.db.register_table(table)
        expected = svc.db.execute(QUERIES["q14"], engine="volcano").rows
        trace = QueryTrace()
        first = svc.execute(QUERIES["q14"], trace=trace)
        if feedback is ALWAYS_REPLAN:
            # Q14's expression over two aggregates is what an in-place
            # rebuild used to choke on: make sure this run had one
            assert "feedback.reoptimize" in [e.kind for e in trace.events]
        ((promo_revenue,),) = first.rows
        assert promo_revenue == pytest.approx(expected[0][0])
        assert svc.execute(QUERIES["q14"]).rows == first.rows


class TestOneTierDecision:
    """Feedback re-plans; it never decides which tier runs a pipeline."""

    def test_small_scan_keeps_its_compiled_entry(self, service):
        sql = "SELECT c_id FROM customers WHERE flag >= 0"
        trace = QueryTrace()
        first = service.execute(sql, trace=trace)
        kinds = [event.kind for event in trace.events]
        assert "feedback.observed" in kinds
        assert kinds.count("plancache.miss") == 1
        assert not any(kind.startswith("compile.interp") for kind in kinds)
        second = service.execute(sql)
        assert second.plan_cache == "hit"
        assert sorted(second.rows) == sorted(first.rows) \
            == [(i,) for i in range(50)]
        entry = next(iter(service.feedback.stats()["fingerprints"].values()))
        assert entry["route"] == {} and not entry["replanned"]

    def test_warm_point_lookups_never_touch_the_interpreter(self):
        svc = QueryService()
        svc.execute("CREATE TABLE dim (id INT PRIMARY KEY, x INT)")
        rows = ", ".join(f"({i}, {i * 3})" for i in range(400))
        svc.execute(f"INSERT INTO dim VALUES {rows}")
        session = svc.create_session()
        svc.execute("PREPARE pt AS SELECT id, x FROM dim WHERE id < $1",
                    session=session)
        (entry,) = svc.cache._entries.values()
        compiled_at_prepare = entry.executable
        assert compiled_at_prepare is not None
        morsels = get_registry().counter("wasm_morsels_total")
        interp_before = morsels.value(tier="interp")
        reoptimized = False
        for _ in range(5):
            trace = QueryTrace()
            result = svc.execute("EXECUTE pt(25)", session=session,
                                 trace=trace)
            assert result.plan_cache == "hit"
            assert sorted(result.rows) == [(i, i * 3) for i in range(25)]
            reoptimized |= any(event.kind == "feedback.reoptimize"
                               for event in trace.events)
        assert morsels.value(tier="interp") == interp_before
        assert reoptimized or entry.executable is compiled_at_prepare

    def test_custom_config_is_honored(self):
        svc = QueryService(feedback=FeedbackConfig(q_error_threshold=None))
        populate(svc)
        trace = QueryTrace()
        svc.execute(MISESTIMATED_JOIN, trace=trace)
        kinds = [event.kind for event in trace.events]
        assert "feedback.observed" in kinds
        assert "feedback.reoptimize" not in kinds
        assert svc.execute(MISESTIMATED_JOIN).plan_cache == "hit"

    def test_store_instance_can_be_shared(self):
        store = FeedbackStore()
        svc = QueryService(feedback=store)
        populate(svc)
        svc.execute(MISESTIMATED_JOIN)
        assert svc.feedback is store
        assert store.stats()["tracked"] >= 1


class TestExplainIntegration:
    def test_explain_analyze_shows_feedback_lines(self, service):
        service.execute(MISESTIMATED_JOIN)
        result = service.execute("EXPLAIN ANALYZE " + MISESTIMATED_JOIN)
        lines = [row[0] for row in result.rows]
        feedback = [l for l in lines if l.startswith("feedback:")]
        assert any("observations=" in l for l in feedback)
        assert any("re-planned with observed cardinalities" in l
                   for l in feedback)

    def test_pipeline_lines_carry_estimates(self, service):
        service.execute(MISESTIMATED_JOIN)
        result = service.execute("EXPLAIN ANALYZE " + MISESTIMATED_JOIN)
        pipeline_lines = [row[0] for row in result.rows
                          if "rows=" in row[0]]
        assert pipeline_lines
        assert all("est=" in line for line in pipeline_lines)

    def test_feedback_off_explain_has_no_feedback_lines(self):
        svc = QueryService(feedback=False)
        populate(svc)
        svc.execute(MISESTIMATED_JOIN)
        result = svc.execute("EXPLAIN ANALYZE " + MISESTIMATED_JOIN)
        assert not [row[0] for row in result.rows
                    if row[0].startswith("feedback:")]
