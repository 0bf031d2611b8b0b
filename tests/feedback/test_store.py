"""FeedbackStore unit and property tests: Q-Error math, threshold
exactness, once-per-version hysteresis, catalog-bump invalidation,
LRU bound, and thread safety."""

import dataclasses
import threading

import pytest

from repro.errors import ConfigError
from repro.feedback import (
    FeedbackConfig,
    FeedbackStore,
    PipelineObservation,
    QueryObservation,
    q_error,
)


def make_observation(fp="q1", version=1, *, estimated=10.0, measured=10,
                     binding="t", function="pipeline_0",
                     parameterized=False, root_rows=None):
    """One single-pipeline observation with a controllable Q-Error."""
    pipeline = PipelineObservation(
        function=function, estimated_rows=estimated, rows_out=measured,
        binding=binding,
    )
    return QueryObservation(
        fingerprint=fp, catalog_version=version,
        pipelines=[pipeline], root_rows=root_rows,
        parameterized=parameterized,
    )


class TestQErrorMath:
    def test_perfect_estimate_is_one(self):
        assert q_error(10, 10) == 1.0

    def test_symmetric_in_over_and_under(self):
        assert q_error(1, 100) == q_error(100, 1) == 100.0

    def test_clamped_at_one_no_division_by_zero(self):
        assert q_error(0, 0) == 1.0
        assert q_error(0.3, 0) == 1.0
        assert q_error(0, 50) == 50.0

    def test_never_below_one(self):
        assert q_error(0.2, 0.9) == 1.0


class TestConfigValidation:
    def test_threshold_below_one_rejected(self):
        with pytest.raises(ConfigError):
            FeedbackConfig(q_error_threshold=0.5)

    def test_threshold_none_allowed(self):
        assert FeedbackConfig(q_error_threshold=None).q_error_threshold is None

    @pytest.mark.parametrize("kwargs", [
        {"max_fingerprints": 0},
    ])
    def test_counts_must_be_positive(self, kwargs):
        with pytest.raises(ConfigError):
            FeedbackConfig(**kwargs)

    def test_the_only_knobs_are_threshold_and_lru_bound(self):
        # which tier runs a pipeline is the engine ladder's decision
        # alone: the store carries no routing knob
        assert [f.name for f in dataclasses.fields(FeedbackConfig)] == [
            "q_error_threshold", "max_fingerprints",
        ]


class TestReplanThreshold:
    def store(self, threshold=4.0):
        return FeedbackStore(FeedbackConfig(q_error_threshold=threshold))

    def test_exactly_at_threshold_replans(self):
        store = self.store(threshold=4.0)
        decision = store.record(make_observation(estimated=40.0, measured=10))
        assert decision.q_error == 4.0
        assert decision.replan

    def test_just_below_threshold_does_not(self):
        store = self.store(threshold=4.0)
        decision = store.record(make_observation(estimated=39.9, measured=10))
        assert decision.q_error == pytest.approx(3.99)
        assert not decision.replan

    def test_threshold_none_disables_replanning(self):
        store = self.store(threshold=None)
        decision = store.record(make_observation(estimated=1.0, measured=10**6))
        assert not decision.replan

    def test_replan_fires_once_per_fingerprint_version(self):
        store = self.store()
        first = store.record(make_observation(estimated=1000.0, measured=1))
        again = store.record(make_observation(estimated=1000.0, measured=1))
        assert first.replan and not again.replan

    def test_fresh_catalog_version_replans_again(self):
        store = self.store()
        store.record(make_observation(version=1, estimated=1000.0, measured=1))
        bumped = store.record(
            make_observation(version=2, estimated=1000.0, measured=1)
        )
        assert bumped.replan

    def test_no_seeds_means_no_replan(self):
        # a measurement the classifier could not attribute to any scan,
        # join, or the root is not actionable however wrong the estimate
        store = self.store()
        decision = store.record(
            make_observation(estimated=1000.0, measured=1, binding=None)
        )
        assert decision.q_error == 1000.0
        assert not decision.replan

    def test_decision_names_the_worst_pipeline(self):
        store = self.store()
        decision = store.record(make_observation(estimated=1000.0, measured=1))
        assert decision.pipeline == "pipeline_0"


class TestSeeds:
    def test_observed_seeds_round_trip(self):
        store = FeedbackStore()
        store.record(make_observation(estimated=100.0, measured=7))
        seeds = store.observed_seeds("q1", 1)
        assert seeds is not None
        assert seeds.bindings == {"t": 7.0}

    def test_unknown_fingerprint_returns_none(self):
        assert FeedbackStore().observed_seeds("nope", 1) is None

    def test_seeds_withheld_until_replan_decided(self):
        # a plan whose estimates were fine keeps its estimates: seeds
        # appear only once the Q-Error verdict said to re-plan
        store = FeedbackStore()
        store.record(make_observation(estimated=10.0, measured=10))
        assert store.observed_seeds("q1", 1) is None

    def test_measured_zero_clamps_to_one(self):
        # observed counts may seed estimates but never prove emptiness
        store = FeedbackStore()
        store.record(make_observation(estimated=100.0, measured=0))
        assert store.observed_seeds("q1", 1).bindings == {"t": 1.0}

    def test_parameterized_flag_travels_with_the_seeds(self):
        store = FeedbackStore()
        store.record(make_observation(estimated=100.0, measured=7,
                                      parameterized=True))
        assert store.observed_seeds("q1", 1).parameterized


class TestCatalogInvalidation:
    def test_prune_drops_superseded_versions(self):
        store = FeedbackStore()
        store.record(make_observation(fp="a", version=1, estimated=100.0))
        store.record(make_observation(fp="b", version=1, estimated=100.0))
        store.record(make_observation(fp="c", version=2, estimated=100.0))
        assert store.prune(current_version=2) == 2
        assert store.observed_seeds("a", 1) is None
        assert store.observed_seeds("c", 2) is not None

    def test_versions_are_tracked_independently(self):
        store = FeedbackStore()
        store.record(make_observation(version=1, estimated=100.0, measured=5))
        store.record(make_observation(version=2, estimated=100.0, measured=9))
        assert store.observed_seeds("q1", 1).bindings == {"t": 5.0}
        assert store.observed_seeds("q1", 2).bindings == {"t": 9.0}


class TestBookkeeping:
    def test_lru_bound_on_tracked_fingerprints(self):
        store = FeedbackStore(FeedbackConfig(max_fingerprints=2))
        for fp in ("a", "b", "c"):
            store.record(make_observation(fp=fp))
        stats = store.stats()
        assert stats["tracked"] == 2
        assert "a @v1" not in stats["fingerprints"]
        assert "c @v1" in stats["fingerprints"]

    def test_only_the_last_observation_is_kept(self):
        store = FeedbackStore()
        for measured in (1, 2, 3, 4, 5):
            store.record(make_observation(measured=measured))
        # the newest observation's measurement wins the seed slot
        assert store.observed_seeds("q1", 1).bindings == {"t": 5.0}
        assert store.stats()["fingerprints"]["q1 @v1"]["executions"] == 5

    def test_explain_lines(self):
        store = FeedbackStore(FeedbackConfig(q_error_threshold=4.0))
        store.record(make_observation(estimated=80.0, measured=10))
        lines = store.explain_lines("q1", 1)
        assert lines[0] == "feedback: observations=1 q_error=8.00"
        assert any(l.startswith("feedback: re-planned") for l in lines)
        store.record(make_observation(estimated=10.0, measured=10))
        lines = store.explain_lines("q1", 1)
        assert lines[0] == "feedback: observations=2 q_error=1.00"
        assert len(lines) == 2 and lines[1].startswith(
            "feedback: re-planned")

    def test_a_decision_is_replan_or_nothing(self):
        assert [f.name for f in dataclasses.fields(
            FeedbackStore().record(make_observation())
        )] == ["replan", "q_error", "pipeline"]

    def test_stats_never_reports_a_route(self):
        # benchmarks/ledger/layers.py sums the per-fingerprint "route"
        # ladders; small scans must not be counted as pinned anywhere
        store = FeedbackStore()
        store.record(make_observation(estimated=80.0, measured=10))
        assert store.stats()["fingerprints"]["q1 @v1"] == {
            "executions": 1, "q_error": 8.0, "replanned": True,
            "route": {},
        }

    def test_explain_lines_empty_without_history(self):
        assert FeedbackStore().explain_lines("q1", 1) == []


class TestThreadSafety:
    def test_concurrent_records_are_all_counted(self):
        store = FeedbackStore(FeedbackConfig(max_fingerprints=1024))
        threads, errors = [], []

        def worker(index):
            try:
                for i in range(50):
                    store.record(make_observation(
                        fp=f"q{i % 4}", estimated=float(1 + i),
                        measured=1 + (index + i) % 7,
                    ))
                    store.observed_seeds(f"q{i % 4}", 1)
                    store.explain_lines(f"q{i % 4}", 1)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        for index in range(8):
            threads.append(threading.Thread(target=worker, args=(index,)))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = store.stats()
        total = sum(entry["executions"]
                    for entry in stats["fingerprints"].values())
        assert total == 8 * 50
