"""Chaos suite: every injected fault still yields a correct query result.

Acceptance contract (ISSUE 1): with faults injected at each named site
(5 sites x 3 seeds), every TPC-H smoke query either completes with
results identical to the volcano engine or raises a structured
:class:`QueryError` carrying phase and attempt chain — no bare
``ValueError``/``KeyError`` escapes, and an injected ``turbofan.compile``
failure never changes query results (Liftoff pinning covers it).
"""

import pytest

from benchmarks.run_chaos import norm, run_sweep
from repro.bench.tpch import QUERIES, tpch_database
from repro.robustness import DEFAULT_CHAIN, ENGINE_FAULT_SITES, FaultInjector

SEEDS = [0, 1, 2]

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def sweep_stats():
    return run_sweep(SEEDS, rate=1.0, scale=0.002, verbose=False)


class TestChaosSweep:
    def test_covers_all_sites_and_seeds(self, sweep_stats):
        assert len(ENGINE_FAULT_SITES) >= 5
        assert sweep_stats["runs"] == (
            len(ENGINE_FAULT_SITES) * len(SEEDS) * len(QUERIES)
        )

    def test_zero_incorrect_results(self, sweep_stats):
        assert sweep_stats["incorrect"] == []

    def test_no_unstructured_escapes(self, sweep_stats):
        assert sweep_stats["unstructured"] == []

    def test_front_doors_agree(self, sweep_stats):
        # every query also went through a QueryService over the same
        # database: same outcome, because both run one fallback route
        assert sweep_stats["doors_disagree"] == []

    def test_faults_actually_caused_degradation(self, sweep_stats):
        # the sweep is vacuous if no fault ever fired
        assert sweep_stats["degraded"] > 0


class TestTurbofanPinningInvariant:
    def test_injected_turbofan_failure_never_changes_results(self):
        """The acceptance criterion's strongest clause: a turbofan.compile
        fault is absorbed *inside* the Wasm engine (Liftoff pinning), so
        the query neither degrades nor errors — and results match."""
        db = tpch_database(scale_factor=0.002, seed=7,
                           default_engine="wasm")
        db.fallback = DEFAULT_CHAIN
        wasm = db.engine("wasm")
        wasm.morsel_size = 256  # enough morsels that tier-up triggers
        reference = {
            name: norm(db.execute(sql, engine="volcano").rows)
            for name, sql in QUERIES.items()
        }
        for seed in SEEDS:
            injector = FaultInjector(seed=seed,
                                     rates={"turbofan.compile": 1.0})
            wasm.fault_injector = injector
            try:
                for name, sql in QUERIES.items():
                    result = db.execute(sql)
                    assert norm(result.rows) == reference[name], (
                        f"{name} seed={seed}"
                    )
                    assert not result.degraded, (
                        "turbofan faults must be pinned, not degraded"
                    )
            finally:
                wasm.fault_injector = None
            assert injector.fired.get("turbofan.compile", 0) > 0
