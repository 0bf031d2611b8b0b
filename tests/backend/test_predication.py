"""Tests of the predication compile mode (if-conversion, Section 4.2)."""

import pytest

from repro.costmodel import Profile, cost_report
from repro.bench.workloads import selection_table, selectivity_threshold
from repro.db import Database
from repro.engines.wasm_engine import WasmEngine


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.register_table(selection_table(20_000, seed=21))
    return database


AGG_SQL = ("SELECT COUNT(*), SUM(x2), MIN(x2), MAX(x2), AVG(y), AVG(x2)"
           " FROM t WHERE x < {threshold}")


class TestPredicationCorrectness:
    @pytest.mark.parametrize("selectivity", [0.0, 0.3, 0.7, 1.0])
    def test_matches_branching_code(self, db, selectivity):
        sql = AGG_SQL.format(threshold=selectivity_threshold(selectivity))
        reference = db.execute(sql, engine="volcano").rows
        db._engines["wasm"] = WasmEngine(predication=True)
        got = db.execute(sql, engine="wasm").rows
        db._engines["wasm"] = WasmEngine()
        assert got == reference

    def test_empty_match(self, db):
        sql = "SELECT COUNT(*), SUM(x2) FROM t WHERE x < -2147483648"
        db._engines["wasm"] = WasmEngine(predication=True)
        got = db.execute(sql, engine="wasm").rows
        db._engines["wasm"] = WasmEngine()
        assert got == [(0, 0)]

    def test_only_applies_to_scalar_sinks(self, db):
        """Grouped pipelines keep the branch; results stay correct."""
        sql = (f"SELECT x % 5, COUNT(*) FROM t WHERE x >= 0 AND"
               f" x < {selectivity_threshold(0.9)} GROUP BY x % 5"
               f" ORDER BY x % 5")
        reference = db.execute(sql, engine="volcano").rows
        db._engines["wasm"] = WasmEngine(predication=True)
        got = db.execute(sql, engine="wasm").rows
        db._engines["wasm"] = WasmEngine()
        assert got == reference


class TestPredicationBehaviour:
    def _modeled(self, db, predication, selectivity):
        sql = (f"SELECT COUNT(*) FROM t WHERE"
               f" x < {selectivity_threshold(selectivity)}")
        db._engines["wasm"] = WasmEngine(mode="turbofan",
                                         predication=predication)
        profile = Profile()
        db.execute(sql, engine="wasm", profile=profile)
        db._engines["wasm"] = WasmEngine()
        return profile

    def test_no_data_dependent_branch_sites(self, db):
        """Predicated code has no ~50%-taken branch site."""
        profile = self._modeled(db, True, 0.5)
        hot = [s for s in profile.branch_sites.values() if s.total > 5000]
        assert all(not (0.2 < s.taken_fraction < 0.8) for s in hot)

    def test_branching_code_has_the_tent_predicated_does_not(self, db):
        """The Figure-6 contrast: if-conversion trades the selectivity
        tent for a flat (slightly higher at the ends) cost curve."""
        def ms(predication, selectivity):
            profile = self._modeled(db, predication, selectivity)
            return cost_report(profile).milliseconds

        # 0.999, not 1.0: at 1.0 the threshold exceeds the column's
        # observed maximum and the plan analysis drops the (provably
        # true) predicate entirely, which would measure predicate-free
        # code instead of the predicated comparison
        branchy = [ms(False, s) for s in (0.0, 0.5, 0.999)]
        flat = [ms(True, s) for s in (0.0, 0.5, 0.999)]
        # branchy peaks in the middle
        assert branchy[1] > branchy[0] and branchy[1] > branchy[2]
        # predicated stays within a narrow band
        assert max(flat) < 1.35 * min(flat)
        # and beats branching at 50% selectivity
        assert flat[1] < branchy[1]
