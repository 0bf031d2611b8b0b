"""Differential tests: all four engines must agree on every query.

The Wasm engine (the paper's system) is checked against the Volcano,
vectorized, and HyPer-like baselines — four independent implementations
of the same physical-plan semantics.
"""

import pytest

from repro.db import Database

from tests.engines.conftest import ALL_ENGINES, assert_engines_agree


class TestSelection:
    def test_simple_range(self, db):
        rows = assert_engines_agree(db, "SELECT x, y FROM r WHERE x < 0")
        assert all(row[0] < 0 for row in rows)

    def test_conjunction(self, db):
        assert_engines_agree(
            db, "SELECT id FROM r WHERE x < 10 AND y > 0.0 AND price < 900"
        )

    def test_disjunction(self, db):
        assert_engines_agree(
            db, "SELECT id FROM r WHERE x < -40 OR x > 40"
        )

    def test_not(self, db):
        assert_engines_agree(db, "SELECT id FROM r WHERE NOT x < 0")

    def test_between(self, db):
        assert_engines_agree(
            db, "SELECT id FROM r WHERE price BETWEEN 100 AND 200"
        )

    def test_not_between(self, db):
        assert_engines_agree(
            db, "SELECT COUNT(*) FROM r WHERE x NOT BETWEEN -10 AND 10"
        )

    def test_in_list(self, db):
        assert_engines_agree(
            db, "SELECT id FROM r WHERE name IN ('alpha', 'gamma')"
        )

    def test_date_range(self, db):
        assert_engines_agree(
            db,
            "SELECT COUNT(*) FROM r WHERE d >= DATE '1995-01-01'"
            " AND d < DATE '1995-01-01' + INTERVAL '1' YEAR",
        )

    def test_empty_result(self, db):
        rows = assert_engines_agree(db, "SELECT x FROM r WHERE x > 9999")
        assert rows == []

    def test_constant_false(self, db):
        assert_engines_agree(db, "SELECT x FROM r WHERE 1 = 2")

    def test_decimal_comparison(self, db):
        assert_engines_agree(db, "SELECT COUNT(*) FROM r WHERE price > 499.99")

    def test_string_equality(self, db):
        assert_engines_agree(db, "SELECT id FROM r WHERE name = 'beta'")

    def test_string_inequality_ordering(self, db):
        assert_engines_agree(db, "SELECT COUNT(*) FROM r WHERE name < 'c'")

    def test_empty_string(self, db):
        assert_engines_agree(db, "SELECT COUNT(*) FROM r WHERE name = ''")


class TestLike:
    def test_prefix(self, db):
        assert_engines_agree(db, "SELECT id FROM r WHERE name LIKE 'al%'")

    def test_suffix(self, db):
        assert_engines_agree(db, "SELECT id FROM r WHERE name LIKE '%ta'")

    def test_contains(self, db):
        assert_engines_agree(db, "SELECT id FROM r WHERE name LIKE '%amm%'")

    def test_exact(self, db):
        assert_engines_agree(db, "SELECT id FROM r WHERE name LIKE 'beta'")

    def test_generic_underscore(self, db):
        assert_engines_agree(db, "SELECT id FROM r WHERE name LIKE 'bet_'")

    def test_negated(self, db):
        assert_engines_agree(
            db, "SELECT COUNT(*) FROM r WHERE name NOT LIKE '%a%'"
        )


class TestProjection:
    def test_arithmetic(self, db):
        assert_engines_agree(db, "SELECT x + 1, x * 2, x - y FROM r")

    def test_integer_division_truncates(self, db):
        assert_engines_agree(db, "SELECT x / 7, x % 7 FROM r WHERE x <> 0")

    def test_unary_minus(self, db):
        assert_engines_agree(db, "SELECT -x, -y FROM r")

    def test_case_when(self, db):
        assert_engines_agree(db, """
            SELECT CASE WHEN x < -20 THEN 'low'
                        WHEN x < 20 THEN 'mid'
                        ELSE 'high' END
            FROM r
        """)

    def test_extract(self, db):
        assert_engines_agree(
            db, "SELECT EXTRACT(YEAR FROM d), EXTRACT(MONTH FROM d),"
                " EXTRACT(DAY FROM d) FROM r"
        )

    def test_cast(self, db):
        assert_engines_agree(
            db, "SELECT CAST(x AS DOUBLE), CAST(y AS INT) FROM r"
        )

    def test_decimal_expression(self, db):
        assert_engines_agree(
            db, "SELECT price * (1 - 0.05), price + price FROM r"
        )

    def test_bigint_arithmetic(self, db):
        assert_engines_agree(db, "SELECT big + 1, big / 3 FROM r")


class TestAggregation:
    def test_count_star(self, db):
        assert_engines_agree(db, "SELECT COUNT(*) FROM r")

    def test_all_aggregate_kinds(self, db):
        assert_engines_agree(
            db,
            "SELECT COUNT(*), SUM(x), MIN(x), MAX(x), AVG(y),"
            " SUM(price), MIN(d), MAX(d) FROM r",
        )

    def test_aggregate_over_empty_input(self, db):
        assert_engines_agree(
            db, "SELECT COUNT(*), SUM(x) FROM r WHERE x > 9999"
        )

    def test_group_by_int(self, db):
        assert_engines_agree(
            db, "SELECT x, COUNT(*), SUM(price) FROM r GROUP BY x ORDER BY x"
        )

    def test_group_by_string(self, db):
        assert_engines_agree(
            db, "SELECT name, COUNT(*), AVG(y) FROM r GROUP BY name"
                " ORDER BY name"
        )

    def test_group_by_multiple_keys(self, db):
        assert_engines_agree(
            db, "SELECT name, x, COUNT(*) FROM r GROUP BY name, x"
                " ORDER BY name, x"
        )

    def test_group_by_expression(self, db):
        assert_engines_agree(
            db, "SELECT x % 5, COUNT(*) FROM r WHERE x >= 0 GROUP BY x % 5"
                " ORDER BY x % 5"
        )

    def test_group_by_date_extract(self, db):
        assert_engines_agree(db, """
            SELECT EXTRACT(YEAR FROM d) AS yr, COUNT(*)
            FROM r GROUP BY EXTRACT(YEAR FROM d) ORDER BY yr
        """)

    def test_having(self, db):
        assert_engines_agree(
            db, "SELECT x, COUNT(*) FROM r GROUP BY x"
                " HAVING COUNT(*) > 4 ORDER BY x"
        )

    def test_sum_of_case(self, db):
        assert_engines_agree(db, """
            SELECT SUM(CASE WHEN x > 0 THEN 1 ELSE 0 END),
                   SUM(CASE WHEN x > 0 THEN price ELSE 0 END)
            FROM r
        """)

    def test_expression_over_aggregates(self, db):
        assert_engines_agree(db, """
            SELECT 100.0 * SUM(CASE WHEN x > 0 THEN price ELSE 0 END)
                   / SUM(price)
            FROM r
        """)

    def test_distinct(self, db):
        assert_engines_agree(db, "SELECT DISTINCT name FROM r ORDER BY name")

    def test_distinct_multi_column(self, db):
        assert_engines_agree(
            db, "SELECT DISTINCT name, x / 25 FROM r ORDER BY name, x / 25"
        )


class TestAggregateSemantics:
    """The rules of ``plan.exprs.AGGREGATES`` hold in every engine:
    MIN/MAX never select a NaN, and AVG over exact types sums in i64
    and divides only at finalize."""

    @pytest.fixture(scope="class")
    def agg_db(self):
        db = Database(default_engine="volcano")
        db.execute("CREATE TABLE t (g INT, a DOUBLE, b DOUBLE)")
        db.execute("INSERT INTO t VALUES (1, 0, 0), (1, 1, 1), (1, 2, 1),"
                   " (2, 3, 1), (2, 0, 0)")
        db.execute("CREATE TABLE w (v BIGINT, p DECIMAL(12,2))")
        db.execute("INSERT INTO w VALUES (9007199254740992, 0.10),"
                   " (1, 0.20), (1, 0.30)")
        return db

    def test_grouped_min_max_skip_nan(self, agg_db):
        rows = assert_engines_agree(
            agg_db, "SELECT g, MIN(a / b), MAX(a / b) FROM t GROUP BY g")
        assert sorted(rows) == [(1, 1.0, 2.0), (2, 3.0, 3.0)]

    def test_scalar_min_max_skip_nan(self, agg_db):
        rows = assert_engines_agree(agg_db,
                                    "SELECT MIN(a / b), MAX(a / b) FROM t")
        assert rows == [(1.0, 3.0)]

    def _bits(self, db, sql):
        return {engine: [tuple(v.hex() for v in row)
                         for row in db.execute(sql, engine=engine).rows]
                for engine in ALL_ENGINES}

    def test_avg_of_int64_is_exact(self, agg_db):
        # an f64 running sum loses the two ones against 2**53
        bits = self._bits(agg_db, "SELECT AVG(v) FROM w")
        expected = [(((2**53 + 2) / 3).hex(),)]
        assert bits == {engine: expected for engine in ALL_ENGINES}

    def test_decimal_avg_has_identical_bits(self, agg_db):
        # 0.1 + 0.2 + 0.3 in f64 is 0.6000000000000001; the scaled
        # i64 sum is exactly 60
        bits = self._bits(agg_db, "SELECT AVG(p), AVG(v) FROM w")
        assert len({repr(rows) for rows in bits.values()}) == 1, bits
        assert bits["volcano"][0][0] == (60 / 3 / 100).hex()


class TestJoins:
    def test_foreign_key_join(self, db):
        assert_engines_agree(
            db, "SELECT r.id, s.v FROM r, s WHERE r.id = s.rid"
        )

    def test_join_with_filters(self, db):
        assert_engines_agree(db, """
            SELECT r.name, s.v FROM r, s
            WHERE r.id = s.rid AND r.x > 0 AND s.v < 500
        """)

    def test_join_explicit_syntax(self, db):
        assert_engines_agree(
            db, "SELECT COUNT(*) FROM r JOIN s ON r.id = s.rid"
        )

    def test_join_then_group(self, db):
        assert_engines_agree(db, """
            SELECT r.name, COUNT(*), SUM(s.v)
            FROM r, s WHERE r.id = s.rid
            GROUP BY r.name ORDER BY r.name
        """)

    def test_join_residual_predicate(self, db):
        assert_engines_agree(db, """
            SELECT COUNT(*) FROM r, s
            WHERE r.id = s.rid AND r.x + s.v > 100
        """)

    def test_join_on_expression_keys(self, db):
        assert_engines_agree(db, """
            SELECT COUNT(*) FROM r, s WHERE r.id + 1 = s.rid + 1
        """)

    def test_self_join(self, db):
        assert_engines_agree(db, """
            SELECT COUNT(*) FROM r AS a, r AS b
            WHERE a.id = b.id AND a.x > 0
        """)

    def test_non_equi_join(self, db):
        assert_engines_agree(db, """
            SELECT COUNT(*) FROM r, s
            WHERE r.id < s.rid AND r.x > 45 AND s.v > 990
        """)

    def test_string_join_key(self, db):
        assert_engines_agree(db, """
            SELECT COUNT(*) FROM r AS a, r AS b
            WHERE a.name = b.name AND a.x > 40 AND b.x < -40
        """)

    def test_empty_build_side(self, db):
        assert_engines_agree(db, """
            SELECT COUNT(*) FROM r, s WHERE r.id = s.rid AND r.x > 9999
        """)


class TestSorting:
    def test_order_by_int(self, db):
        assert_engines_agree(db, "SELECT x FROM r ORDER BY x, id")

    def test_order_by_desc(self, db):
        assert_engines_agree(db, "SELECT x, id FROM r ORDER BY x DESC, id")

    def test_order_by_string(self, db):
        assert_engines_agree(
            db, "SELECT name, id FROM r ORDER BY name, id"
        )

    def test_order_by_string_desc(self, db):
        assert_engines_agree(
            db, "SELECT name, id FROM r ORDER BY name DESC, id"
        )

    def test_order_by_double(self, db):
        assert_engines_agree(db, "SELECT y FROM r ORDER BY y")

    def test_order_by_date(self, db):
        assert_engines_agree(db, "SELECT d, id FROM r ORDER BY d, id")

    def test_order_by_expression(self, db):
        assert_engines_agree(
            db, "SELECT x, y FROM r ORDER BY x * 2 + 1, id"
        )

    def test_order_by_dropped_column(self, db):
        assert_engines_agree(db, "SELECT x FROM r ORDER BY y, id")

    def test_order_by_alias(self, db):
        assert_engines_agree(
            db, "SELECT x + 1 AS xx, id FROM r ORDER BY xx, id"
        )

    def test_mixed_directions(self, db):
        assert_engines_agree(
            db, "SELECT name, x, id FROM r ORDER BY name ASC, x DESC, id"
        )


class TestLimit:
    def test_limit(self, db):
        rows = assert_engines_agree(
            db, "SELECT id FROM r ORDER BY id LIMIT 7"
        )
        assert len(rows) == 7

    def test_limit_offset(self, db):
        rows = assert_engines_agree(
            db, "SELECT id FROM r ORDER BY id LIMIT 5 OFFSET 10"
        )
        assert rows[0] == (10,)

    def test_limit_larger_than_result(self, db):
        assert_engines_agree(
            db, "SELECT id FROM r WHERE x > 45 ORDER BY id LIMIT 100000"
        )

    def test_limit_after_group(self, db):
        assert_engines_agree(db, """
            SELECT x, COUNT(*) FROM r GROUP BY x ORDER BY x LIMIT 3
        """)


class TestComposite:
    """Full query shapes exercising several operators together."""

    def test_join_group_sort_limit(self, db):
        assert_engines_agree(db, """
            SELECT r.name, SUM(s.v) AS total, COUNT(*) AS n
            FROM r, s
            WHERE r.id = s.rid AND r.price > 50
            GROUP BY r.name
            HAVING COUNT(*) > 1
            ORDER BY total DESC, r.name
            LIMIT 4
        """)

    def test_two_joins(self, db):
        assert_engines_agree(db, """
            SELECT COUNT(*)
            FROM r, s AS s1, s AS s2
            WHERE r.id = s1.rid AND r.id = s2.rid AND r.x > 30
        """)

    def test_dates_and_decimals(self, db):
        assert_engines_agree(db, """
            SELECT EXTRACT(YEAR FROM d) AS yr,
                   SUM(price * (1 - 0.1)) AS discounted
            FROM r
            WHERE d >= DATE '1993-06-01' - INTERVAL '6' MONTH
            GROUP BY EXTRACT(YEAR FROM d)
            ORDER BY yr
        """)
