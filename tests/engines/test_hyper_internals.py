"""Unit tests of the HyPer engine's HIR, passes, and library."""

import pytest

from repro.costmodel import Profile
from repro.engines.hyper import HyperRuntimeLibrary
from repro.engines.hyper.compile import (
    compile_o0,
    compile_o2,
    common_subexpressions,
    constant_propagation,
    copy_propagation,
    dead_code_elimination,
    linear_scan_allocate,
)
from repro.engines.hyper.hir import (
    BytecodeInterpreter,
    HirFunction,
    flatten_to_bytecode,
    int_div,
    int_rem,
)
from repro.plan.exprs import Aggregate, Slot
from repro.sql import types as T


def run_function(func, args=(), columns=None, library=None, mode="interp",
                 profile=None):
    results = []
    if mode == "interp":
        interp = BytecodeInterpreter(columns or [], library, results,
                                     profile)
        interp.run(flatten_to_bytecode(func), func.n_registers, args)
    else:
        compiled = compile_o0(func) if mode == "o0" else compile_o2(func)
        fn = compiled.bind(columns or [], library, results, profile)
        fn(*args)
    return results


def simple_sum_function():
    """sum 0..n-1 into a result row: f(begin=ignored, n)."""
    return HirFunction("f", 2, 6, [
        ("const", 2, 0),            # i = 0
        ("const", 3, 0),            # acc = 0
        ("loop", [
            ("bin", ">=", 4, 2, 1, "i64"),
            ("if", 4, [("break", 0)], []),
            ("bin", "+", 3, 3, 2, "i64"),
            ("const", 5, 1),
            ("bin", "+", 2, 2, 5, "i64"),
        ]),
        ("result", [3]),
        ("ret",),
    ])


class TestSemantics:
    @pytest.mark.parametrize("mode", ["interp", "o0", "o2"])
    def test_loop_sum(self, mode):
        results = run_function(simple_sum_function(), (0, 10), mode=mode)
        assert results == [(45,)]

    def test_int_div_truncates(self):
        assert int_div(-7, 2) == -3
        assert int_div(7, -2) == -3
        assert int_rem(-7, 2) == -1

    def test_interp_counts_dispatch(self):
        profile = Profile()
        run_function(simple_sum_function(), (0, 100), profile=profile)
        assert profile.interp_dispatch > 400

    def test_bytecode_if_else(self):
        func = HirFunction("g", 1, 4, [
            ("const", 1, 10),
            ("bin", ">", 2, 0, 1, "i64"),
            ("if", 2, [("const", 3, 111)], [("const", 3, 222)]),
            ("result", [3]),
            ("ret",),
        ])
        assert run_function(func, (50,)) == [(111,)]
        assert run_function(func, (5,)) == [(222,)]


class TestPasses:
    def test_constant_propagation_folds(self):
        body = [
            ("const", 1, 6),
            ("const", 2, 7),
            ("bin", "*", 3, 1, 2, "i64"),
            ("result", [3]),
        ]
        out = constant_propagation(body)
        assert ("const", 3, 42) in out

    def test_constant_propagation_resets_at_loops(self):
        body = [
            ("const", 1, 5),
            ("loop", [
                ("bin", "+", 1, 1, 1, "i64"),  # mutates r1
                ("break", 0),
            ]),
            ("bin", "+", 2, 1, 1, "i64"),  # must NOT fold to 10
            ("result", [2]),
        ]
        out = constant_propagation(body)
        assert ("const", 2, 10) not in out

    def test_copy_propagation(self):
        body = [
            ("const", 1, 3),
            ("mov", 2, 1),
            ("bin", "+", 3, 2, 2, "i64"),
            ("result", [3]),
        ]
        out = copy_propagation(body)
        bins = [i for i in out if i[0] == "bin"]
        assert bins[0][3] == 1 and bins[0][4] == 1

    def test_cse_reuses_computation(self):
        body = [
            ("bin", "*", 2, 0, 0, "i64"),
            ("bin", "*", 3, 0, 0, "i64"),
            ("bin", "+", 4, 2, 3, "i64"),
            ("result", [4]),
        ]
        out = common_subexpressions(body)
        movs = [i for i in out if i[0] == "mov"]
        assert movs == [("mov", 3, 2)]

    def test_dce_removes_unused(self):
        func = HirFunction("f", 1, 5, [])
        body = [
            ("bin", "*", 2, 0, 0, "i64"),  # used
            ("bin", "+", 3, 0, 0, "i64"),  # dead
            ("result", [2]),
        ]
        out = dead_code_elimination(func, body)
        assert ("bin", "+", 3, 0, 0, "i64") not in out
        assert ("bin", "*", 2, 0, 0, "i64") in out

    def test_dce_keeps_calls(self):
        func = HirFunction("f", 0, 3, [])
        body = [("call", 1, "group_entries", [0])]
        out = dead_code_elimination(func, body)
        assert out == body

    def test_o2_equals_o0_semantics(self):
        func = simple_sum_function()
        assert run_function(func, (0, 37), mode="o0") == \
            run_function(func, (0, 37), mode="o2")

    def test_register_allocation_compacts(self):
        # 50 short-lived registers should map onto far fewer slots
        body = []
        for i in range(50):
            body.append(("const", 2 + i, i))
            body.append(("result", [2 + i]))
        func = HirFunction("f", 2, 52, body)
        mapping = linear_scan_allocate(func)
        used_slots = set(mapping.values())
        assert len(used_slots) < 20

    def test_allocation_respects_loop_liveness(self):
        """A register written before and read after a loop must not share
        a slot with registers used inside it."""
        func = HirFunction("f", 1, 6, [
            ("const", 2, 99),            # live across the loop
            ("const", 3, 0),
            ("loop", [
                ("const", 4, 1),
                ("bin", "+", 3, 3, 4, "i64"),
                ("bin", ">=", 5, 3, 0, "i64"),
                ("if", 5, [("break", 0)], []),
            ]),
            ("bin", "+", 3, 3, 2, "i64"),
            ("result", [3]),
            ("ret",),
        ])
        for mode in ("interp", "o0", "o2"):
            results = run_function(func, (5,), mode=mode)
            assert results == [(104,)], mode


class TestLibrary:
    def test_group_upsert_and_entries(self):
        lib = HyperRuntimeLibrary(
            [("group", {"aggregates": [
                Aggregate("COUNT", None, T.INT64),
                Aggregate("SUM", Slot(0, T.INT64), T.INT64),
            ], "estimate": 4})],
            profile=None,
        )
        for key, value in [("a", 1), ("b", 2), ("a", 3)]:
            entry = lib.group_upsert(0, key)
            entry[0] += 1
            entry[1] += value
        entries = sorted(lib.group_entries(0))
        assert entries == [("a", 2, 4), ("b", 1, 2)]

    def test_join_insert_probe(self):
        lib = HyperRuntimeLibrary(
            [("join", {"n_keys": 1, "n_cols": 2, "estimate": 4})],
            profile=None,
        )
        lib.join_insert(0, 7, 7, 70)
        lib.join_insert(0, 7, 7, 71)
        lib.join_insert(0, 8, 8, 80)
        assert sorted(lib.join_probe(0, 7)) == [(7, 70), (7, 71)]
        assert lib.join_probe(0, 99) == []

    def test_sort_comparison_callbacks_counted(self):
        profile = Profile()
        lib = HyperRuntimeLibrary(
            [("sort", {"descending": [False], "n_cols": 1})],
            profile=profile,
        )
        for v in (5, 3, 9, 1, 7):
            lib.sort_append(0, v, v)
        rows = lib.sort_rows(0)
        assert rows == [(1,), (3,), (5,), (7,), (9,)]
        assert profile.indirect_calls > 0

    def test_sort_descending(self):
        lib = HyperRuntimeLibrary(
            [("sort", {"descending": [True], "n_cols": 1})], profile=None
        )
        for v in (5, 3, 9):
            lib.sort_append(0, v, v)
        assert lib.sort_rows(0) == [(9,), (5,), (3,)]

    def test_limit_admit(self):
        lib = HyperRuntimeLibrary(
            [("limit", {"offset": 2, "limit": 3})], profile=None
        )
        admitted = [lib.limit_admit(0) for _ in range(8)]
        assert admitted == [0, 0, 1, 1, 1, 0, 0, 0]

    def test_avg_finalize(self):
        lib = HyperRuntimeLibrary(
            [("scalar", {"aggregates": [
                Aggregate("AVG", Slot(0, T.DOUBLE), T.DOUBLE),
            ]})], profile=None,
        )
        state = lib.agg_state(0)
        state[0] += 10.0
        state[1] += 4
        assert lib.agg_entries(0) == [(2.5,)]
