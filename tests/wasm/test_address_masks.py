"""TurboFan masks every memory access it emits.

Every tier computes a load's or store's effective address the same way:
the Wasm i32 address plus the immediate offset, masked to 32 bits, and a
page outside the mapped space traps.  TurboFan emits the masked form for
every access, so trap behaviour is identical on every tier.  Checked on
the generated source of the five TPC-H modules and of one module per
``compile_bound`` benchmark family.
"""

import random
import re

import pytest

from benchmarks.ledger.workloads import FAMILIES, WORKLOADS
from repro.bench.tpch import QUERIES, tpch_database
from repro.db import Database
from repro.engines.base import Timings
from repro.engines.wasm_engine import WasmEngine
from repro.sql.analyzer import analyze
from repro.sql.parser import parse
from repro.wasm.runtime.pycodegen import LOAD_FMT, STORE_FMT
from repro.wasm.runtime.turbofan import TurboFanCompiler

_ADDRESS = re.compile(r"^\s*(a\d+) = (.*)$")
_PAGE = re.compile(r"_pages\[(\w+) >> 16\]")


def _module_for(db, sql):
    stmt = parse(sql)
    analyze(stmt, db.catalog)
    compiled, _ = WasmEngine().compile_query(db.plan(stmt), db.catalog,
                                             Timings())
    return compiled.module


def _memory_ops(body) -> int:
    count = 0
    for instr in body:
        op = instr[0]
        count += op in LOAD_FMT or op in STORE_FMT
        if op in ("block", "loop"):
            count += _memory_ops(instr[2])
        elif op == "if":
            count += _memory_ops(instr[2]) + _memory_ops(instr[3] or [])
    return count


def assert_every_access_masked(module):
    compiler = TurboFanCompiler(module)
    n_imports = len(module.imports)
    accesses = 0
    for i, func in enumerate(module.functions):
        source = compiler.compile(func, n_imports + i).source
        addresses = {}
        for line in source.splitlines():
            match = _ADDRESS.match(line)
            if match:
                addresses[match.group(1)] = match.group(2)
            for name in _PAGE.findall(line):
                assert addresses[name].endswith(") & 4294967295"), (
                    f"{func.name}: unmasked access address {name} = "
                    f"{addresses[name]}")
                accesses += 1
    assert accesses == sum(_memory_ops(f.body) for f in module.functions)
    assert accesses > 0


@pytest.fixture(scope="module")
def tpch():
    return tpch_database(scale_factor=0.002, seed=1,
                         default_engine="volcano")


@pytest.fixture(scope="module")
def micro():
    db = Database()
    for table in WORKLOADS["compile_bound"].tables(1):
        db.register_table(table)
    return db


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_tpch_modules_mask_every_access(tpch, name):
    assert_every_access_masked(_module_for(tpch, QUERIES[name]))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_compile_bound_modules_mask_every_access(micro, family):
    sql, _ = FAMILIES[family](random.Random(family))
    assert_every_access_masked(_module_for(micro, sql))
