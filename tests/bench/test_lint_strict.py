"""Every TPC-H smoke query must compile to a lint-clean module.

``lint="strict"`` refuses to instantiate a module with any diagnostic
(dead store, write-only local, unreachable code, provably-OOB access),
so this suite pins the code generator to producing clean Wasm — lint
noise gets fixed in ``backend/codegen.py``, not suppressed here.
"""

import pytest

from repro.bench.tpch import QUERIES, tpch_database


@pytest.fixture(scope="module")
def db():
    return tpch_database(scale_factor=0.002, seed=1,
                         default_engine="volcano")


def strict_engine(db, **knobs):
    engine = db.engine("wasm")
    engine.lint = "strict"
    for name, value in knobs.items():
        setattr(engine, name, value)
    return engine


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_query_modules_pass_strict_lint(db, name):
    expected = db.execute(QUERIES[name], engine="volcano").rows
    engine = strict_engine(db, mode="turbofan")
    got = db.execute(QUERIES[name], engine="wasm").rows
    assert got == expected
    assert engine.lint == "strict"  # strict mode did instantiate

