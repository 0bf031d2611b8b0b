"""Aggregate semantics live in one module; keep it that way.

What an aggregate kind means is its row of ``plan.exprs.AGGREGATES``.
Outside that module and the SQL front end (which parses and types the
names), no code of ``src/repro`` may spell a kind as a string literal:
a ``kind == "AVG"`` branch elsewhere is a second definition that can
drift from the table.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"
KINDS = {"COUNT", "SUM", "AVG", "MIN", "MAX"}
ALLOWED = ("plan/exprs.py", "sql/")


def kind_literals(path: Path) -> list[int]:
    """Line numbers of the aggregate-kind string literals in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in KINDS
    )


def test_aggregate_kinds_are_spelled_only_in_the_table():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()
        if relative.startswith(ALLOWED):
            continue
        offenders += [f"{relative}:{line}" for line in kind_literals(path)]
    assert not offenders, (
        "aggregate kinds dispatched outside plan/exprs.py: read "
        f"AGGREGATES instead: {offenders}"
    )


def test_the_scan_sees_the_table():
    # the guard cannot pass vacuously: it finds the table's own rows
    assert len(kind_literals(PACKAGE / "plan" / "exprs.py")) >= len(KINDS)
