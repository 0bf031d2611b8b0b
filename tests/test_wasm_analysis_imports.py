"""The Wasm static analyses are the module linter's, and nobody else's.

:mod:`repro.wasm.analysis` runs only under ``lint="warn"``/``"strict"``:
no compile tier or code generator may depend on it, so the default path
never pays for an interval analysis.  The only importers allowed are the
package itself and the ``lint`` branch of ``wasm/runtime/engine.py``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
ANALYSIS = "repro.wasm.analysis"


def _imported_modules(node: ast.AST, module: str) -> list[str]:
    """The absolute module names one import statement reaches."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    base = node.module or ""
    if node.level:
        parts = module.split(".")[:-node.level]
        base = ".".join(parts + ([base] if base else []))
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def _is_lint_branch(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and "lint" in ast.unparse(node.test)


def analysis_importers() -> list[str]:
    """``path:line`` of every import of the analyses from outside the
    package, except one inside an ``if`` on the lint mode in
    ``wasm/runtime/engine.py``."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE)
        if rel.parts[:2] == ("wasm", "analysis"):
            continue
        parts = ("repro",) + rel.with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        if parts[-1] == "__init__":
            module += ".__init__"  # relative imports resolve from the package
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            names = _imported_modules(node, module)
            if not any(n == ANALYSIS or n.startswith(ANALYSIS + ".")
                       for n in names):
                continue
            if str(rel) == "wasm/runtime/engine.py":
                outer = parents.get(node)
                while outer is not None and not _is_lint_branch(outer):
                    outer = parents.get(outer)
                if outer is not None:
                    continue
            found.append(f"{rel}:{node.lineno}")
    return found


def test_only_the_lint_branch_imports_the_analyses():
    assert analysis_importers() == []


def test_the_guard_sees_the_lint_import():
    """The one allowed importer is really there (the scan is not blind)."""
    source = (PACKAGE / "wasm" / "runtime" / "engine.py").read_text()
    assert f"from {ANALYSIS} import" in source


def test_lint_off_never_loads_the_analyses():
    script = (
        "import sys\n"
        "from repro.db import Database\n"
        "db = Database()\n"
        "db.execute('CREATE TABLE t (a INT, b BIGINT)')\n"
        "db.execute('INSERT INTO t VALUES (1, 2), (3, 4)')\n"
        "for mode in ('turbofan', 'liftoff', 'adaptive_stencil'):\n"
        "    db.execute('SELECT a, SUM(b) FROM t WHERE a > 0 GROUP BY a',"
        " engine=f'wasm[{mode}]')\n"
        f"print({ANALYSIS!r} in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "False"
