"""DESIGN.md §3 names the modules of ``src/repro``; keep it true.

The section's tree is parsed by indentation: a directory line ends in
``/``, and every ``*.py`` token on a line is a file of the directory the
line sits under.  A named file that does not exist, or a package
directory the tree does not name, fails.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


def design_tree() -> tuple[set[str], set[str]]:
    """``(directories, files)`` the §3 tree names, relative to the
    package root."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## 3. System inventory", 1)[1].split("\n## ", 1)[0]
    tree = section.split("```")[1]
    directories, files = set(), set()
    stack: list[tuple[int, str]] = []   # (indent, directory) of open dirs
    for line in tree.splitlines():
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip())
        if indent >= 28:
            continue  # a description's continuation line
        names = line[:28].split()
        if len(names) == 1 and names[0].endswith("/"):
            while stack and stack[-1][0] >= indent:
                stack.pop()
            parent = stack[-1][1] if stack else ""
            path = "" if names[0] == "src/repro/" else parent + names[0]
            stack.append((indent, path))
            if path:
                directories.add(path.rstrip("/"))
            continue
        while stack and stack[-1][0] >= indent:
            stack.pop()
        for name in names:
            if re.fullmatch(r"\w+\.py", name):
                files.add(stack[-1][1] + name)
    return directories, files


def test_every_named_module_exists():
    _, files = design_tree()
    assert len(files) > 80  # the parser found the tree
    missing = sorted(f for f in files if not (PACKAGE / f).is_file())
    assert not missing, f"DESIGN.md §3 names files that do not exist: {missing}"


def test_every_package_directory_is_named():
    directories, _ = design_tree()
    actual = {
        str(init.parent.relative_to(PACKAGE))
        for init in PACKAGE.rglob("__init__.py") if init.parent != PACKAGE
    }
    assert actual - directories == set(), "directories missing from the map"
    assert directories - actual == set(), "the map names unknown directories"


def test_every_module_is_named():
    _, files = design_tree()
    actual = {
        str(path.relative_to(PACKAGE)) for path in PACKAGE.rglob("*.py")
        if path.name != "__init__.py"
    }
    assert actual - files == set(), "modules missing from the map"
