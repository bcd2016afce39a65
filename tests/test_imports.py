"""Unused-import check over the package's modules, the tests and the
tools, with the standard library alone: a module-level import whose
name the module never reads fails, unless its line carries
`# noqa: F401`.  The package's `__init__.py` is left out, since its
imports are the package's exports."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "unasp"
CHECKED = ([p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
           + sorted((ROOT / "tests").glob("*.py"))
           + sorted((ROOT / "tools").glob("*.py")))


def unused_imports(source: str):
    """(line, name) of each module-level import the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[stmt.lineno - 1:stmt.end_lineno]):
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append((stmt.lineno, name))
    return unused


@pytest.mark.parametrize("module", CHECKED, ids=lambda p: (
    p.name if p.parent == SRC else f"{p.parent.name}/{p.name}"))
def test_no_unused_import(module):
    assert unused_imports(module.read_text()) == []


def test_check_finds_an_unused_import():
    source = ("import os\nimport sys  # noqa: F401\n"
              "from math import (floor,\n    ceil)\nprint(floor)\n")
    assert unused_imports(source) == [(1, "os"), (3, "ceil")]
