"""Unused-import check over the package's modules, the tests and the
tools, with the standard library alone: a module-level import whose
name the module never reads fails, unless its line carries
`# noqa: F401`.  The package's `__init__.py` is left out, since its
imports are the package's exports.  Also: what `import unasp` loads."""

import ast
import os
import pathlib
import subprocess
import sys

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


def test_import_loads_no_heavy_standard_module():
    # every command pays for what `import unasp` loads; the modules it
    # adds are diffed, so that what `site` loads first does not count
    code = ("import sys\nbefore = set(sys.modules)\nimport unasp\n"
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    added = set(out.stdout.split())
    assert "unasp.solver" in added
    assert added & {"dataclasses", "inspect", "json"} == set()
