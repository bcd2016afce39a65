"""Dead-definition check over the package's modules, with the standard
library alone: every top-level function, class and assigned name, and
every method whose name is not a dunder, must be read somewhere in the
package outside its own body, as a name or as an attribute.  A
definition that only the tests or `__init__.py`'s exports read fails,
unless it is on the allowlist below with its reason."""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "unasp"

ALLOWED = {
    "compare": "the paper's four orderings, public, with property tests "
               "that each preorder refines its bilattice order",
    "cycle_gain": "the paper's linearized cycle gain, public, checked "
                  "against its closed form by the acceptance tests",
    "Program.rules_for": "the traced benchmark counts its calls "
                         "(program.rules_for_calls)",
}


def _reads(node) -> collections.Counter:
    """Names and attribute names read anywhere beneath node."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
        and isinstance(n.ctx, ast.Load))


def _definitions(tree):
    """(qualified name, bare name, node) of the definitions checked."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt.name, stmt.name, stmt
        elif isinstance(stmt, ast.ClassDef):
            yield stmt.name, stmt.name, stmt
            for item in stmt.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{stmt.name}.{item.name}", item.name, item
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            for target in targets:
                for name in ast.walk(target):
                    if (isinstance(name, ast.Name)
                            and isinstance(name.ctx, ast.Store)):
                        yield name.id, name.id, stmt


def unused_definitions(sources: dict, checked=None):
    """(module, qualified name) of each definition in the checked
    modules (every one by default) that no module of sources reads
    outside the definition's own body."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    total = sum((_reads(tree) for tree in trees.values()),
                collections.Counter())
    unused = []
    for module in sorted(checked or trees):
        for qualname, name, node in _definitions(trees[module]):
            if total[name] <= _reads(node)[name]:
                unused.append((module, qualname))
    return unused


def _package_unused():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    return unused_definitions(
        sources, [name for name in sources if name != "__init__"])


def test_every_definition_is_read():
    assert [d for d in _package_unused() if d[1] not in ALLOWED] == []


def test_allowlist_is_current():
    # a name that gains a reader, or goes, leaves the allowlist
    assert sorted(name for _, name in _package_unused()) == sorted(ALLOWED)


def test_check_finds_an_unused_definition():
    source = ("def used():\n    return helper()\n"
              "def helper():\n    return 1\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class C:\n    def __repr__(self):\n        return 'C'\n"
              "    def method(self):\n        return C()\n"
              "    def called(self):\n        return 2\n"
              "LIMIT = 3\nAlias = int | None\nleft, right = 1, 2\n"
              "typed: int = 4\n"
              "print(used(), C().called(), LIMIT, right)\n")
    assert unused_definitions({"m": source}) == [
        ("m", "recursive"), ("m", "C.method"), ("m", "Alias"),
        ("m", "left"), ("m", "typed")]
