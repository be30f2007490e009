"""Every module-level import in the library is used by its module,
every private helper by the library, and every public name by the
library, the benchmark or the package's exports.

No linter is assumed to be installed, so this walks each module's AST.
An import counts as used when it appears anywhere in the module as a
bare name (the root of an attribute chain is one), also inside a quoted
annotation.  `__init__` re-exports by design and `from __future__`
imports are directives, so both are exempt.  A private name, one with a
leading underscore that is not a dunder, defined at module level or as
a method, counts as used when some library module reads it: as a name,
as an attribute, through an import or in a quoted annotation.  A
public function, class, constant or method counts as used when a
library module or a file under `bench/` reads it in the same way, or,
for a module-level name, when `arcline.__all__` exports it.  What only
tests call is dead code.
"""

import ast
import os

import pytest

import arcline

SRC = os.path.dirname(arcline.__file__)
BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
MODULES = sorted(name for name in os.listdir(SRC)
                 if name.endswith(".py") and name != "__init__.py")


def imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.If):
            # `if TYPE_CHECKING:` blocks import at module level too
            body = node.body
        else:
            body = [node]
        for stmt in body:
            if isinstance(stmt, ast.Import):
                names += [(a.asname or a.name).split(".")[0] for a in stmt.names]
            elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
                names += [a.asname or a.name for a in stmt.names]
    return names


def annotation_names(tree: ast.Module) -> set[str]:
    """The names inside quoted annotations ("Vec2")."""
    names = set()
    annotations = [ann for node in ast.walk(tree)
                   for ann in (getattr(node, "annotation", None), getattr(node, "returns", None))
                   if ann is not None]
    for ann in annotations:
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return used | annotation_names(tree)


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def definitions(tree: ast.Module) -> list[tuple[str, str, bool]]:
    """(label, name, is a method) of each module-level name and method."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node.name, False))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, t.id, False) for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{m.name}", m.name, True) for m in node.body
                      if isinstance(m, ast.FunctionDef)]
    return found


def private_definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(label, name) of each private module-level name and private method."""
    return [(label, name) for label, name, _ in definitions(tree) if is_private(name)]


def public_definitions(tree: ast.Module) -> list[tuple[str, str, bool]]:
    """(label, name, is a method) of each public module-level name and
    public method; dunders are neither."""
    return [d for d in definitions(tree) if not d[1].startswith("_")]


def read_names(tree: ast.Module) -> set[str]:
    """Names the module reads: bare names and attributes not assigned to,
    names imported from other modules, and quoted annotations."""
    names = annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
    return names


def unreferenced_privates(trees: dict[str, ast.Module]) -> list[str]:
    read = set().union(*(read_names(tree) for tree in trees.values()))
    return [f"{module}: {label}" for module, tree in sorted(trees.items())
            for label, name in private_definitions(tree) if name not in read]


def unreferenced_publics(trees: dict[str, ast.Module], readers: list[ast.Module],
                         exported: set[str]) -> list[str]:
    """Public definitions in `trees` that neither `trees` nor `readers`
    read, and, for module-level names, that `exported` does not hold."""
    read = set().union(*(read_names(tree) for tree in list(trees.values()) + readers))
    return [f"{module}: {label}" for module, tree in sorted(trees.items())
            for label, name, method in public_definitions(tree)
            if name not in read and (method or name not in exported)]


def parse(module: str, folder: str = SRC) -> ast.Module:
    with open(os.path.join(folder, module), encoding="utf-8") as fh:
        return ast.parse(fh.read())


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_are_used(module):
    tree = parse(module)
    unused = [name for name in imported_names(tree) if name not in used_names(tree)]
    assert not unused, f"{module} imports but never uses {unused}"


def test_check_catches_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\n\n"
                     "def f(x: 'sep.Thing') -> None:\n    return 'path'\n")
    assert [n for n in imported_names(tree) if n not in used_names(tree)] == ["math", "path"]


def test_private_names_are_used_by_the_library():
    trees = {module: parse(module) for module in MODULES + ["__init__.py"]}
    dead = unreferenced_privates(trees)
    assert not dead, f"private names no library module reads: {dead}"


def test_check_catches_an_unused_private_name():
    trees = {"a.py": ast.parse("_LIVE = 1\n_DEAD = 2\n\n"
                               "class _Kept:\n    def _used(self):\n        return _LIVE\n"
                               "    def _dead(self):\n        self._gone = 0\n"),
             "b.py": ast.parse("from .a import _Kept\n\n"
                               "def _helper(x: '_Kept'):\n    return x._used()\n"
                               "def __getattr__(name):\n    return name\n")}
    assert unreferenced_privates(trees) == ["a.py: _DEAD", "a.py: _Kept._dead", "b.py: _helper"]


def test_public_names_are_used_by_the_library_or_the_benchmark():
    trees = {module: parse(module) for module in MODULES + ["__init__.py"]}
    bench = [parse(name, BENCH) for name in sorted(os.listdir(BENCH)) if name.endswith(".py")]
    assert bench
    dead = unreferenced_publics(trees, bench, set(arcline.__all__))
    assert not dead, f"public names only tests read: {dead}"


def test_check_catches_an_unused_public_name():
    trees = {"a.py": ast.parse("LIVE = 1\nDEAD = 2\nEXPORTED = 3\n\n"
                               "class Kept:\n    def used(self):\n        return LIVE\n"
                               "    def benched(self):\n        return 0\n"
                               "    def dead(self):\n        return 0\n"
                               "    def EXPORTED(self):\n        return 0\n"
                               "    def __repr__(self):\n        return ''\n")}
    bench = [ast.parse("from arcline.a import Kept\nKept().used()\nKept().benched()\n")]
    assert unreferenced_publics(trees, bench, {"EXPORTED"}) == \
        ["a.py: DEAD", "a.py: Kept.dead", "a.py: Kept.EXPORTED"]
