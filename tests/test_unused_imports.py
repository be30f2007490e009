"""Every module-level import in the library is used by its module.

No linter is assumed to be installed, so this walks each module's AST.
A name counts as used when it appears anywhere in the module as a bare
name (the root of an attribute chain is one), also inside a quoted
annotation.  `__init__` re-exports by design and `from __future__`
imports are directives, so both are exempt.
"""

import ast
import os

import pytest

import arcline

SRC = os.path.dirname(arcline.__file__)
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


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation ("Vec2") names its types inside a string
    annotations = [ann for node in ast.walk(tree)
                   for ann in (getattr(node, "annotation", None), getattr(node, "returns", None))
                   if ann is not None]
    for ann in annotations:
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_are_used(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    unused = [name for name in imported_names(tree) if name not in used_names(tree)]
    assert not unused, f"{module} imports but never uses {unused}"


def test_check_catches_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\n\n"
                     "def f(x: 'sep.Thing') -> None:\n    return 'path'\n")
    assert [n for n in imported_names(tree) if n not in used_names(tree)] == ["math", "path"]
