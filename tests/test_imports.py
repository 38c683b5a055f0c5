"""Every name that a module of the package imports is used in it.

Each module but __init__.py (which imports to re-export) is parsed with
ast; a name bound by an import statement must occur as a name somewhere
in the module, as in `gcd(...)` or `ila.dot(...)`.  Imports from
__future__ bind nothing and are skipped."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "newton_monodromy"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(bound) - used)


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import comb, gcd\n"
        "from . import intlinalg as ila\n"
        "gcd(ila.dot((1,), (2,)), 4)\n"
    )
    assert _unused_imports(source) == ["comb", "os"]


def test_the_package_modules_are_found():
    assert {"ehrhart.py", "hodge.py", "oracles.py", "polytope.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []
