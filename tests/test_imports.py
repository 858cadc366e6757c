"""No module of the package, the tests or the scripts imports a name it never uses.

A name bound by ``import`` or ``from ... import`` counts as used when it
appears anywhere in the module as a bare name (``latnf.resonance.BLOCK`` uses
``latnf``).  Package ``__init__`` files re-export their imports and are
exempt.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path.relative_to(REPO).as_posix()
    for folder in ("src/latnf", "tests", "scripts")
    for path in (REPO / folder).glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str):
    """``(line, name)`` of each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import latnf.resonance\n"
        "from typing import Dict as D, Tuple\n"
        "def f(x: D) -> int:\n"
        "    return latnf.resonance.BLOCK + len(sys.argv)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "Tuple")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((REPO / module).read_text()) == []
