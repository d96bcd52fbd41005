"""Every name a module of the package imports is used in that module.

The package re-exports nothing: each name is imported from its own module, so
``__init__.py`` is held to the same rule as every other module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "shmlink"
MODULES = sorted(p.name for p in SRC.glob("*.py"))  # __init__.py too: it imports nothing


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import (``__future__`` aside) and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    # an attribute chain such as ``np.linalg.norm`` starts at a Name
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_dead_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_dead_import_is_found():
    source = "from __future__ import annotations\nimport os, socket as s\nfrom a import b, c\nc()\n"
    assert unused_imports(source) == ["os", "s", "b"]

