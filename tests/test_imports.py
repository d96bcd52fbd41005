"""Every name a module of the package imports is used in that module; every
name in the package's ``__all__`` exists, and every public name its
``__init__.py`` imports is listed there."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "shmlink"
# __init__.py imports names to re-export them
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


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


def test_package_all_resolves_and_lists_every_public_import():
    import shmlink

    assert [name for name in shmlink.__all__ if not hasattr(shmlink, name)] == []
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert [name for name in imported
            if not name.startswith("_") and name not in shmlink.__all__] == []
