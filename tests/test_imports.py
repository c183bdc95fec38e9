"""Every name a library module imports is used.

Parses each ``src/multiarm/*.py`` with :mod:`ast` (standard library only,
nothing is imported) and lists the imported names that no expression,
annotation or ``__all__`` entry of the module refers to. ``__init__.py``
is exempt: its imports are the package's re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "multiarm"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Imported names of ``source`` that nothing in it uses."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                elt.value for elt in getattr(node.value, "elts", ())
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_finds_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "line 1: math",
        "line 2: path",
    ]


def test_counts_annotations_and_all():
    source = (
        "from __future__ import annotations\n"
        "from typing import Sequence\n"
        "from os import sep\n"
        "__all__ = ['sep']\n"
        "def f(x: Sequence[int]) -> None: ...\n"
    )
    assert unused_imports(source) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
