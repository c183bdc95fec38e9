"""Every name a library module imports is used, every private
module-level name is referenced, and the quadrature loads no
``scipy.linalg``.

Parses each ``src/multiarm/*.py`` with :mod:`ast` (standard library only,
nothing is imported) and lists the imported names that no expression,
annotation or ``__all__`` entry of the module refers to. ``__init__.py``
is exempt: its imports are the package's re-exports. It also lists the
private names (``_x``) a module defines at its top level that no module
of the package reads, imports or takes as an attribute, so a
simplification cannot leave a dead helper behind.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
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


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Top-level private names of ``sources`` (file name to text) that no
    module of ``sources`` refers to."""
    defined: dict[tuple[str, str], int] = {}
    used: set[str] = set()
    for file, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[file, name] = node.lineno
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [
        f"{file} line {line}: {name}"
        for (file, name), line in defined.items()
        if name not in used
    ]


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


def test_finds_unreferenced_private():
    sources = {
        "a.py": "_LIMIT = 3\n_dead = 2\ndef _helper():\n    return _LIMIT\n",
        "b.py": "from a import _helper\n_unused: int = 1\nclass _Gone: ...\n",
    }
    assert unreferenced_privates(sources) == [
        "a.py line 2: _dead",
        "b.py line 2: _unused",
        "b.py line 3: _Gone",
    ]


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def test_kernels_load_no_scipy_linalg():
    # The rules are built in numpy: a fresh interpreter that runs both
    # kernels never imports scipy.linalg (44 modules).
    script = (
        "import sys, numpy as np\n"
        "from multiarm import _quad\n"
        "_quad.normal_expect(np.array([0.5, 2.0]), np.array([0.3, -1.0]), tol=1e-10)\n"
        "_quad.gamma_sqrt_expect(np.array([0.5, 2.0]), np.array([0.3, -1.0]), 3.0, tol=1e-10)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert result.stdout.strip() == "[]"
