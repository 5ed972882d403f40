"""Every top-level import in the package source is used, and no module
imports a sibling module's private names."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "modru"


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports of ``source`` that are never read.

    Names listed in ``__all__`` count as used; ``from __future__`` imports
    bind nothing.
    """
    tree = ast.parse(source)
    bound = {}
    used = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def private_sibling_imports(source: str) -> list[str]:
    """``_``-prefixed names that ``source`` imports, at any depth, from a
    module of the package (a relative import or one from ``modru``)."""
    return [f"{node.module}.{alias.name} (line {node.lineno})"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "modru")
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_from_sibling_modules(path):
    assert private_sibling_imports(path.read_text()) == []


def test_guard_flags_a_private_sibling_import():
    src = ("import numpy as np\nfrom .lqr import dare_solve\n"
           "def f():\n    from .lqr import _pad_gain\n"
           "from numpy import _globals\n")
    assert private_sibling_imports(src) == ["lqr._pad_gain (line 4)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_flags_an_unused_import():
    src = "import math\nimport numpy as np\n__all__ = ['math']\nx = np.pi\nimport os\n"
    assert unused_imports(src) == ["os (line 5)"]
