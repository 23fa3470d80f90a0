"""Every import in the package and the tests is used.

A plain `ast` scan, so the check runs wherever the tests run: each name an
import binds must be read somewhere in its module.  Modules that define
`__all__` import names to re-export them and are skipped, as are
`from __future__` imports, which bind nothing.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "hypiss").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names bound by imports in the module source and never read in it;
    empty for a module that defines __all__."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store) and node.id == "__all__":
                return []
            read.add(node.id)
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport numpy as np\nfrom os import path, sep\n"
              "print(np.pi, sep)\n")
    assert unused_imports(source) == ["math (line 2)", "path (line 4)"]
    assert unused_imports("import math\n__all__ = ['math']\n") == []
