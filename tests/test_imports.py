"""Every name a package or test module imports at module level is used in it."""

import ast
from pathlib import Path

import pytest

import nlkpp

MODULES = sorted(p for p in Path(nlkpp.__file__).resolve().parent.glob("*.py")
                 if p.name != "__init__.py") \
    + sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source):
    """Names bound by module-level imports that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_finds_dead_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom math import exp, log\n"
              "def f(x: np.ndarray):\n    return exp(x)\n")
    assert unused_imports(source) == ["log", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
