"""Every name that a module of the package imports is used in that module
(the package's __init__.py imports names to re-export them)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ltcmh"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names that source's import statements bind and nothing reads;
    __future__ imports bind no name."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom)
                and node.module != "__future__"):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_checker_finds_an_unused_import():
    assert unused_imports("from __future__ import annotations\n"
                          "import dataclasses\nimport os.path\n"
                          "from numpy import array as arr, zeros\n"
                          "os.path.join(zeros(1))\n") == ["dataclasses",
                                                          "arr"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
