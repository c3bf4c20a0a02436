"""Every name that a module of the package imports is used in that module
(the package's __init__.py imports names to re-export them), and every
private top-level helper is used somewhere in the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ltcmh"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


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


def unreferenced_helpers(sources):
    """The single-underscore top-level functions and classes that the
    sources define and none of them names, by name, attribute or import;
    dunders are not helpers."""
    trees = [ast.parse(source) for source in sources]
    defined = [node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and node.name.startswith("_")
               and not node.name.startswith("__")]
    named = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name)
    return [name for name in defined if name not in named]


def test_checker_finds_an_unused_helper():
    assert unreferenced_helpers([
        "def _called(): pass\ndef _unused(): _nested()\n"
        "class _Unused: pass\ndef __dunder__(): pass\ndef public(): pass\n",
        "from .a import _imported\nimport a\n_called(a._read_across)\n",
        "def _imported(): pass\ndef _read_across(): pass\n"
        "def f():\n    def _nested(): pass\n",
    ]) == ["_unused", "_Unused"]


def test_package_uses_every_private_helper():
    assert unreferenced_helpers(
        p.read_text(encoding="utf-8") for p in PACKAGE) == []
