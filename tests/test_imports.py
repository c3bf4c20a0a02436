"""Every name that a module of the package imports is used in that module
(the package's __init__.py imports names to re-export them), every private
top-level helper is used somewhere in the package, and every public
top-level function, class and method is used in the package, the
benchmarks or the demos: none is kept for the tests alone."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ltcmh"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))
USERS = sorted(p for d in ("benchmarks", "demos")
               for p in (SRC.parent.parent / d).glob("*.py"))


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


def _names(trees):
    """Every name the trees use, by name, attribute or import."""
    named = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name)
    return named


def unreferenced_helpers(sources, users=()):
    """The top-level functions and classes and the public methods that the
    sources define and nothing names, by name, attribute or import;
    dunders are not helpers. A single-underscore one must be named in the
    sources, a public one in the sources or in the `users`."""
    trees = [ast.parse(source) for source in sources]
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = []
    for node in (n for tree in trees for n in tree.body
                 if isinstance(n, defs)):
        defined.append(node.name)
        if isinstance(node, ast.ClassDef):
            defined += [m.name for m in node.body if isinstance(m, defs)
                        and not m.name.startswith("_")]
    named = _names(trees)
    used = named | _names(ast.parse(source) for source in users)
    return [name for name in defined if not name.startswith("__")
            and name not in (named if name.startswith("_") else used)]


def test_checker_finds_an_unused_helper():
    # a re-export names what it imports; a private helper named only by a
    # user, and a public name or method nothing names, are reported
    assert unreferenced_helpers([
        "def _called(): pass\ndef _unused(): _nested()\n"
        "class _Unused: pass\ndef __dunder__(): pass\ndef public(): pass\n",
        "from .a import _imported, exported\nimport a\n"
        "_called(a._read_across)\n",
        "def _imported(): pass\ndef _read_across(): pass\n"
        "def exported(): pass\ndef f():\n    def _nested(): pass\n"
        "class Used:\n    def __init__(self): pass\n"
        "    def _private(self): pass\n    def method(self): pass\n"
        "    @property\n    def called(self): pass\n"
        "Used().called\ndef _user_only(): pass\ndef for_users(): pass\n",
    ], users=["from ltcmh.c import _user_only, for_users\nfor_users()\n"]
    ) == ["_unused", "_Unused", "public", "f", "method", "_user_only"]


def test_package_uses_every_private_helper():
    # and every public function, class and method, counting the uses in
    # the benchmarks and the demos
    assert unreferenced_helpers(
        (p.read_text(encoding="utf-8") for p in PACKAGE),
        [p.read_text(encoding="utf-8") for p in USERS]) == []
