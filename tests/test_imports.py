"""No module of the package imports a name it never uses, no function
imports anything, no private helper is left unused, and no module
exports a name it does not have.

No linter ships with the project, so this reads each module's syntax
tree: a name bound by a module-level ``import`` or ``from ... import``
must be read somewhere in that module or be listed in its ``__all__``,
every import sits at module level, every private module-level
function, class or assigned name, and every private method of a
module-level class, is referenced somewhere in the package outside its
own definition, and
every name in a module's ``__all__`` is defined or imported at the
module's top level.  No module imports ``dataclasses``, and importing
the package loads neither it nor ``inspect``.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dbnet"


def _all_of(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _imported(tree) -> set:
    """Names bound by the module-level imports of ``tree``."""
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return imported


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(_imported(tree) - read - set(_all_of(tree)))


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from typing import List, Set\n"
        "x: Set = set()\n"
        "__all__ = ['List']\n"
    )
    assert unused_imports(source) == ["os", "osp"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def function_local_imports(source: str) -> list:
    """``(function name, line)`` of every import inside a function body."""
    hits = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    hits.add((getattr(fn, "name", "<lambda>"), node.lineno))
    return sorted(hits, key=lambda hit: (hit[1], hit[0]))


def test_the_check_finds_a_function_local_import():
    source = (
        "import os\n"
        "def f():\n"
        "    import json\n"
        "    class C:\n"
        "        def g(self):\n"
        "            from os import path\n"
        "    return json, C\n"
    )
    assert function_local_imports(source) == [("f", 3), ("f", 6), ("g", 6)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_local_imports(path):
    assert function_local_imports(path.read_text(encoding="utf-8")) == []


def _mentions(tree) -> Counter:
    """How often each name is mentioned in ``tree``: as a name, an
    attribute or an imported name."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
    return found


def _private_name(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private(node) -> bool:
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and _private_name(node.name))


def _private_assigned(node) -> list:
    """The private names that a module-level assignment ``node`` binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for target in targets for n in ast.walk(target)
            if isinstance(n, ast.Name) and _private_name(n.id)]


def unreferenced_private_definitions(sources: dict) -> list:
    """``(module, name)`` of every module-level ``def _name``, ``class
    _name`` or ``_name = ...``, and ``(module, "Class._name")`` of every
    ``def _name`` in the body of a module-level class, in ``sources``
    (module -> source text) that no code of any module mentions outside
    the definition itself."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum((_mentions(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        found = [(node, node.name) for node in tree.body if _private(node)]
        found.extend((node, name) for node in tree.body for name in _private_assigned(node))
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                found.extend((node, f"{cls.name}.{node.name}") for node in cls.body
                             if _private(node) and not isinstance(node, ast.ClassDef))
        for node, name in found:
            short = name.rpartition(".")[2]
            if everywhere[short] == _mentions(node)[short]:
                unused.append((module, name))
    return sorted(unused)


def test_the_check_finds_an_unreferenced_private_definition():
    sources = {
        "a": ("def _used(): return 1\ndef _loop(): return _loop()\nclass _Gone: pass\n"
              "class C:\n    def _called(self): return self._rec()\n"
              "    def _rec(self): return self._rec()\n    def _idle(self): pass\n"
              "    def __len__(self): return 0\n"
              "_KEPT = 1\n_SPARE, (_PAIR, __dunder__) = 2, (3, 4)\n_NOTE: int = _KEPT\n"),
        "b": "from a import _used, C, _PAIR\n_used()\nC()._called()\n",
    }
    assert unreferenced_private_definitions(sources) == [
        ("a", "C._idle"), ("a", "_Gone"), ("a", "_NOTE"), ("a", "_SPARE"), ("a", "_loop"),
    ]


def test_every_private_definition_is_referenced():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unreferenced_private_definitions(sources) == []


def missing_exports(source: str) -> list:
    """Names listed in the module's ``__all__`` that no top-level
    definition, assignment or import of the module binds."""
    tree = ast.parse(source)
    bound = _imported(tree)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                bound.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return sorted(set(_all_of(tree)) - bound)


def test_the_check_finds_a_missing_export():
    source = (
        "from os import path\n"
        "import json as js\n"
        "X, (Y, Z) = 1, (2, 3)\n"
        "T: int = 0\n"
        "def f(): pass\n"
        "class C: pass\n"
        "__all__ = ['path', 'js', 'X', 'Z', 'T', 'f', 'C', 'FlatState', 'json']\n"
    )
    assert missing_exports(source) == ["FlatState", "json"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_exported_name_is_bound(path):
    assert missing_exports(path.read_text(encoding="utf-8")) == []


def imports_of(source: str) -> set:
    """The top-level names of every module that ``source`` imports,
    anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
    return found


def test_the_check_finds_every_import():
    source = "import os.path\nfrom json import dumps\nfrom . import lts\ndef f():\n    import re\n"
    assert imports_of(source) == {"os", "json", "re"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    # records derive from dbnet.record.Record, which compiles no code at import
    assert "dataclasses" not in imports_of(path.read_text(encoding="utf-8"))


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    probe = "import sys, dbnet; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"
