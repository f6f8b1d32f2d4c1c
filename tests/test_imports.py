"""No module of the package imports a name it never uses, and no
function imports anything.

No linter ships with the project, so this reads each module's syntax
tree: a name bound by a module-level ``import`` or ``from ... import``
must be read somewhere in that module or be listed in its ``__all__``,
and every import sits at module level.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dbnet"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - exported)


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
