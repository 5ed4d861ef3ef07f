"""Source hygiene: every name a package module imports is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import noai

MODULES = sorted(Path(noai.__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Imported names the module never reads; `__future__` imports and
    the names listed in `__all__` do not count."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`.
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}"
            for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in used]


def test_scanner_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "from typing import Iterable, Mapping\n"
              "from .errors import UnknownCategory\n"
              "import os.path\n"
              "def f(m: Mapping) -> None:\n"
              "    os.path.join('a')\n"
              "__all__ = ['UnknownCategory']\n")
    assert unused_imports(source) == ["line 2: Iterable"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
