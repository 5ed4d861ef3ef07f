"""Source hygiene: every name a package module imports is used in that module,
and every function, class and method it defines has a caller outside the tests."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

import noai

MODULES = sorted(Path(noai.__file__).resolve().parent.glob("*.py"))
ROOT = Path(noai.__file__).resolve().parents[2]
#: Code outside the package that may call into it; the tests do not count.
CALLERS = sorted([*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])


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


_CONTAINERS = {"set", "frozenset", "dict", "list", "defaultdict", "Counter"}
_METHODS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_METHODS, ast.ClassDef)


def _is_container(value: ast.expr) -> bool:
    if isinstance(value, (ast.Set, ast.Dict, ast.List,
                          ast.SetComp, ast.DictComp, ast.ListComp)):
        return True
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in _CONTAINERS)


def _containers(tree: ast.Module) -> set[str]:
    """The targets, as source text, that the module binds to a builtin
    container: `.add` on one of them is the container's, not a package method."""
    pairs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            pairs += [(target, node.value) for target in node.targets]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            pairs.append((node.target, node.value))
    out = set()
    while pairs:
        target, value = pairs.pop()
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
            pairs += zip(target.elts, value.elts)
        elif _is_container(value):
            out.add(ast.unparse(target))
    return out


def _references(node: ast.AST, containers: set[str]) -> tuple[Counter, Counter]:
    """Bare names read under `node`, and attribute names read on anything
    but a builtin container."""
    names, attrs = Counter(), Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names[child.id] += 1
        elif (isinstance(child, ast.Attribute)
              and ast.unparse(child.value) not in containers):
            attrs[child.attr] += 1
    return names, attrs


def unreferenced(package: dict[str, str], callers: list[str]) -> list[str]:
    """Top-level functions and classes, and methods other than dunders, of the
    package's modules that nothing references outside their own definition.

    A method is referenced only as an attribute (`x.name`); a function or a
    class also as a bare name. package maps module name -> source, and
    callers are the sources of code outside the package.
    """
    trees = {module: ast.parse(source) for module, source in package.items()}
    names, attrs = Counter(), Counter()
    for tree in [*trees.values(), *map(ast.parse, callers)]:
        n, a = _references(tree, _containers(tree))
        names += n
        attrs += a
    found = []
    for module, tree in trees.items():
        containers = _containers(tree)
        for node in tree.body:
            if not isinstance(node, _DEFS):
                continue
            own_names, own_attrs = _references(node, containers)
            if (names[node.name] + attrs[node.name]
                    <= own_names[node.name] + own_attrs[node.name]):
                found.append(f"{module}: {node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if not isinstance(method, _METHODS):
                    continue
                name = method.name
                dunder = name.startswith("__") and name.endswith("__")
                if not dunder and attrs[name] <= _references(method, containers)[1][name]:
                    found.append(f"{module}: {node.name}.{name}")
    return sorted(found)


def test_scanner_finds_an_unreferenced_definition():
    package = {"box": ("class Box:\n"
                       "    def __init__(self):\n"
                       "        self.seen = set()\n"
                       "    def add(self, x):\n"
                       "        self.seen.add(x)\n"
                       "    def put(self, x):\n"
                       "        self.seen.add(x)\n"
                       "def walk(n):\n"
                       "    return walk(n - 1) if n else Box()\n")}
    caller = "from box import Box\nBox().put(1)\n"
    assert unreferenced(package, [caller]) == ["box: Box.add", "box: walk"]


def test_every_definition_has_a_caller():
    package = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    callers = [path.read_text(encoding="utf-8") for path in CALLERS]
    assert unreferenced(package, callers) == []
