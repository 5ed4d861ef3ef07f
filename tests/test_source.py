"""Source hygiene: every name a package module imports is used in that module,
every function, class and method it defines has a caller outside the tests,
and every defaulted parameter is passed by some call outside the tests."""

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


def _defaulted(function: ast.FunctionDef) -> list[str]:
    args = function.args
    positional = [*args.posonlyargs, *args.args]
    return ([a.arg for a in positional[len(positional) - len(args.defaults):]]
            + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def _passed(function: ast.FunctionDef, call: ast.Call, bound: bool) -> set[str]:
    """Parameters of `function` that `call` passes; a bound call skips the first."""
    args = function.args
    positional = [a.arg for a in [*args.posonlyargs, *args.args]][bound:]
    out = set()
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            out.update(positional[i:])
            break
        out.update(positional[i:i + 1])
    for keyword in call.keywords:
        if keyword.arg is None:
            out.update(positional)
            out.update(a.arg for a in args.kwonlyargs)
        else:
            out.add(keyword.arg)
    return out


def _calls(tree: ast.Module) -> list[tuple[str, bool, ast.Call]]:
    """(callee name, whether it is called on an object, call) for each call,
    seen through `import ... as` aliases and local names bound to an attribute
    (`reject = self._reject`)."""
    imported, attributes = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.update((a.asname, a.name) for a in node.names if a.asname)
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)
              and isinstance(node.value, ast.Attribute)):
            attributes[node.targets[0].id] = node.value.attr
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute):
            out.append((node.func.attr, True, node))
        elif isinstance(node.func, ast.Name):
            name = node.func.id
            if name in attributes:
                out.append((attributes[name], True, node))
            else:
                out.append((imported.get(name, name), False, node))
    return out


def uncalled_defaults(package: dict[str, str], callers: list[str]) -> list[str]:
    """Defaulted parameters of the package's functions and methods that no call
    passes, by position, by keyword or through `*`/`**`.

    Callees are matched by name, so a call reaches every definition of that
    name; a call to a class reaches its `__init__`. package maps module
    name -> source, and callers are the sources of code outside the package.
    """
    trees = {module: ast.parse(source) for module, source in package.items()}
    calls = [c for tree in [*trees.values(), *map(ast.parse, callers)] for c in _calls(tree)]
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, _METHODS):
                targets = [(node.name, node, None)]
            elif isinstance(node, ast.ClassDef):
                targets = [(f"{node.name}.{m.name}", m, node.name)
                           for m in node.body if isinstance(m, _METHODS)]
            else:
                continue
            for qualname, function, owner in targets:
                passed = set()
                for name, on_object, call in calls:
                    # A method called on an object is bound; a function
                    # called through its module (`cli.main(argv)`) is not.
                    if name == function.name and (on_object or owner is None):
                        passed |= _passed(function, call, on_object and owner is not None)
                    elif function.name == "__init__" and name == owner:
                        passed |= _passed(function, call, True)
                found += [f"{module}: {qualname}.{p}" for p in _defaulted(function)
                          if p not in passed]
    return sorted(found)


def test_scanner_finds_an_uncalled_default():
    package = {"box": ("class Box:\n"
                       "    def __init__(self, size=1):\n"
                       "        self.size = size\n"
                       "    def _put(self, x, at=0, *, strict=False):\n"
                       "        return x\n"
                       "    def fill(self, xs):\n"
                       "        put = self._put\n"
                       "        return [put(x, 1) for x in xs]\n"
                       "def make(n, label='', unused=None):\n"
                       "    return Box(size=n)\n")}
    caller = ("from box import Box, make as build\n"
              "build(3, label='x')._put(1, strict=True)\n"
              "Box(2).fill([1])\n")
    assert uncalled_defaults(package, [caller]) == ["box: make.unused"]


def test_every_default_is_passed_by_a_caller():
    package = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    callers = [path.read_text(encoding="utf-8") for path in CALLERS]
    assert uncalled_defaults(package, callers) == []
