"""Source hygiene: every name a package module imports is used in that module,
every function, class and method it defines has a caller outside the tests,
every attribute a package class stores on `self` is read outside the tests,
every defaulted parameter is passed by some call outside the tests, the
README's library example runs as written and its spec table names every
spec key."""

from __future__ import annotations

import ast
import dataclasses
from collections import Counter
from pathlib import Path

import pytest

import noai
from conftest import REG10, random_corpus, registry_csv_text, write_corpus
from noai.synth import SynthSpec

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


def _modules(tree: ast.Module) -> set[str]:
    """The names that the module's `import` statements bind, which are
    modules: `import a.b` binds `a`, `import a.b as c` binds `c`."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names}


def _references(node: ast.AST, containers: set[str],
                modules: set[str]) -> tuple[Counter, Counter]:
    """Reads under `node` that can reach a top-level function or class, and
    attribute names read on anything but a builtin container.

    A top-level definition is read as a bare name that no import statement
    binds, or as an attribute of an imported module (`engine.noai`): a
    field declared under its name, an attribute of the same name on some
    object (`row.noai`) and a module of the same name (`noai.__file__`) are
    not reads of it."""
    defs, attrs = Counter(), Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            if isinstance(child.ctx, ast.Load) and child.id not in modules:
                defs[child.id] += 1
        elif isinstance(child, ast.Attribute):
            if ast.unparse(child.value) not in containers:
                attrs[child.attr] += 1
            if (isinstance(child.ctx, ast.Load) and isinstance(child.value, ast.Name)
                    and child.value.id in modules):
                defs[child.attr] += 1
    return defs, attrs


def unreferenced(package: dict[str, str], callers: list[str]) -> list[str]:
    """Top-level functions and classes, and methods other than dunders, of the
    package's modules that nothing references outside their own definition.

    A method is referenced as any attribute (`x.name`); a function or a
    class as `_references` reads it. package maps module name -> source, and
    callers are the sources of code outside the package.
    """
    trees = {module: ast.parse(source) for module, source in package.items()}
    defs, attrs = Counter(), Counter()
    for tree in [*trees.values(), *map(ast.parse, callers)]:
        d, a = _references(tree, _containers(tree), _modules(tree))
        defs += d
        attrs += a
    found = []
    for module, tree in trees.items():
        containers, modules = _containers(tree), _modules(tree)
        for node in tree.body:
            if not isinstance(node, _DEFS):
                continue
            if defs[node.name] <= _references(node, containers, modules)[0][node.name]:
                found.append(f"{module}: {node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if not isinstance(method, _METHODS):
                    continue
                name = method.name
                dunder = name.startswith("__") and name.endswith("__")
                if not dunder and attrs[name] <= _references(
                        method, containers, modules)[1][name]:
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


def test_scanner_does_not_take_a_namesake_for_a_caller():
    # `score` is also a field of Row, an attribute read on rows and an
    # imported module; none of them calls the function. `rows.best` does
    # call best, as an attribute of its imported module.
    package = {"rows": ("from typing import NamedTuple\n"
                        "class Row(NamedTuple):\n"
                        "    score: float\n"
                        "def score(row):\n"
                        "    return row.score\n"
                        "def best(rows):\n"
                        "    return max(r.score for r in rows)\n")}
    caller = ("import rows\nimport score\n"
              "print(rows.best([rows.Row(1.0)]), score.__file__)\n")
    assert unreferenced(package, [caller]) == ["rows: score"]


def test_every_definition_has_a_caller():
    package = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    callers = [path.read_text(encoding="utf-8") for path in CALLERS]
    assert unreferenced(package, callers) == []


def unread_attributes(package: dict[str, str], callers: list[str]) -> list[str]:
    """Attributes that a class of the package stores on `self` and that no
    code reads.

    Attributes are matched by name alone: a read of that name on any object
    counts, so an attribute is not flagged while another type's attribute
    of the same name is read somewhere (a stored `reason` would hide behind
    the reads of `UnicodeDecodeError.reason`). package maps module name ->
    source, and callers are the sources of code outside the package.
    """
    trees = {module: ast.parse(source) for module, source in package.items()}
    read = {node.attr for tree in [*trees.values(), *map(ast.parse, callers)]
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = set()
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"
                        and node.attr not in read):
                    found.add(f"{module}: {cls.name}.{node.attr}")
    return sorted(found)


def test_scanner_finds_an_unread_attribute():
    package = {"box": ("class Box:\n"
                       "    def __init__(self, size):\n"
                       "        self.size = size\n"
                       "        self.label = ''\n"
                       "        self.puts = 0\n"
                       "    def put(self, x):\n"
                       "        self.puts += 1\n"
                       "        return x\n")}
    caller = "from box import Box\nprint(Box(2).size)\n"
    assert unread_attributes(package, [caller]) == ["box: Box.label", "box: Box.puts"]


def test_every_stored_attribute_is_read():
    package = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    callers = [path.read_text(encoding="utf-8") for path in CALLERS]
    assert unread_attributes(package, callers) == []


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
    name; a call to a class reaches its `__init__` and its `__new__`.
    package maps module name -> source, and callers are the sources of code outside the package.
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
                    elif function.name in ("__init__", "__new__") and name == owner:
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
                       "    return Box(size=n)\n"
                       "class Tag(tuple):\n"
                       "    def __new__(cls, n, tag='', spare=None):\n"
                       "        return tuple.__new__(cls, (n, tag))\n")}
    caller = ("from box import Box, make as build\n"
              "build(3, label='x')._put(1, strict=True)\n"
              "Box(2).fill([1])\n"
              "Tag(1, tag='x')\n")
    assert uncalled_defaults(package, [caller]) == ["box: Tag.__new__.spare",
                                                    "box: make.unused"]


def test_every_default_is_passed_by_a_caller():
    package = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    callers = [path.read_text(encoding="utf-8") for path in CALLERS]
    assert uncalled_defaults(package, callers) == []


def readme_section(heading: str) -> str:
    """The README's text under ``## heading``, up to the next heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def library_example() -> str:
    """The python block under the README's "## Library" heading."""
    return readme_section("Library").split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # The example credits institutions, so its corpus must sign with some.
    monkeypatch.chdir(tmp_path)
    write_corpus(random_corpus(seed=7, n_records=300, institution_pool=("u1", "u2", "u3")),
                 tmp_path / "corpus.jsonl")
    (tmp_path / "registry.csv").write_text(registry_csv_text(REG10), encoding="utf-8")
    exec(compile(library_example(), "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "300 records accepted"
    assert sorted(line.split()[-1] for line in out[-3:]) == ["u1", "u2", "u3"]


def test_readme_spec_table_names_every_spec_key():
    rows = [line for line in readme_section("Synthetic corpora").splitlines()
            if line.startswith("| `")]
    keys = {row.split("`", 2)[1] for row in rows}
    assert len(keys) == len(rows)
    assert keys == {f.name for f in dataclasses.fields(SynthSpec)}


def test_console_script_is_the_module_entry():
    # `noai` and `python -m noai` must end the process the same way.
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        script = tomllib.load(fh)["project"]["scripts"]["noai"]
    tree = ast.parse((ROOT / "src" / "noai" / "__main__.py").read_text(encoding="utf-8"))
    # Names imported as `from .module import name`, as the script spells them.
    imported = {alias.asname or alias.name: f"noai.{node.module}:{alias.name}"
                for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    guard = tree.body[-1]
    assert isinstance(guard, ast.If) and ast.unparse(guard.test) == "__name__ == '__main__'"
    called = [node.func.id for node in ast.walk(guard)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert [imported.get(name) for name in called] == [script]


def test_no_exit_handler_or_finalizer():
    # The process entry ends with os._exit, which runs none of them.
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        names |= {alias.name.split(".")[0] for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert not names & {"atexit", "finalize", "__del__"}, path.name
