"""Source hygiene: no module in the package imports a name it never uses,
no private helper goes unused (a module-level name, a method or an
attribute a class sets on self), and no parameter default is left to every
caller: an option that no call sets is a constant.

A name listed in the module's `__all__` counts as used: that is how
`__init__.py` re-exports.
"""

import ast
import math
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "algcpd").glob("*.py"))


def unused_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_check_sees_an_unused_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("from __future__ import annotations\nimport os, sys\nfrom typing import List\n"
                   "from json import dumps, loads\n__all__ = ['dumps']\n"
                   "def f(x: List[int]):\n    return sys.argv\n")
    assert unused_imports(mod) == [(2, "os"), (4, "loads")]


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_definitions(tree):
    """(label, name, line, own) for each private name tree defines: the
    module-level functions, classes and assignments, and in each class the
    methods and the attributes its methods set on self, labelled
    Class.name. own holds the ids of the defining nodes, which read nothing:
    the whole function, class or assignment, or each store to self.name."""
    top = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in filter(_private, names):
            top[name] = (name, name, node.lineno, {id(n) for n in ast.walk(node)})
    out = list(top.values())
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        stores = {}  # attribute name: its stores to self, in order
        for node in cls.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if _private(node.name):
                own = {id(n) for n in ast.walk(node)}
                out.append((f"{cls.name}.{node.name}", node.name, node.lineno, own))
            for n in ast.walk(node):
                if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                        and isinstance(n.value, ast.Name) and n.value.id == "self"
                        and _private(n.attr)):
                    stores.setdefault(n.attr, []).append(n)
        for name, nodes in stores.items():
            out.append((f"{cls.name}.{name}", name, nodes[0].lineno, {id(n) for n in nodes}))
    return out


def unreferenced_privates(paths):
    """(file, line, label) for each private name of paths (see
    private_definitions) that no AST node of paths reads, leaving out the
    nodes of its own definition: a load of the name, a load of an attribute
    of that name, or an import of it."""
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    refs = []  # (name, node)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
                continue
            if isinstance(node, ast.Name):
                refs.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, node))
            elif isinstance(node, ast.ImportFrom):
                refs.extend((a.name, node) for a in node.names)
    dead = []
    for path, tree in trees.items():
        for label, name, line, own in private_definitions(tree):
            if not any(n == name and id(node) not in own for n, node in refs):
                dead.append((path.name, line, label))
    return sorted(dead)


def test_no_unreferenced_private_helpers():
    assert unreferenced_privates(SRC) == []


def test_check_sees_an_unreferenced_private(tmp_path):
    a = tmp_path / "a.py"
    a.write_text("_LIMIT = 3\n_dead = 0\n_dead = 1\n"
                 "def _used(x):\n    return x < _LIMIT\n"
                 "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
                 "class _Shape:\n    pass\n"
                 "def public():\n    return _used(1)\n")
    b = tmp_path / "b.py"
    b.write_text("from a import _Shape\nimport a\n_ALIAS = a._LIMIT\nprint(_ALIAS)\n")
    assert unreferenced_privates([a, b]) == [("a.py", 3, "_dead"), ("a.py", 6, "_recursive")]
    assert unreferenced_privates([a]) == [("a.py", 3, "_dead"), ("a.py", 6, "_recursive"),
                                          ("a.py", 8, "_Shape")]


def test_check_sees_an_unreferenced_private_member(tmp_path):
    """A private method or self attribute that nothing reads is dead; a
    store, an augmented store or a call from inside the method itself is
    not a read."""
    a = tmp_path / "a.py"
    a.write_text("class Box:\n"
                 "    def __init__(self):\n"
                 "        self._size = 1\n        self._count = 0\n        self._seen = 0\n"
                 "    def add(self):\n"
                 "        self._count += 1\n        self._seen = self._size\n"
                 "        return self._grow()\n"
                 "    def _grow(self):\n        return 2\n"
                 "    def _spin(self, n):\n        return self._spin(n - 1) if n else 0\n"
                 "def peek(box):\n    return box._seen\n")
    assert unreferenced_privates([a]) == [("a.py", 4, "Box._count"), ("a.py", 12, "Box._spin")]


CALLERS = SRC + sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"))
# parameters with a default that no call in the package or perfbench passes,
# kept on purpose: {"module.function.parameter": reason}
UNSET_DEFAULTS_KEPT = {
    "_exact.Polynomial.__init__.coeffs": "the public constructor; the package builds its own polynomials from integer numerators",
    "cli.main.argv": "the console script reads sys.argv; tests pass the arguments",
    "runtime.StreamDetector.__init__.t0": "mirrors t0 of the batch detect(); tests check the two agree",
}


def _defaulted(fn, method: bool):
    """(positional index or None, name) of each parameter of fn with a
    default; the index counts what a call passes positionally, so self or
    cls is left out of a method's."""
    a = fn.args
    positional = a.posonlyargs + a.args
    skip = 1 if method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list) else 0
    first = len(positional) - len(a.defaults)
    out = [(i - skip, p.arg) for i, p in enumerate(positional) if i >= first]
    out += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def unset_defaults(paths, callers):
    """module.function.parameter for each parameter with a default, of a
    function or method defined in paths, that no call in callers passes.
    Calls match by the called name alone (a class name calls its __init__);
    a call with *args or **kwargs passes every parameter."""
    calls = {}  # name: [(positional count, keyword names)]; (inf, None) passes all
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if any(isinstance(x, ast.Starred) for x in node.args) or any(
                    k.arg is None for k in node.keywords):
                calls.setdefault(name, []).append((math.inf, None))
            else:
                calls.setdefault(name, []).append((len(node.args), {k.arg for k in node.keywords}))
    unset = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        defs = [(n, None) for n in tree.body]
        defs += [(n, c) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for n in c.body]
        for fn, cls in defs:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            called = cls.name if cls is not None and fn.name == "__init__" else fn.name
            qual = fn.name if cls is None else f"{cls.name}.{fn.name}"
            for index, param in _defaulted(fn, cls is not None):
                if not any(
                    keys is None or param in keys or (index is not None and index < n)
                    for n, keys in calls.get(called, ())
                ):
                    unset.append(f"{path.stem}.{qual}.{param}")
    return sorted(unset)


def test_every_default_is_set_by_some_caller():
    """An option no caller sets is a constant: each parameter default in the
    package is passed by some call in the package or perfbench, or is kept
    in UNSET_DEFAULTS_KEPT with its reason."""
    assert unset_defaults(SRC, CALLERS) == sorted(UNSET_DEFAULTS_KEPT)


def test_check_sees_an_unset_default(tmp_path):
    a = tmp_path / "a.py"
    a.write_text("def f(x, y=1, *, z=2):\n    return x + y + z\n"
                 "def g(x, y=1, z=2):\n    return x\n"
                 "def h(x=0, y=1):\n    return x\n"
                 "class Box:\n"
                 "    def __init__(self, n=1, m=2):\n        self.n = n\n"
                 "    def grow(self, k=1):\n        return k\n"
                 "    @staticmethod\n    def make(n=1):\n        return Box(n)\n"
                 "print(f(0, z=3), g(0, 1), h(*()), Box().grow(2))\n")
    b = tmp_path / "b.py"
    b.write_text("import a\nprint(a.Box.make(), a.f(1, **{}))\n")
    assert unset_defaults([a], [a]) == ["a.Box.__init__.m", "a.Box.make.n", "a.f.y", "a.g.z"]
    assert unset_defaults([a], [a, b]) == ["a.Box.__init__.m", "a.Box.make.n", "a.g.z"]
