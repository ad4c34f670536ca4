"""Source hygiene: no module in the package imports a name it never uses.

A name listed in the module's `__all__` counts as used: that is how
`__init__.py` re-exports.
"""

import ast
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
