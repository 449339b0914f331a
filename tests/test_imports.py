"""Every module-level import in the package and its tests is used where it
is imported.

A standard-library stand-in for an unused-import lint: a name bound by a
top-level ``import`` must be read somewhere in its module or be listed in
the module's ``__all__``.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "tracefield").glob("*.py")) \
    + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported, exported = {}, set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


def test_detects_an_unused_import():
    source = "import os\nfrom json import dumps, loads\n__all__ = ['loads']\n"
    assert unused_imports(source) == [(1, "os"), (2, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []
