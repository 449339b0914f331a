"""Every function, class and method defined in the package is read by name
somewhere in ``src/``, ``tests/``, ``perfbench/`` or the script entry of
``pyproject.toml``.

A standard-library stand-in for a dead-code lint.  A name counts as read
where it is loaded as a name or an attribute, or where it appears as a
string (``getattr`` and the benchmark's tracer look methods up that way).
Dunders are exempt, and so are methods that override a base-class method,
which their base class calls (argparse calls ``_Parser.error``).
"""

import ast
import importlib
import pathlib
import tomllib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tracefield"


def definitions(source, namespace):
    """``(line, qualified name)`` of each module-level function and class
    and each method, except dunders and overrides.  ``namespace`` maps the
    module's class names to the class objects."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        out.append((node.lineno, node.name, node.name))
        if isinstance(node, ast.ClassDef):
            bases = namespace[node.name].__mro__[1:]
            out += [(item.lineno, f"{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("__")
                    and not any(hasattr(b, item.name) for b in bases)]
    return out


def names_read(source):
    def read(n):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            return n.id
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            return n.attr
        if isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and n.value.isidentifier():
            return n.value
        return None
    return {read(n) for n in ast.walk(ast.parse(source))} - {None}


def unused(source, namespace, read):
    return [(line, qual) for line, qual, name in definitions(source, namespace)
            if name not in read]


def test_detects_an_unused_definition():
    source = ("class Base:\n    def hook(self): pass\n\n"
              "class Kind(Base):\n    def __init__(self): pass\n"
              "    def hook(self): pass\n    def spare(self): pass\n"
              "    def used(self): pass\n\n"
              "def helper(): pass\n\ndef orphan(): pass\n")
    namespace = {}
    exec(source, namespace)
    read = names_read("Kind().used()\nhelper()\ngetattr(Base, 'hook')\n")
    assert unused(source, namespace, read) == [(7, "Kind.spare"),
                                               (12, "orphan")]


def test_package_definitions_are_read():
    sources = [p.read_text() for d in ("src", "tests", "perfbench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    read = set().union(*map(names_read, sources))
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())
    read |= {entry.rsplit(":", 1)[1]
             for entry in scripts["project"]["scripts"].values()}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"tracefield.{path.stem}")
        found += [(path.name, line, qual) for line, qual in
                  unused(path.read_text(), vars(module), read)]
    assert found == []
