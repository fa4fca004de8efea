"""Every imported name is read somewhere in its module, and every private
module-level function or class in ``src/`` is read by some ``src/`` module.

Package ``__init__`` modules are exempt from the first check: their imports
are the re-exported public names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")
SRC = sorted((ROOT / "src").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read]


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == \
        ["math (line 1)", "path (line 2)"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: ".".join(p.relative_to(ROOT).with_suffix("").parts))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source: str) -> set[str]:
    """Module-level functions and classes named with one leading underscore."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def names_read(source: str) -> set[str]:
    """Names loaded, attributes taken and names imported from other modules."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_the_scan_sees_an_unused_private_definition():
    source = "def _used(): pass\nclass _Orphan: pass\n_used()\n"
    assert private_definitions(source) - names_read(source) == {"_Orphan"}


def test_no_unused_private_definitions():
    sources = [p.read_text() for p in SRC]
    read = set().union(*map(names_read, sources))
    unread = [(p.relative_to(ROOT).as_posix(), name) for p, source in zip(SRC, sources)
              for name in sorted(private_definitions(source) - read)]
    assert unread == []
