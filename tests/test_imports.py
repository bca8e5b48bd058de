"""Every name a library module imports is read somewhere in that module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bmop"
MODULES = sorted(f for f in SRC.glob("*.py") if f.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list:
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_no_unused_imports():
    assert MODULES
    unused = {f.name: names for f in MODULES
              if (names := _unused_imports(ast.parse(f.read_text())))}
    assert unused == {}


def _private_definitions(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _reads(tree: ast.Module) -> set:
    """Names loaded, attributes read and names imported anywhere in the module."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_no_unread_private_names():
    # a private helper whose last caller is gone would otherwise linger
    trees = [ast.parse(f.read_text()) for f in SRC.glob("*.py")]
    read = set().union(*map(_reads, trees))
    defined = set().union(*map(_private_definitions, trees))
    assert sorted(defined - read) == []
