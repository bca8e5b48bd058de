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
