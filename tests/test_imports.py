"""Structural checks on the library's source: every imported name is read,
every private name is used, and one helper owns the precision escalation."""

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


def _called_name(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _announces_escalation(call: ast.Call) -> bool:
    """A warn call with PrecisionLossWarning and a message that says it escalates."""
    inner = list(ast.walk(call))
    return (_called_name(call) == "warn"
            and any(isinstance(n, ast.Name) and n.id == "PrecisionLossWarning" for n in inner)
            and any(isinstance(n, ast.Constant) and isinstance(n.value, str)
                    and "escalat" in n.value for n in inner))


def _escalation_sites(tree: ast.Module) -> set:
    """(function, call) for each bits_for call with a measured ratio and each
    warning that announces an escalation, by innermost enclosing function."""
    sites = set()

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                if _called_name(child) == "bits_for" and (
                        len(child.args) > 1 or any(k.arg == "ratio" for k in child.keywords)):
                    sites.add((fn, "bits_for"))
                elif _announces_escalation(child):
                    sites.add((fn, "warn"))
            visit(child, fn)

    visit(tree, None)
    return sites


def test_one_escalation_helper():
    # the expansions, the series and the shifts escalate through one rule;
    # a second copy of the decision or the warning would drift from it
    sites = {(f.name,) + site for f in MODULES
             for site in _escalation_sites(ast.parse(f.read_text()))}
    assert sites == {("mopoly.py", "_evaluate", "bits_for"), ("mopoly.py", "_evaluate", "warn")}
