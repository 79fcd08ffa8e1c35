"""The library ships only what it runs: every module-level name in
src/rolewire is exported through its module's __all__ or used elsewhere."""

import ast
from pathlib import Path

import rolewire

SRC = Path(rolewire.__file__).parent


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _defined(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each function, class and name assigned at module level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return [(name, line) for name, line in names
            if not (name.startswith("__") and name.endswith("__"))]


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _used(tree: ast.Module) -> set[str]:
    """Names read, attributes taken and names imported anywhere in `tree`."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_module_level_name_is_exported_or_used():
    trees = _trees()
    used = set().union(*map(_used, trees.values()))
    unused = []
    for module, tree in trees.items():
        exported = _exported(tree)
        unused += [f"{module}:{line} {name}" for name, line in _defined(tree)
                   if name not in exported and name not in used]
    assert unused == []
