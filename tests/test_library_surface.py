"""The library ships only what it runs: every module-level name in
src/rolewire is exported through its module's __all__ or used elsewhere,
and every exported name is used by the library or by perfbench. Its
modules import one another at module level only."""

import ast
from pathlib import Path

import rolewire

SRC = Path(rolewire.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _defined(statements: list[ast.stmt]) -> list[tuple[str, int]]:
    """(name, line) of each function, class and name assigned by module-level
    `statements`."""
    names = []
    for node in statements:
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


def _used(tree: ast.AST) -> set[str]:
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


def _strings(tree: ast.Module) -> set[str]:
    """Each dotted part of every string constant, as in perfbench's
    ("module", "Class.method") tracing targets."""
    return {part for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for part in node.value.split(".")}


def test_every_module_level_name_is_exported_or_used():
    trees = _trees()
    used = set().union(*map(_used, trees.values()))
    unused = []
    for module, tree in trees.items():
        exported = _exported(tree)
        unused += [f"{module}:{line} {name}" for name, line in _defined(tree.body)
                   if name not in exported and name not in used]
    assert unused == []


def test_every_exported_name_is_used_by_the_library_or_perfbench():
    """A use inside the name's own definition or a re-export in
    __init__.py does not count; tests alone do not keep a name."""
    trees = _trees()
    del trees["__init__.py"]
    bench = [ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))]
    used = set().union(*map(_used, bench), *map(_strings, bench))
    for module, tree in trees.items():
        for node in tree.body:
            own = {name for name, _ in _defined([node])}
            used |= _used(node) - own
    unused = [f"{module} {name}" for module, tree in trees.items()
              for name in sorted(_exported(tree)) if name not in used]
    assert unused == []


def _imports_rolewire(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "rolewire"
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "rolewire" for alias in node.names)


def test_no_function_body_imports_a_rolewire_module():
    """An import inside a function hides a dependency (or a cycle) from the
    module's header; third-party imports there, such as scipy's `splu`,
    are allowed."""
    inner = {f"{module}:{node.lineno}" for module, tree in _trees().items()
             for func in ast.walk(tree)
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func) if _imports_rolewire(node)}
    assert inner == set()
