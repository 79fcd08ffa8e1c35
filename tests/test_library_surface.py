"""The library ships only what it runs: every module-level name in
src/rolewire is exported through its module's __all__ or used elsewhere,
every exported name is used by the library or by perfbench, and every
public function, method and property is entered by a verb of the golden
corpus, named by perfbench or one of README's caller views. Its modules
import one another at module level only. The top level
`import rolewire as rw` carries every exported name, and the README's
library example runs against it."""

import ast
import importlib
import re
import sys
from functools import cached_property
from pathlib import Path

import rolewire
from rolewire import errors
from test_golden import run_cases

SRC = Path(rolewire.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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


# The scipy views README documents for callers; no verb reads them.
CALLER_VIEWS = {"graph.Csr.view", "graph.Graph.adjacency", "rewire.RewiredGraph.adjacency",
                "partition.QuotientPair.Q"}


def _code(obj):
    """The code object that runs when `obj` is called or read, if any."""
    if isinstance(obj, property):
        obj = obj.fget
    elif isinstance(obj, cached_property):
        obj = obj.func
    elif isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    return getattr(obj, "__code__", None)


def _public_callables() -> dict[str, tuple[str, object]]:
    """"module.name" or "module.Class.member" -> (name, code) of every
    function in a module's __all__ and every public method and property
    of an exported class that is not an exception."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"rolewire.{path.stem}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            members = ([(f"{name}.{attr}", attr, member) for attr, member in vars(obj).items()
                        if not attr.startswith("_")]
                       if isinstance(obj, type) and not issubclass(obj, BaseException)
                       else [(name, name, obj)])
            found.update((f"{path.stem}.{qualified}", (attr, _code(member)))
                         for qualified, attr, member in members if _code(member) is not None)
    return found


def test_every_public_callable_is_reached(tmp_path):
    """A public callable that no golden CLI case enters, that perfbench
    does not name and that is not a caller view is shipped for nothing."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run_cases(tmp_path)
    finally:
        sys.setprofile(None)
    bench = [ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))]
    named = set().union(*map(_used, bench), *map(_strings, bench))
    unreached = sorted(qualified for qualified, (attr, code) in _public_callables().items()
                       if code not in entered and attr not in named
                       and qualified not in CALLER_VIEWS)
    assert unreached == []


def _imports_rolewire(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "rolewire"
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "rolewire" for alias in node.names)


def test_no_function_body_imports_a_rolewire_module():
    """An import inside a function hides a dependency (or a cycle) from the
    module's header; third-party imports there, such as the scipy import
    of `graph.sparse()`, are allowed."""
    inner = {f"{module}:{node.lineno}" for module, tree in _trees().items()
             for func in ast.walk(tree)
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func) if _imports_rolewire(node)}
    assert inner == set()


def test_top_level_reexports_every_exported_name():
    """Each module's __all__ and every exception class reach the top level
    as the same objects, so `rw.X` and `rolewire.<module>.X` are one name."""
    public = {name: obj for name, obj in vars(errors).items() if isinstance(obj, type)}
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "__init__":
            module = importlib.import_module(f"rolewire.{path.stem}")
            public.update((name, getattr(module, name))
                          for name in getattr(module, "__all__", ()))
    missing = [name for name, obj in public.items()
               if getattr(rolewire, name, None) is not obj]
    assert missing == []


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    [example] = re.findall(r"^## Library\n.*?^```python\n(.*?)^```", readme,
                           flags=re.MULTILINE | re.DOTALL)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 3


def test_no_module_rebinds_a_global():
    """A `global` statement rebinds state that every caller in the process
    shares, so one call's result or memory could depend on the calls made
    before it."""
    rebinds = [f"{module}:{node.lineno}" for module, tree in _trees().items()
               for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert rebinds == []
