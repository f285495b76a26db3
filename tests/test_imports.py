"""Every import and module-level private name in the package is read; heavy imports wait."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import openkpz

PACKAGE = Path(openkpz.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_imports(scope):
    """Import statements whose innermost enclosing function is ``scope``."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str):
    """Names bound by imports that their scope never reads.

    The scope of an import in a function is that function (with the functions
    nested in it); of any other import, the module.  A name listed in
    ``__all__`` counts as read (a re-export).
    """
    tree = ast.parse(source)
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {elt.value for elt in node.value.elts}
    unused = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, FUNCTIONS))]:
        bound = {}
        for node in _own_imports(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        if scope is tree:
            read |= exported
        unused += [(line, name) for name, line in bound.items() if name not in read]
    return sorted(unused)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [(1, "os")]


def test_detector_finds_an_unused_function_level_import():
    source = (
        "def f():\n    import os\n    import sys\n    return sys.argv\n\n"
        "def g():\n    from os import path\n    return os.sep\n\n"
        "def h():\n    import os\n\n    def inner():\n        return os.sep\n\n"
        "    return inner\n"
    )
    assert unused_imports(source) == [(2, "os"), (7, "path")]


def _bound(stmt):
    """Names a top-level statement defines (imports are ``unused_imports``' concern)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _read(stmt):
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def uncalled_private_names(sources):
    """Module-level ``_names`` (dunders excepted) that no statement but their own reads.

    ``sources`` maps a module label to its text; returns sorted (label, line, name).
    """
    statements = [(label, stmt) for label, text in sources.items()
                  for stmt in ast.parse(text).body]
    reads = [(stmt, _read(stmt)) for _, stmt in statements]
    return sorted(
        (label, stmt.lineno, name)
        for label, stmt in statements
        for name in _bound(stmt)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in names for other, names in reads if other is not stmt)
    )


def test_every_private_name_is_read():
    sources = {str(path.relative_to(PACKAGE)): path.read_text() for path in MODULES}
    assert uncalled_private_names(sources) == []


def test_detector_finds_an_uncalled_private_name():
    sources = {
        "a": "def _used():\n    pass\n\ndef _recursive():\n    return _recursive()\n\n_X = 1\n",
        "b": "from a import _X, _used\n_used(_X)\n__all__ = []\n",
    }
    assert uncalled_private_names(sources) == [("a", 4, "_recursive")]


# Modules a fresh import must not load: each is imported inside the function that uses it.
DEFERRED = {
    # numpy.random loads on first use, not with numpy: an evaluated annotation costs 12 ms
    "openkpz.stationary": ("concurrent.futures", "numpy.random", "scipy", "sympy"),
    "openkpz.streams": ("scipy", "sympy", "concurrent.futures", "numpy.random"),
    "openkpz.harness": ("scipy.stats", "sympy"),
    "openkpz.kernels": ("scipy.special", "sympy"),
    # exact coefficients are Poly values; sympy is only the tests' oracle
    "openkpz.treealg": ("sympy",),
    # so --help and a bad flag answer without loading them
    "openkpz.cli": ("scipy", "sympy", "concurrent.futures", "numpy.random"),
}


@pytest.mark.parametrize("module, deferred", DEFERRED.items(), ids=list(DEFERRED))
def test_import_loads_no_deferred_module(module, deferred):
    code = f"import sys, {module}; print(sorted(set({deferred!r}) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"
