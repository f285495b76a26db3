"""Every module-level import in the package is used."""

import ast
from pathlib import Path

import pytest

import openkpz

PACKAGE = Path(openkpz.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def unused_imports(source: str):
    """Names bound by top-level imports that the module never reads.

    A name listed in ``__all__`` counts as read (a re-export).
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [(1, "os")]
