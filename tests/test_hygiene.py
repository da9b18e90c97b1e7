"""Import hygiene of the package, read from its source with ``ast``.

No module imports a name it never uses, and the package ``__init__``
imports exactly the names it exports in ``__all__``.
"""
import ast
from pathlib import Path

import pytest

import nanojunction

MODULES = sorted(Path(nanojunction.__file__).parent.glob("*.py"))


def _imported(tree: ast.Module) -> set:
    """Names bound by the module's imports, ``__future__`` excepted."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


def _used(tree: ast.Module) -> set:
    """Names the module reads, counting the strings of its ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[m.name for m in MODULES])
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text())
    assert sorted(_imported(tree) - _used(tree)) == []


def test_init_imports_exactly_the_exported_names():
    tree = ast.parse(Path(nanojunction.__file__).read_text())
    assert _imported(tree) == set(nanojunction.__all__)
    assert len(nanojunction.__all__) == len(set(nanojunction.__all__))
