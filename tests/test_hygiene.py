"""Import hygiene of the package, read from its source with ``ast``.

No module imports a name it never uses, the package ``__init__`` imports
exactly the names it exports in ``__all__``, every exported name is read
by another package module or by the benchmark in ``perfbench/``, and so is
every public method of a package class.
"""
import ast
from pathlib import Path

import pytest

import nanojunction

MODULES = sorted(Path(nanojunction.__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))


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


def _read(paths) -> set:
    """Names and attributes the files load."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def test_every_exported_name_is_read_outside_init():
    read = _read([m for m in MODULES if m.name != "__init__.py"] + PERFBENCH)
    assert PERFBENCH
    assert sorted(set(nanojunction.__all__) - read) == []


def test_every_public_method_is_called_by_the_package_or_perfbench():
    methods = {f"{cls.name}.{fn.name}": fn.name
               for path in MODULES for cls in ast.walk(ast.parse(path.read_text()))
               if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not fn.name.startswith("_")}
    assert "Liouvillian.bordered_lu" in methods
    read = _read(MODULES + PERFBENCH)
    assert sorted(q for q, name in methods.items() if name not in read) == []
