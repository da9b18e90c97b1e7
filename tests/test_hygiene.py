"""Import hygiene of the package, read from its source with ``ast``.

No module imports a name it never uses, the package ``__init__`` imports
exactly the names it exports in ``__all__``, every exported name is read
by another package module or by the benchmark in ``perfbench/``, and every
public method of a package class is called there.  Importing the package
and its CLI loads neither ``scipy.special`` nor the process pool.
"""
import ast
import importlib
import os
import subprocess
import sys
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


def _foreign_results(tree: ast.Module, ours: set) -> set:
    """Names the file binds to what a call into a module outside ``ours``
    returns, as ``ap`` in ``ap = argparse.ArgumentParser()``."""
    foreign, bound = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            foreign |= {a.asname or a.name.split(".")[0] for a in node.names
                        if a.name.split(".")[0] not in ours}
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and node.module.split(".")[0] not in ours):
            foreign |= {a.asname or a.name for a in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            root = node.value.func
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in foreign:
                bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return bound


def _called(paths) -> set:
    """Attributes the files call, as in ``x.<name>(...)``, but not on an ``x``
    that holds an object of a module outside the package and these files."""
    ours = {"nanojunction"} | {p.stem for p in paths}
    called = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        foreign = _foreign_results(tree, ours)
        called |= {node.func.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and not (isinstance(node.func.value, ast.Name)
                            and node.func.value.id in foreign)}
    return called


def _overrides_foreign_base(module: str, cls: str, name: str) -> bool:
    """Whether the method overrides one of a base class outside the package,
    which then calls it (argparse calls ``_Parser.error``)."""
    bases = getattr(importlib.import_module(f"nanojunction.{module}"), cls).__mro__[1:]
    return any(name in vars(b) for b in bases if not b.__module__.startswith("nanojunction"))


def test_every_public_method_is_called_by_the_package_or_perfbench():
    """A method counts only where some ``x.<name>(...)`` call exists, a property
    where the attribute is read: a field of the same name does not count."""
    methods = {(path.stem, cls.name, fn.name):
               any(isinstance(d, ast.Name) and d.id == "property" for d in fn.decorator_list)
               for path in MODULES for cls in ast.walk(ast.parse(path.read_text()))
               if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not fn.name.startswith("_")}
    assert methods[("superop", "Liouvillian", "bordered_lu")] is False
    assert methods[("model", "ModelParams", "V")] is True
    read, called = _read(MODULES + PERFBENCH), _called(MODULES + PERFBENCH)
    unused = [f"{cls}.{name}" for (module, cls, name), prop in methods.items()
              if name not in (read if prop else called)
              and not _overrides_foreign_base(module, cls, name)]
    assert sorted(unused) == []


def test_import_loads_neither_scipy_special_nor_the_process_pool():
    """SciPy serves only the LU, and only ``--workers`` > 1 loads the pool."""
    src = str(Path(nanojunction.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, nanojunction, nanojunction.cli\n"
            "print(*sorted({'scipy.special', 'concurrent.futures.process',"
            " 'multiprocessing'} & set(sys.modules)))")
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.split() == []
