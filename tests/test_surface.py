"""The public surface: every exported name resolves, and the package's
``__all__`` is exactly what it re-exports."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import kantorovich

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(kantorovich.__path__)
                    if m.name != "__main__")


def _all_of(module):
    names = module.__all__
    assert len(names) == len(set(names)), "duplicate names in __all__"
    return names


def test_package_all_resolves():
    for name in _all_of(kantorovich):
        assert hasattr(kantorovich, name), name


@pytest.mark.parametrize("modname", SUBMODULES)
def test_submodule_all_resolves(modname):
    module = importlib.import_module(f"kantorovich.{modname}")
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"kantorovich.{modname}.{name}"


def test_package_all_is_its_reexports():
    exported = {name for name in dir(kantorovich) if not name.startswith("_")
                and not inspect.ismodule(getattr(kantorovich, name))}
    assert set(_all_of(kantorovich)) == exported | {"__version__"}


@pytest.mark.parametrize("modname", SUBMODULES)
def test_no_private_name_crosses_modules(modname):
    # A private name stays in its module: no relative import of a sibling
    # module names one.
    source = pathlib.Path(kantorovich.__path__[0], f"{modname}.py")
    tree = ast.parse(source.read_text(encoding="utf-8"))
    crossed = [f"{node.module}.{alias.name}"
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names if alias.name.startswith("_")]
    assert crossed == []


def test_package_exports_are_their_submodules_objects():
    for name in _all_of(kantorovich):
        if name != "__version__":
            value = getattr(kantorovich, name)
            home = importlib.import_module(value.__module__)
            assert getattr(home, name) is value, name


def test_lazy_submodules_resolve_after_a_bare_import():
    code = """
import sys, types
import kantorovich
for name in ("lmi", "boundary", "function"):
    assert f"kantorovich.{name}" not in sys.modules, name
    module = getattr(kantorovich, name)
    assert isinstance(module, types.ModuleType), name
    assert module is sys.modules[f"kantorovich.{name}"], name
"""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_dir_and_star_import_cover_all():
    assert set(_all_of(kantorovich)) <= set(dir(kantorovich))
    namespace = {}
    exec("from kantorovich import *", namespace)
    for name in _all_of(kantorovich):
        assert namespace[name] is getattr(kantorovich, name), name


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="no_such_name"):
        kantorovich.no_such_name  # noqa: B018
