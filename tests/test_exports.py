"""Each module's __all__ against what the module defines and the package re-exports, and
the names the bench and the demos import from the package."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import argred

MODULES = [
    importlib.import_module(f"argred.{info.name}")
    for info in pkgutil.iter_modules(argred.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("mod", MODULES, ids=lambda mod: mod.__name__)
def test_all_lists_only_names_the_module_defines(mod):
    for name in mod.__all__:
        obj = getattr(mod, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == mod.__name__, f"{mod.__name__}.__all__ lists {name} from {obj.__module__}"


def test_package_reexports_only_names_in_their_module_all():
    for name, obj in vars(argred).items():
        if name.startswith("_") or not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        home = importlib.import_module(obj.__module__)
        assert name in home.__all__, f"argred re-exports {name}, missing from {home.__name__}.__all__"


_ROOT = Path(__file__).resolve().parent.parent
_SCRIPTS = sorted([*_ROOT.glob("bench/*.py"), *_ROOT.glob("demos/*.py")])


def _argred_imports(path):
    """(module, name, line) of every `from argred... import name` in the file, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "argred":
            yield from ((node.module, alias.name, node.lineno) for alias in node.names)


def test_bench_and_demo_imports_resolve():
    # the scripts are read, never run or edited: each name they import from
    # the package must still be there, wherever the package moved it
    assert _SCRIPTS
    missing = [
        f"{path.relative_to(_ROOT)}:{line}: {module}.{name}"
        for path in _SCRIPTS
        for module, name, line in _argred_imports(path)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing
