"""Each module's __all__ against what the module defines and the package re-exports."""

import importlib
import inspect
import pkgutil

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
