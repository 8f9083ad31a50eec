"""Every name a polarot module exports resolves.

perfbench's tracer wraps each function named in a module's __all__ by
getattr, so a stale entry breaks a traced benchmark run."""

import importlib
import pkgutil
import types

import pytest

import polarot

MODULES = sorted(info.name for info in pkgutil.iter_modules(polarot.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"polarot.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing, f"polarot.{name}.__all__ names missing attributes {missing}"


def test_package_exports_are_module_exports():
    # each public name of the package is one a module lists in its __all__
    listed = set()
    for name in MODULES:
        module = importlib.import_module(f"polarot.{name}")
        listed.update(id(getattr(module, attr, None))
                      for attr in getattr(module, "__all__", ()))
    stray = [attr for attr, value in vars(polarot).items()
             if not attr.startswith("_") and not isinstance(value, types.ModuleType)
             and id(value) not in listed]
    assert not stray, f"polarot exports names no module lists: {stray}"
