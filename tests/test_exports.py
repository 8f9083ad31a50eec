"""Every name a polarot module exports resolves, and every exported
function is reached by a command or kept as library API on purpose.

perfbench's tracer wraps each function named in a module's __all__ by
getattr, so a stale entry breaks a traced benchmark run."""

import importlib
import inspect
import pkgutil
import sys
import types

import pytest

import polarot
from golden.cases import CASES, run_case
from polarot.cli import main

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


# exported functions that no command calls, each kept for a stated reason
LIBRARY_ONLY = {
    "sweeps.fit_line": "fits the paper's calibration line (acceptance criterion 8)",
    "sweeps.zero_crossing": "reads the calibration line's zero crossing "
                            "(acceptance criterion 8)",
    "tomography.write_tomo_counts": "writes tomography counts files: the tests and "
                                    "the golden tomo.csv input use it",
}


def test_every_public_function_is_reached_or_library_only(tmp_path, capsys):
    # every golden case and `polarot verify` through cli.main, with the
    # profiler on only while each command runs
    public = {}
    for name in MODULES:
        module = importlib.import_module(f"polarot.{name}")
        for attr in getattr(module, "__all__", ()):
            if inspect.isfunction(getattr(module, attr)):
                public[getattr(module, attr).__code__] = f"{name}.{attr}"
    reached = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in public:
            reached.add(public[frame.f_code])

    def traced(run):
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            return run()
        finally:
            sys.setprofile(previous)

    for name in CASES:
        assert traced(lambda: run_case(name, tmp_path / name))[0] == 0
    assert traced(lambda: main(["verify"])) == 0
    unreached = set(public.values()) - reached
    assert unreached == set(LIBRARY_ONLY), (
        f"reached by no command and not listed as library-only: "
        f"{sorted(unreached - set(LIBRARY_ONLY))}; listed but reached or gone: "
        f"{sorted(set(LIBRARY_ONLY) - unreached)}")
