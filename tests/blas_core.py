"""The OpenBLAS core numpy runs on, for the failure messages of the tests
that pin bits: the golden files and the digests in test_measure.py and
test_tomography.py were made under PINNED_CORE, and another core (set by
the CPU, or by OPENBLAS_CORETYPE) may sum in another order and move the
last bits. Read with ctypes from the OpenBLAS library bundled with numpy."""

import ctypes
from pathlib import Path

import numpy as np

PINNED_CORE = "SkylakeX"


def bundled_libraries() -> list:
    """The OpenBLAS libraries a numpy wheel bundles, in numpy.libs."""
    return sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                  .glob("*openblas*"))


def core_name() -> str:
    """The name OpenBLAS gives the core it picked, or 'unknown' when numpy
    bundles no OpenBLAS library that reports one (numpy 2's scipy-openblas
    names its getter scipy_openblas_get_corename64_)."""
    for path in bundled_libraries():
        getter = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if getter is not None:
            getter.restype = ctypes.c_char_p
            return getter().decode()
    return "unknown"


def pin_note() -> str:
    """A failure message naming this process's OpenBLAS core."""
    return f"OpenBLAS core {core_name()}; the pins were made under {PINNED_CORE}"
