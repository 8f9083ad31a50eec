"""The numpy version, and the OpenBLAS core and the SIMD targets numpy
runs on, for the failure messages of the tests that pin bits: the golden
files and the digests in test_measure.py and test_tomography.py were made
under PINNED_NUMPY, PINNED_CORE and PINNED_TARGETS. Another numpy version
may draw its Poisson, binomial and multinomial variates by another
algorithm and move every sampled golden. Another core (set by the CPU, or
by OPENBLAS_CORETYPE) may sum in another order, and another SIMD level
(set by the CPU, or by NPY_DISABLE_CPU_FEATURES) may round a product or a
sum otherwise, and move the last bits. The core is read with ctypes from
the OpenBLAS library bundled with numpy."""

import ctypes
from pathlib import Path

import numpy as np

PINNED_NUMPY = "2.4.6"
PINNED_CORE = "SkylakeX"
PINNED_TARGETS = ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]


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


def simd_targets() -> list:
    """The SIMD targets numpy dispatches to in this process: those of its
    dispatch list that the CPU has and NPY_DISABLE_CPU_FEATURES leaves on
    ([] at numpy's baseline)."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [t for t in __cpu_dispatch__ if __cpu_features__[t]]


def pin_note() -> str:
    """A failure message naming this process's numpy version, OpenBLAS
    core and numpy SIMD targets."""
    return (f"numpy {np.__version__}, OpenBLAS core {core_name()}, numpy SIMD "
            f"targets {simd_targets()}; the pins were made under numpy "
            f"{PINNED_NUMPY}, {PINNED_CORE} and {PINNED_TARGETS}")
