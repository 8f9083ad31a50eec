"""Machine-speed calibration of measured times.

On small shared VMs the same op, repeated back to back, can take 1.6 times
as long in one phase as in another, and the phases last from seconds to
minutes. Medians of whole runs then differ by 20-35% between runs, which
hides any real change. The slowdown hits all code alike: the latency of an
op and the time of a fixed reference kernel run just before it correlate
at about 0.65, and dividing one by the other cuts the run-to-run spread of
25-s median latencies from 22% to about 4%.

So every timed region is bracketed by two runs of the reference kernel
and reported at nominal speed: measured seconds * REF_NOMINAL_S / kernel
seconds, the kernel time being the mean of the run right before and the
run right after the region. That is the time the region would take on a
machine where the kernel takes exactly REF_NOMINAL_S. Raw times are kept
next to the calibrated ones. On a 2-core shared VM the kernel takes
2.0-2.6 ms. REF_NOMINAL_S is its slow-phase time, so a run that lasts a
given number of nominal seconds takes at most about as long in wall time.
"""

from __future__ import annotations

import time

import numpy as np

REF_NOMINAL_S = 2.6e-3
KERNEL_STEPS = 50

# small complex matrices, like the two-photon algebra the program does
_A = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)
_B = np.array([[0.0, 1.0], [1.0, 0.25]], dtype=complex)


def reference_kernel() -> float:
    acc = 0.0
    for _ in range(KERNEL_STEPS):
        m = np.kron(_A, _B)
        m = m @ m.conj().T
        acc += float(np.linalg.eigvalsh(m)[0]) + m.trace().real
    return acc


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0
