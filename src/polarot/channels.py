"""Local polarization transformations: optical rotations and isotropic
noise.

Sign convention: levorotation is a positive angle and rotates the
polarization plane from H toward V, i.e. U(theta)|H> = cos(theta)|H> +
sin(theta)|V>.
"""

from __future__ import annotations

import numpy as np

from .states import maximally_mixed, validate_state

__all__ = ["rotate_arm", "apply_noise"]


def rotate_arm(rho: np.ndarray, theta, arm: int) -> np.ndarray:
    """One photon's polarization-plane rotation U(theta) = [[cos, -sin],
    [sin, cos]] applied to a two-photon state or (..., 4, 4) stack: (U (x) I)
    rho (U (x) I)^T on arm 0 (A), (I (x) U) rho (I (x) U)^T on arm 1 (B).
    Angles (radians) broadcast against the stack's leading shape."""
    theta = np.asarray(theta, dtype=float)
    if arm not in (0, 1):
        raise ValueError(f"arm must be 0 (A) or 1 (B), got {arm!r}")
    if not np.isfinite(theta).all():
        raise ValueError("rotation angles must be finite")
    c, s = (f(theta)[..., None, None, None, None] for f in (np.cos, np.sin))
    # rho[2i + j, 2k + l] as axes (i, j, k, l): the arm's row index, then its
    # column index, each turned as U[m, 0] x_0 + U[m, 1] x_1
    out = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    for axis in (arm - 4, arm - 2):
        x0, x1 = (out[(Ellipsis, slice(k, k + 1)) + (slice(None),) * (-1 - axis)]
                  for k in (0, 1))
        out = np.concatenate((c * x0 - s * x1, s * x0 + c * x1), axis=axis)
    return out.reshape(out.shape[:-4] + (4, 4))


def apply_noise(rho: np.ndarray, visibility: float) -> np.ndarray:
    """Mix the state with the maximally mixed one (Werner noise):
    p * rho + (1 - p) * I/4 with weight p = visibility in [0, 1]."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {visibility}")
    return _apply_noise(validate_state(rho), visibility)


def _apply_noise(rho: np.ndarray, visibility: float) -> np.ndarray:
    return visibility * rho + (1.0 - visibility) * maximally_mixed()
