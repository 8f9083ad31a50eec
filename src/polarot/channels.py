"""Local polarization transformations: optical rotations, wave plates,
angle wrapping and isotropic noise.

Sign convention: levorotation is a positive angle and rotates the
polarization plane from H toward V, i.e. U(theta)|H> = cos(theta)|H> +
sin(theta)|V>.
"""

from __future__ import annotations

import math

import numpy as np

from .states import maximally_mixed, validate_state

__all__ = [
    "rotation_unitary", "local_rotations", "hwp_matrix", "qwp_matrix",
    "wrap_angle", "apply_noise",
]


def rotation_unitary(theta: float) -> np.ndarray:
    """Polarization-plane rotation by theta (radians):
    [[cos, -sin], [sin, cos]]."""
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta!r}")
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def local_rotations(theta_a, theta_b) -> np.ndarray:
    """U(theta_a) (x) U(theta_b) for broadcastable arrays of arm angles
    (radians), built from their cosines and sines; shape
    broadcast(theta_a, theta_b) + (4, 4), real."""
    thetas = np.asarray(theta_a, dtype=float), np.asarray(theta_b, dtype=float)
    if not all(np.isfinite(t).all() for t in thetas):
        raise ValueError("rotation angles must be finite")
    ua, ub = (np.stack([np.cos(t), -np.sin(t), np.sin(t), np.cos(t)], axis=-1)
              .reshape(t.shape + (2, 2)) for t in thetas)
    # kron(U_a, U_b)[2i + j, 2k + l] = U_a[i, k] U_b[j, l]
    u = np.einsum("...ik,...jl->...ijkl", ua, ub)
    return u.reshape(u.shape[:-4] + (4, 4))


def hwp_matrix(angle: float) -> np.ndarray:
    """Jones matrix of a half-wave plate with fast axis at `angle` radians."""
    c, s = math.cos(2.0 * angle), math.sin(2.0 * angle)
    return np.array([[c, s], [s, -c]], dtype=complex)


def qwp_matrix(angle: float) -> np.ndarray:
    """Jones matrix of a quarter-wave plate with fast axis at `angle` radians."""
    rot = rotation_unitary(angle)
    return rot @ np.diag([1.0, -1.0j]) @ rot.conj().T


def wrap_angle(theta: float) -> float:
    """The representative of theta (mod 2 pi) in (-pi, pi]."""
    theta = math.remainder(theta, 2.0 * math.pi)
    if theta <= -math.pi:
        theta += 2.0 * math.pi
    return theta


def apply_noise(rho: np.ndarray, visibility: float) -> np.ndarray:
    """Mix the state with the maximally mixed one (Werner noise):
    p * rho + (1 - p) * I/4 with weight p = visibility in [0, 1]."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {visibility}")
    return _apply_noise(validate_state(rho), visibility)


def _apply_noise(rho: np.ndarray, visibility: float) -> np.ndarray:
    return visibility * rho + (1.0 - visibility) * maximally_mixed()
