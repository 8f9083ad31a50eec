"""Jones matrices of the optical elements, as reference oracles for the
tests: polarot itself turns photons with channels.rotate_arm and builds
analyzer ports in closed form (measure.parse_setting), with no matrix
products, so that its bits do not depend on the BLAS core."""

import math

import numpy as np


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
