"""One- and two-qubit polarization states in the H/V basis.

Conventions fixed here and used everywhere else:

* single-photon basis order (|H>, |V>); |R> = (|H> - i|V>)/sqrt(2),
  |L> = (|H> + i|V>)/sqrt(2), |D> = (|H> + |V>)/sqrt(2), |A> = (|H> - |V>)/sqrt(2)
* two-photon basis order (HH, HV, VH, VV); the first tensor factor is arm A
* all angles in radians inside the library; degrees only at I/O boundaries
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PAULI_X", "PAULI_Y", "PAULI_Z", "ID2",
    "BELL_KINDS", "ket", "ket_to_dm", "bell_state",
    "separable_state", "maximally_mixed", "validate_state",
    "fidelity", "cosine_similarity", "save_state",
]

_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "A": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
    "R": np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
    "L": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
}

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
_YY = np.kron(PAULI_Y, PAULI_Y)  # the spin flip in `_concurrence`

# the four maximally entangled two-photon state vectors, (HH, HV, VH, VV)
_BELL_KETS = {kind: np.array(amplitudes, dtype=complex) / np.sqrt(2.0)
              for kind, amplitudes in (
                  ("psi_plus", [0, 1, 1, 0]), ("psi_minus", [0, 1, -1, 0]),
                  ("phi_plus", [1, 0, 0, 1]), ("phi_minus", [1, 0, 0, -1]))}
BELL_KINDS = tuple(_BELL_KETS)


def ket(label: str) -> np.ndarray:
    """Single-photon ket by polarization label (one of H, V, D, A, R, L)."""
    try:
        return _KETS[label.upper()].copy()
    except KeyError:
        raise ValueError(f"unknown polarization label {label!r}; expected one of "
                         f"{sorted(_KETS)}") from None


def ket_to_dm(psi: np.ndarray) -> np.ndarray:
    """Outer product |psi><psi| of a (multi-photon) ket."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def bell_state(kind: str) -> np.ndarray:
    """Density matrix of one of the four Bell states (BELL_KINDS)."""
    if kind not in _BELL_KETS:
        raise ValueError(f"unknown Bell-state kind {kind!r}; expected one of {BELL_KINDS}")
    return ket_to_dm(_BELL_KETS[kind])


def separable_state(ket_a: np.ndarray, ket_b: np.ndarray) -> np.ndarray:
    """Product-state density matrix |a><a| (x) |b><b| of normalized kets."""
    kets = [np.asarray(psi, dtype=complex) for psi in (ket_a, ket_b)]
    for psi in kets:
        if psi.shape != (2,):
            raise ValueError(f"single-photon ket must have shape (2,), got {psi.shape}")
        norm2 = float(np.vdot(psi, psi).real)
        if abs(norm2 - 1.0) > 1e-12:
            raise ValueError(f"ket not normalized: |psi|^2 = {norm2!r}")
    return ket_to_dm(np.kron(*kets))


def maximally_mixed() -> np.ndarray:
    return np.eye(4, dtype=complex) / 4.0


def validate_state(rho: np.ndarray) -> np.ndarray:
    """Check the physicality invariants of a two-photon density matrix, or
    of every member of a (..., 4, 4) stack in one vectorized pass.

    Returns the input as a complex array; raises ValueError when it is not
    finite, Hermitian within 1e-10, of unit trace within 1e-10 and positive
    semidefinite within 1e-9. For a stack, the message names the first
    offending index.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"density matrix must have shape (4, 4), got {rho.shape}")

    def check(ok, message):
        if not ok.all():
            idx = tuple(int(i) for i in np.argwhere(~ok)[0])
            where = f" at stack index {idx}" if idx else ""
            raise ValueError(f"density matrix{where} {message(idx)}")

    check(np.isfinite(rho).all(axis=(-2, -1)), lambda idx: "has non-finite entries")
    herm = np.abs(rho - rho.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
    check(herm <= 1e-10,
          lambda idx: f"not Hermitian: max |rho - rho^dag| = {herm[idx]:g}")
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    check(np.abs(tr - 1.0) <= 1e-10,
          lambda idx: f"trace is {float(tr[idx])!r}, expected 1")
    lo = np.linalg.eigvalsh(rho).min(axis=-1)
    check(lo >= -1e-9, lambda idx: f"not positive semidefinite: min eigenvalue "
                                   f"= {lo[idx]:g}")
    return rho


def _sqrtm_psd(rho: np.ndarray) -> np.ndarray:
    # Eigenvalues slightly below zero come from round-off on the PSD boundary
    # (typical of reconstructed states); clamp them to zero.
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, in [0, 1]."""
    return _fidelity(validate_state(rho), validate_state(sigma))


def _fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    sq = _sqrtm_psd(rho)
    ev = np.linalg.eigvalsh(sq @ sigma @ sq)
    f = float(np.sqrt(np.clip(ev, 0.0, None)).sum() ** 2)
    return min(f, 1.0)


def _concurrence(rho: np.ndarray) -> float:
    """Two-qubit concurrence max(0, l1 - l2 - l3 - l4), the l_i the decreasing
    square roots of the eigenvalues of rho (sy (x) sy) rho* (sy (x) sy)."""
    m = rho @ _YY @ rho.conj() @ _YY
    ev = np.linalg.eigvals(m).real
    lam = np.sqrt(np.clip(ev, 0.0, None))
    lam.sort()
    return float(max(0.0, lam[3] - lam[2] - lam[1] - lam[0]))


def cosine_similarity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Re Tr(rho^dag sigma) / (||rho||_F ||sigma||_F)."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    nr = np.linalg.norm(rho)
    ns = np.linalg.norm(sigma)
    if nr == 0.0 or ns == 0.0:
        raise ValueError("cosine similarity undefined for a zero matrix")
    return float(np.trace(rho.conj().T @ sigma).real / (nr * ns))


def _purity(rho: np.ndarray) -> float:
    """Tr rho^2; 1 for pure states, 1/4 for the maximally mixed state."""
    return float(np.trace(rho @ rho).real)


def save_state(path, rho: np.ndarray) -> None:
    """Write a 4x4 complex matrix as 16 'real imag' rows, row-major in (HH, HV,
    VH, VV); `np.loadtxt(path).view(complex).reshape(4, 4)` reads it back."""
    lines = ["# two-photon density matrix, row-major (HH, HV, VH, VV)", "# columns: real imag"]
    lines.extend(f"{z.real:.17g} {z.imag:.17g}"
                 for z in np.asarray(rho, dtype=complex).ravel().tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
