"""Two-photon state tomography from 16 joint projection counts.

The canonical basis set pairs arm-A labels {H, V, R, D} with arm-B labels
{H, V, D, L} (for A in {H, V, R}) or {H, V, D, R} (for A = D). Counts are
modeled as independent Poisson variables with a single unknown flux
normalization; reconstruction either inverts the linear system directly
(fast, possibly unphysical) or maximizes the Poisson likelihood over a
Cholesky-style factorization that is physical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .csvfile import read_csv, write_csv
from .states import (concurrence, cosine_similarity, fidelity, ket, purity,
                     validate_state)

__all__ = [
    "TomographyBasisSet", "MleResult", "tomography_settings",
    "predicted_counts", "linear_inversion", "mle_reconstruct",
    "reconstruction_report", "bootstrap_sigmas",
    "write_tomo_counts", "read_tomo_counts",
]

_GAMMA = ("H", "V", "D", "L")
_DELTA = ("H", "V", "D", "R")
BASIS_LABELS = tuple([("H", g) for g in _GAMMA] + [("V", g) for g in _GAMMA]
                     + [("R", g) for g in _GAMMA] + [("D", d) for d in _DELTA])

# T is lower triangular: 4 real diagonal entries, then (re, im) pairs for
# the off-diagonal entries in this order.
_OFFDIAG = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))

# fit: eigenvalue floor of the starting state, BFGS gtol, and the parameter
# gradient max-norm above which BFGS restarts; verdict: largest KKT gap per
# count at which a fit counts as converged
_PARAM_FLOOR = 1e-6
_BFGS_GTOL = 1e-10
_RESTART_GRAD = 1e-8
KKT_TOL = 1e-5


@dataclass(frozen=True, eq=False)
class TomographyBasisSet:
    """The 16 joint projection kets, row k projecting on |labels[k][0]>_A
    |labels[k][1]>_B. The 16x16 design matrix (rows = conjugated vectorized
    projectors) has rank 16 and condition number 9.75, so the set is
    informationally complete."""

    labels: tuple
    kets: np.ndarray

    def design_matrix(self) -> np.ndarray:
        return np.array([np.outer(k, k.conj()).conj().ravel() for k in self.kets])


def tomography_settings() -> TomographyBasisSet:
    """The canonical 16-basis set in its frozen order."""
    kets = np.array([np.kron(ket(a), ket(b)) for a, b in BASIS_LABELS])
    return TomographyBasisSet(BASIS_LABELS, kets)


_CANONICAL = tomography_settings()
_KETS = _CANONICAL.kets
_DESIGN = _CANONICAL.design_matrix()
_PROJECTORS = _KETS[:, :, None] * _KETS.conj()[:, None, :]


def predicted_counts(rho: np.ndarray, flux_norm: float = 1.0) -> np.ndarray:
    """Expected counts flux_norm * <psi_k| rho |psi_k> per basis."""
    if flux_norm <= 0:
        raise ValueError(f"flux_norm must be positive, got {flux_norm}")
    rho = validate_state(rho)
    p = np.einsum("ki,ij,kj->k", _KETS.conj(), rho, _KETS).real
    return flux_norm * np.clip(p, 0.0, None)


def linear_inversion(counts: np.ndarray) -> np.ndarray:
    """Solve the 16x16 linear system for the state, symmetrized and trace
    normalized. The result is Hermitian with unit trace but can have
    negative eigenvalues for noisy counts."""
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (16,):
        raise ValueError(f"expected 16 counts, got shape {counts.shape}")
    if not np.isfinite(counts).all() or counts.sum() <= 0:
        raise ValueError("counts must be finite with a positive total")
    rho = np.linalg.solve(_DESIGN, counts).reshape(4, 4)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _t_to_matrix(t: np.ndarray) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[np.diag_indices(4)] = t[:4]
    for i, (r, c) in enumerate(_OFFDIAG):
        m[r, c] = t[4 + 2 * i] + 1j * t[5 + 2 * i]
    return m


def _matrix_to_t(m: np.ndarray) -> np.ndarray:
    t = np.empty(16)
    t[:4] = m.diagonal().real
    for i, (r, c) in enumerate(_OFFDIAG):
        t[4 + 2 * i] = m[r, c].real
        t[5 + 2 * i] = m[r, c].imag
    return t


def _rho_from_t(t: np.ndarray) -> np.ndarray:
    m = _t_to_matrix(t)
    rho = m.conj().T @ m
    return rho / np.trace(rho).real


def _initial_t(counts: np.ndarray) -> np.ndarray:
    rho0 = linear_inversion(counts)
    w, v = np.linalg.eigh(rho0)
    w = np.maximum(w, _PARAM_FLOOR)
    rho0 = (v * w) @ v.conj().T
    rho0 /= np.trace(rho0).real
    # lower-triangular factor with rho = T^dag T, via the anti-diagonal
    # permutation of the ordinary Cholesky factor
    p = np.eye(4)[::-1]
    lower = np.linalg.cholesky(p @ rho0 @ p)
    return _matrix_to_t((p @ lower @ p).conj().T)


def _negloglike_and_grad(t, counts, kets):
    # mean Poisson log-likelihood per detected count, flux profiled out:
    # f = sum(n_k ln q_k)/N - ln(sum q_k), with q_k = ||T psi_k||^2
    m = _t_to_matrix(t)
    tp = kets @ m.T
    q = np.maximum(np.einsum("ij,ij->i", tp.conj(), tp).real, 1e-300)
    total = counts.sum()
    qsum = q.sum()
    f = (counts @ np.log(q)) / total - np.log(qsum)
    w = (counts / total) / q - 1.0 / qsum
    outer = tp.conj()[:, :, None] * kets[:, None, :]
    dq = np.empty((len(counts), 16))
    dq[:, 0:4] = 2.0 * outer[:, range(4), range(4)].real
    for i, (r, c) in enumerate(_OFFDIAG):
        dq[:, 4 + 2 * i] = 2.0 * outer[:, r, c].real
        dq[:, 5 + 2 * i] = -2.0 * outer[:, r, c].imag
    grad = w @ dq
    return -f, -grad


def _kkt_gap(counts: np.ndarray, p: np.ndarray) -> float:
    # lambda_max of the per-count likelihood gradient operator
    # G = sum_k (n_k / p_k) Pi_k / N - sum_k Pi_k / sum_k p_k at the state
    # with p_k = <psi_k|rho|psi_k>; terms with n_k = 0 contribute nothing.
    # rho maximizes the likelihood iff G <= 0 (Rehacek et al., PRA 75,
    # 042108, 2007), and Tr(rho G) = 0, so the gap is >= 0 and vanishes
    # exactly at the maximum, on the boundary of state space too
    w = np.divide(counts, p, out=np.zeros_like(p), where=counts > 0)
    g = (np.einsum("k,kij->ij", w, _PROJECTORS) / counts.sum()
         - _PROJECTORS.sum(axis=0) / p.sum())
    return float(np.linalg.eigvalsh(g)[-1])


@dataclass
class MleResult:
    rho: np.ndarray
    log_likelihood: float
    converged: bool
    n_iter: int
    kkt_gap: float


def mle_reconstruct(counts: np.ndarray, max_iter: int = 5000) -> MleResult:
    """Maximum-likelihood state reconstruction from 16 projection counts.

    Maximizes the Poisson log-likelihood sum_k [n_k ln nbar_k - nbar_k]
    over the 16 real factorization parameters, with the flux normalization
    profiled out analytically (flux = sum n_k / sum q_k at every iterate),
    by BFGS with the analytic gradient on the per-count mean
    log-likelihood. `converged` is true iff the likelihood KKT gap of the
    returned state (see `_kkt_gap`) is at most KKT_TOL per count. The
    returned state is physical by construction for any parameter values.
    The reported log-likelihood is the unnormalized Poisson form above
    (factorial terms dropped).
    """
    counts = np.asarray(counts, dtype=float)
    if (counts < 0).any():
        raise ValueError("counts must be nonnegative")
    t = _initial_t(counts)
    n_iter = 0
    # BFGS is restarted with a fresh Hessian when it stalls on line-search
    # precision loss; near the optimum the objective varies at machine
    # precision, so a single pass can stop short in noisy problems
    for _ in range(3):
        res = optimize.minimize(
            _negloglike_and_grad, t, args=(counts, _KETS), jac=True,
            method="BFGS",
            options={"gtol": _BFGS_GTOL, "maxiter": max_iter - n_iter},
        )
        t = res.x
        n_iter += int(res.nit)
        if np.abs(res.jac).max() <= _RESTART_GRAD or n_iter >= max_iter:
            break
    rho = _rho_from_t(t)
    p = predicted_counts(rho, flux_norm=1.0)
    nbar = np.maximum(counts.sum() / p.sum() * p, 1e-300)
    loglik = float(counts @ np.log(nbar) - nbar.sum())
    kkt_gap = _kkt_gap(counts, p)
    return MleResult(rho=rho, log_likelihood=loglik, converged=kkt_gap <= KKT_TOL,
                     n_iter=n_iter, kkt_gap=kkt_gap)


def reconstruction_report(rho_hat: np.ndarray, reference: np.ndarray) -> dict:
    """Bundle the four comparison metrics of a reconstructed state."""
    return {
        "fidelity": fidelity(rho_hat, reference),
        "concurrence": concurrence(rho_hat),
        "purity": purity(rho_hat),
        "cosine_similarity": cosine_similarity(rho_hat, reference),
    }


def bootstrap_sigmas(rho_hat: np.ndarray, counts: np.ndarray,
                     reference: np.ndarray, n_resamples: int = 200,
                     seed: int = 0) -> dict:
    """Parametric-bootstrap standard deviations of the report metrics.

    Resamples Poisson counts from the fitted model (flux matched to the
    observed total), reconstructs each resample, and returns the spread of
    every metric. Resample r uses the independent stream (seed, r), so the
    result does not depend on evaluation order.
    """
    counts = np.asarray(counts, dtype=float)
    p = predicted_counts(rho_hat, flux_norm=1.0)
    nbar = counts.sum() / p.sum() * p
    samples = {key: [] for key in ("fidelity", "concurrence", "purity",
                                   "cosine_similarity")}
    for r in range(n_resamples):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        resampled = rng.poisson(nbar).astype(float)
        rho_r = mle_reconstruct(resampled).rho
        for key, value in reconstruction_report(rho_r, reference).items():
            samples[key].append(value)
    return {key: float(np.std(vals, ddof=1)) for key, vals in samples.items()}


_COUNTS_HEADER = "basis_label_a,basis_label_b,count"


def write_tomo_counts(path, counts: np.ndarray, metadata: dict | None = None) -> None:
    """Write 16 basis counts as 'label_a,label_b,count' rows in the frozen
    basis order, '#'-prefixed key=value metadata first."""
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (16,):
        raise ValueError(f"expected 16 counts, got shape {counts.shape}")
    metadata = metadata or {}
    write_csv(path, [(key, metadata[key]) for key in sorted(metadata)],
              _COUNTS_HEADER,
              ([a, b, f"{n:.17g}"] for (a, b), n in zip(BASIS_LABELS, counts)))


def read_tomo_counts(path) -> tuple[np.ndarray, dict]:
    """Read a tomography counts file; rows may appear in any order but
    every canonical basis pair must occur exactly once."""
    metadata, rows = read_csv(path, _COUNTS_HEADER)
    seen = {}
    for a, b, n in rows:
        pair = (a.upper(), b.upper())
        if pair in seen:
            raise ValueError(f"duplicate basis row {pair}")
        seen[pair] = float(n)
    missing = [pair for pair in BASIS_LABELS if pair not in seen]
    if missing:
        raise ValueError(f"tomography file is missing basis rows: {missing}")
    counts = np.array([seen[pair] for pair in BASIS_LABELS])
    if not np.isfinite(counts).all():
        raise ValueError(f"tomography file {path} has non-finite counts")
    return counts, metadata
