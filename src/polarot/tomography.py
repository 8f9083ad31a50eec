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

from .csvfile import read_csv, row_floats, write_csv
from .measure import MAX_POISSON_MEAN
from .states import (_concurrence, _fidelity, _purity, cosine_similarity, ket,
                     validate_state)

__all__ = [
    "BASIS_LABELS", "KETS", "DESIGN", "MleResult",
    "predicted_counts", "linear_inversion", "mle_reconstruct", "bootstrap_sigmas",
    "write_tomo_counts", "read_tomo_counts",
]

_GAMMA = ("H", "V", "D", "L")
_DELTA = ("H", "V", "D", "R")
BASIS_LABELS = tuple([("H", g) for g in _GAMMA] + [("V", g) for g in _GAMMA]
                     + [("R", g) for g in _GAMMA] + [("D", d) for d in _DELTA])

# The 16 joint projection kets in the frozen order, row k projecting on
# |labels[k][0]>_A |labels[k][1]>_B. The 16x16 design matrix (rows =
# conjugated vectorized projectors) has rank 16 and condition number 9.75,
# so the set is informationally complete.
KETS = np.array([np.kron(ket(a), ket(b)) for a, b in BASIS_LABELS])
_PROJECTORS = KETS[:, :, None] * KETS.conj()[:, None, :]
DESIGN = _PROJECTORS.conj().reshape(16, 16)
# the HH, HV, VH, VV rows: their projectors sum to the identity, so their
# counts sum to the trace of the linear inversion
_HV_ROWS = [BASIS_LABELS.index((a, b)) for a in "HV" for b in "HV"]

# T = sum_j t_j E_j is lower triangular: t holds its 4 real diagonal
# entries, then (re, im) of each entry below the diagonal, row by row.
# Each q_k = ||T psi_k||^2 is the quadratic form t^T A_k t.
_ROWS, _COLS = np.tril_indices(4, -1)
_FACTOR_BASIS = np.zeros((16, 4, 4), dtype=complex)
_FACTOR_BASIS[range(4), range(4), range(4)] = 1.0
_FACTOR_BASIS[4:].reshape(6, 2, 4, 4)[range(6), :, _ROWS, _COLS] = 1.0, 1j
_QUAD = np.einsum("iab,jac,kcb->kij", _FACTOR_BASIS.conj(), _FACTOR_BASIS,
                  _PROJECTORS).real
_QUAD_SUM = _QUAD.sum(axis=0)
_PROJECTOR_SUM = _PROJECTORS.sum(axis=0)
_EYE = np.eye(16)

# fit: eigenvalue floor of every starting state, predicted per-count gain
# below which the ascent stops (under f's round-off, eps |f| ~ 5e-16),
# KKT gap above which a stopped ascent escapes, and the escape direction's
# weight; verdict: largest KKT gap per count at which a fit counts as
# converged; budget: the most Newton steps of both ascents together
_PARAM_FLOOR = 1e-6
_STOP_GAIN = 1e-16
_ESCAPE_GAP = 1e-10
_ESCAPE_MIX = 1e-3
KKT_TOL = 1e-5
MAX_ITER = 5000


def predicted_counts(rho: np.ndarray, flux_norm: float = 1.0) -> np.ndarray:
    """Expected counts flux_norm * <psi_k| rho |psi_k> per basis."""
    if flux_norm <= 0:
        raise ValueError(f"flux_norm must be positive, got {flux_norm}")
    return flux_norm * _probabilities(validate_state(rho))


def _probabilities(rho: np.ndarray) -> np.ndarray:
    return np.clip(np.einsum("ki,ij,kj->k", KETS.conj(), rho, KETS).real, 0.0, None)


def linear_inversion(counts: np.ndarray) -> np.ndarray:
    """Solve the 16x16 linear system for the state, symmetrized and trace
    normalized. The result is Hermitian with unit trace but can have
    negative eigenvalues for noisy counts."""
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (16,):
        raise ValueError(f"expected 16 counts, got shape {counts.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite totals fail below
        total = counts.sum()
    if not np.isfinite(counts).all() or total <= 0:
        raise ValueError("counts must be finite with a positive total")
    if total > MAX_POISSON_MEAN:  # no larger total can be bootstrapped
        raise ValueError(f"counts total {total:g} is above {MAX_POISSON_MEAN:g}, "
                         f"the largest Poisson mean a bootstrap can draw")
    if counts[_HV_ROWS].sum() <= 0:
        raise ValueError(f"the HH, HV, VH and VV counts must have a positive sum "
                         f"(the trace of the state), got {counts[_HV_ROWS].sum():g}")
    rho = np.linalg.solve(DESIGN, counts).reshape(4, 4)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _rho_from_t(t: np.ndarray) -> np.ndarray:
    m = np.einsum("j,jab->ab", t, _FACTOR_BASIS)
    rho = m.conj().T @ m
    return rho / np.trace(rho).real


def _t_from_rho(rho: np.ndarray) -> np.ndarray:
    # floor the eigenvalues so that no row of T starts at zero (f ignores
    # the scale of T), then take the lower-triangular factor with rho =
    # T^dag T from the Cholesky factor of rho with rows and columns reversed
    w, v = np.linalg.eigh(rho)
    rho = (v * np.maximum(w, _PARAM_FLOOR)) @ v.conj().T
    m = np.linalg.cholesky(rho[::-1, ::-1])[::-1, ::-1].conj().T
    # keep the strided .real view: a contiguous copy rounds the ascent otherwise
    return np.einsum("jab,ab->j", _FACTOR_BASIS.conj(), m).real


def _grad_hess(t, quad, w):
    """Exact gradient and Hessian in t of the mean Poisson log-likelihood
    per count with the flux profiled out, f = sum_k w_k ln q_k - ln sum_k
    q_k, then the q_k and sum_k q_k at t for `_gain` (differences of f).
    `quad` and `w` hold A_k and n_k / N of the bases with n_k > 0; the sum
    in the second term runs over all 16."""
    at = quad @ t
    q = at @ t
    st = _QUAD_SUM @ t
    qs = t @ st
    c = w / q
    grad = 2.0 * (c @ at - st / qs)
    ca = np.dot(c[None], quad.reshape(len(c), 256)).reshape(16, 16)  # sum_k c_k A_k
    hess = (2.0 * (ca - _QUAD_SUM / qs)
            - 4.0 * ((at.T * (c / q)) @ at - st[:, None] * st / qs**2))
    return grad, hess, q, qs


def _gain(t, step, quad, w, q, qs):
    # f(t + step) - f(t) from ln(q'/q) = log1p((q' - q)/q), q at t from
    # `_grad_hess`, q' - q = step^T A (2t + step): accurate to the rounding
    # of the gain, not of f, so the gain ratio stays meaningful to tiny steps
    s = 2.0 * t + step
    return w @ np.log1p((quad @ step) @ s / q) - np.log1p(_QUAD_SUM @ step @ s / qs)


def _ascend(t, quad, w, max_iter):
    """Damped Newton ascent of f from t, at most max_iter steps: each solves
    (mu I - H) step = grad, with mu first raised above lambda_max(H), then
    moved by the Levenberg-Marquardt gain-ratio rule (H. B. Nielsen,
    IMM-REP-1999-05). f ignores the scale of t, so t is renormalized after
    each step. Returns t and the number of steps taken."""
    grad, hess, q, qs = _grad_hess(t, quad, w)
    lam = np.linalg.eigvalsh(hess)
    mu, nu = 1e-3 * np.abs(lam).max(), 2.0
    for n_iter in range(max_iter):
        if mu <= lam[-1]:
            mu, nu = nu * lam[-1], 2.0 * nu
        step = np.linalg.solve(mu * _EYE - hess, grad)
        predicted = grad @ step + 0.5 * step @ hess @ step
        if predicted <= _STOP_GAIN:
            return t, n_iter
        ratio = _gain(t, step, quad, w, q, qs) / predicted
        if ratio > 0:
            t = (t + step) / np.linalg.norm(t + step)
            grad, hess, q, qs = _grad_hess(t, quad, w)
            lam = np.linalg.eigvalsh(hess)
            mu, nu = mu * max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), 2.0
        else:
            mu, nu = mu * nu, 2.0 * nu
    return t, max_iter


def _kkt(counts: np.ndarray, rho: np.ndarray):
    # p_k = <psi_k|rho|psi_k>, the per-count likelihood gradient operator
    # G = sum_k (n_k / p_k) Pi_k / N - sum_k Pi_k / sum_k p_k at rho (terms
    # with n_k = 0 contribute nothing) and its KKT gap lambda_max(G). rho
    # maximizes the likelihood iff G <= 0 (Rehacek et al., PRA 75, 042108,
    # 2007), and Tr(rho G) = 0, so the gap is >= 0 and vanishes exactly at
    # the maximum, on the boundary of state space too
    p = _probabilities(rho)
    w = np.divide(counts, p, out=np.zeros_like(p), where=counts > 0)
    g = (np.einsum("k,kij->ij", w, _PROJECTORS) / counts.sum()
         - _PROJECTOR_SUM / p.sum())
    return p, g, float(np.linalg.eigvalsh(g)[-1])


@dataclass
class MleResult:
    rho: np.ndarray
    log_likelihood: float
    converged: bool
    n_iter: int
    kkt_gap: float


def mle_reconstruct(counts: np.ndarray) -> MleResult:
    """Maximum-likelihood state reconstruction from 16 projection counts.

    Maximizes the Poisson log-likelihood sum_k [n_k ln nbar_k - nbar_k]
    over the 16 real factorization parameters, with the flux normalization
    profiled out analytically (flux = sum n_k / sum q_k at every iterate),
    by a damped Newton ascent with the exact gradient and Hessian of the
    per-count mean log-likelihood, started from the eigenvalue-floored
    linear inversion. `n_iter` counts Newton steps over both ascents, at
    most MAX_ITER. `converged` is true iff the likelihood KKT gap of the
    returned state (see `_kkt`) is at most KKT_TOL per count. The returned
    state is physical by construction for any parameter values. The
    reported log-likelihood is the unnormalized Poisson form above
    (factorial terms dropped).
    """
    counts = np.asarray(counts, dtype=float)
    if (counts < 0).any():
        raise ValueError("counts must be nonnegative")
    start = _t_from_rho(linear_inversion(counts))
    quad, w = _QUAD[counts > 0], counts[counts > 0] / counts.sum()
    t, n_iter = _ascend(start, quad, w, MAX_ITER)
    rho = _rho_from_t(t)
    p, kkt, kkt_gap = _kkt(counts, rho)
    # a zero row of T is stationary in t but can be a saddle in rho, where
    # the ascent stops at a positive KKT gap; mixing in the top eigenvector
    # v of G raises the likelihood at first order (Burer & Monteiro, Math.
    # Program. 95, 329, 2003), so the fit ascends once more from there
    if kkt_gap > _ESCAPE_GAP and n_iter < MAX_ITER:
        v = np.linalg.eigh(kkt)[1][:, -1]
        escape = (1.0 - _ESCAPE_MIX) * rho + _ESCAPE_MIX * np.outer(v, v.conj())
        t, steps = _ascend(_t_from_rho(escape), quad, w, MAX_ITER - n_iter)
        n_iter += steps
        rho = _rho_from_t(t)
        p, kkt, kkt_gap = _kkt(counts, rho)
    nbar = np.maximum(counts.sum() / p.sum() * p, 1e-300)
    loglik = float(counts @ np.log(nbar) - nbar.sum())
    return MleResult(rho=rho, log_likelihood=loglik, converged=kkt_gap <= KKT_TOL,
                     n_iter=n_iter, kkt_gap=kkt_gap)


def _report(rho_hat: np.ndarray, reference: np.ndarray) -> dict:
    return {
        "fidelity": _fidelity(rho_hat, reference),
        "concurrence": _concurrence(rho_hat),
        "purity": _purity(rho_hat),
        "cosine_similarity": cosine_similarity(rho_hat, reference),
    }


def bootstrap_sigmas(rho_hat: np.ndarray, counts: np.ndarray,
                     reference: np.ndarray, n_resamples: int = 200,
                     seed: int = 0) -> dict:
    """Parametric-bootstrap standard deviations of the report metrics.

    Resamples Poisson counts from the fitted model (flux matched to the
    observed total), reconstructs each resample, and returns the spread of
    every metric. Resample r uses the independent stream (seed, r), so the
    result does not depend on evaluation order; a resample's fit error is
    raised naming r. A spread needs n_resamples >= 2.
    """
    if n_resamples < 2:
        raise ValueError(f"n_resamples must be at least 2, got {n_resamples}")
    rho_hat, reference = validate_state(rho_hat), validate_state(reference)
    counts = np.asarray(counts, dtype=float)
    p = _probabilities(rho_hat)
    nbar = counts.sum() / p.sum() * p
    reports = []
    for r in range(n_resamples):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        try:
            rho_r = mle_reconstruct(rng.poisson(nbar).astype(float)).rho
        except ValueError as exc:
            raise ValueError(f"bootstrap resample {r}: {exc}") from None
        reports.append(_report(rho_r, reference))
    return {key: float(np.std([report[key] for report in reports], ddof=1))
            for key in reports[0]}


_COUNTS_HEADER = "basis_label_a,basis_label_b,count"
_COUNT_LABELS = [f"{a},{b}" for a, b in BASIS_LABELS]
_COUNT_INDEX = {label.upper(): k for k, label in enumerate(_COUNT_LABELS)}


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
    """The 16 counts of a tomography counts file, in the frozen basis order,
    and its metadata. Rows may come in any order and letter case, but each
    basis pair of the design occurs exactly once, with a finite count; every
    error names the file."""
    metadata, rows = read_csv(path, _COUNTS_HEADER)
    counts = [None] * len(_COUNT_LABELS)
    for row in rows:
        k = _COUNT_INDEX.get(f"{row[0]},{row[1]}".upper())
        if k is None:
            raise ValueError(f"{path}: row {','.join(row)!r} names no basis pair of the design")
        if counts[k] is not None:
            raise ValueError(f"{path}: row {','.join(row)!r} repeats basis {_COUNT_LABELS[k]}")
        [counts[k]] = row_floats(path, row, 2)
    missing = [label for label, n in zip(_COUNT_LABELS, counts) if n is None]
    if missing:
        raise ValueError(f"{path} is missing basis rows: {missing}")
    return np.array(counts), metadata
