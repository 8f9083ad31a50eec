"""Sensitivity analysis of multi-photon rotation probes.

An n-photon probe (|R>^n - |L>^n)/sqrt(2) picks up opposite phases
exp(+-i n theta) on its two branches under a common rotation theta, so
everything lives in the two-dimensional span of |R>^n and |L>^n and n
never appears as an exponential state size.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["probe_state", "probe_state_derivative", "qfi", "variance_scaling"]

# the most trials variance_scaling may run: drawing trials it holds about 50
# bytes a trial, and an outcome table holds fewer bytes a cell and has at most
# one cell a trial, so a 1,000,000-trial fisher command peaks near 80 MiB
MAX_TRIALS = 1_000_000


def probe_state(n: int, theta: float) -> np.ndarray:
    """Coordinates (a_R, a_L) of the evolved n-photon probe in the
    {|R>^n, |L>^n} basis."""
    if n < 1:
        raise ValueError(f"photon number must be >= 1, got {n}")
    return np.array([np.exp(1j * n * theta), -np.exp(-1j * n * theta)]) / math.sqrt(2.0)


def probe_state_derivative(n: int, theta: float) -> np.ndarray:
    """d/dtheta of probe_state, exact."""
    if n < 1:
        raise ValueError(f"photon number must be >= 1, got {n}")
    return (1j * n) * np.array([np.exp(1j * n * theta),
                                np.exp(-1j * n * theta)]) / math.sqrt(2.0)


def qfi(n: int, theta: float = 0.0) -> float:
    """Quantum Fisher information of the n-photon probe,
    4 (<dpsi|dpsi> - |<psi|dpsi>|^2).

    Evaluated numerically from the state and its exact derivative in the
    two-dimensional branch basis; it equals the closed form 4 n^2 for any
    theta. `polarot verify` checks this at theta = 0 for n = 1..8 (max
    deviation 5.68e-14), and tests/test_metrology.py also at 0.4 and -1.3.
    """
    psi = probe_state(n, theta)
    dpsi = probe_state_derivative(n, theta)
    return 4.0 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(psi, dpsi)) ** 2)


def variance_scaling(n_values, trials: int, seed: int,
                     theta: float = math.pi / 6.0) -> list[float]:
    """Simulated estimator variance of a non-entangled probe of a common
    rotation, one float per photon number n.

    Each entry is the empirical variance over `trials` (at least 2) of the
    single-photon recipe: n photons prepared in |V>, rotated by theta, split
    between z- and x-basis measurements, combined as theta_hat =
    atan2(-<x>, -<z>)/2. One trial spends the photon budget of one use of
    the n-photon probe, whose single-use Cramer-Rao bound is 1/(4 n^2).
    Entry n draws from the independent stream (seed, n), so an entry does
    not depend on which other photon numbers are requested. The estimate
    takes one value per outcome cell (k_z, k_x), so the variance of the
    trials depends only on how many trials land in each cell. When there
    are no more cells, (n_z + 1)(n_x + 1), than trials, the entry draws
    that outcome table, one Multinomial(trials, pmf_z x pmf_x), and takes
    the count-weighted variance of the cell estimates. Otherwise (a huge
    n, or few trials) it draws the trials themselves: the z-basis counts of
    all trials first, then their x-basis counts. Both have the same
    distribution.

    The readout is its own atan2, not measure._branch_rotations, whose
    significance rule would raise on a trial at even n that reads <z> =
    <x> = 0: here every trial counts toward the spread.
    """
    if trials < 2:
        raise ValueError("trials must be at least 2")
    if any(n < 1 for n in n_values):
        raise ValueError(f"photon number must be >= 1, got {min(n_values)}")
    # P(z=+1) = (1 - cos 2theta)/2 and P(x=+1) = (1 - sin 2theta)/2 for U(theta)|V>
    p_z = 0.5 * (1.0 - math.cos(2.0 * theta))
    p_x = 0.5 * (1.0 - math.sin(2.0 * theta))
    variances = []
    for n in n_values:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(n,)))
        n_z = (n + 1) // 2
        n_x = n - n_z
        if (n_z + 1) * (n_x + 1) <= trials:
            variances.append(_table_variance(rng, trials, n_z, n_x, p_z, p_x))
            continue
        # n = 1 has 2 cells, never more than trials: here n_x >= 1
        m_z = 2.0 * rng.binomial(n_z, p_z, size=trials) / n_z - 1.0
        m_x = 2.0 * rng.binomial(n_x, p_x, size=trials) / n_x - 1.0
        estimates = 0.5 * np.arctan2(-m_x, -m_z)
        variances.append(float(estimates.var()))
    return variances


def _binomial_pmf(n: int, p: float) -> list[float]:
    """P(k) of Binomial(n, p) for k = 0..n."""
    return [math.comb(n, k) * p ** k * (1.0 - p) ** (n - k) for k in range(n + 1)]


def _table_variance(rng, trials: int, n_z: int, n_x: int, p_z: float, p_x: float) -> float:
    """One entry of variance_scaling from its outcome table: the trials per
    cell (k_z, k_x), one multinomial draw, and the count-weighted
    population variance of the cell estimates."""
    counts = rng.multinomial(trials, np.outer(_binomial_pmf(n_z, p_z),
                                              _binomial_pmf(n_x, p_x)).ravel())
    m_z = 2.0 * np.arange(n_z + 1) / n_z - 1.0
    # no x-basis photon: <x> is +0.0 and atan2 gets -0.0, as in the exact enumeration
    m_x = 2.0 * np.arange(n_x + 1) / n_x - 1.0 if n_x > 0 else np.zeros(1)
    estimates = 0.5 * np.arctan2(-m_x, -m_z[:, None]).ravel()
    # numpy's pairwise sums, as in .var(), not a BLAS dot: no kernel picks the bits
    mean = (counts * estimates).sum() / trials
    return float((counts * np.square(estimates - mean)).sum() / trials)
