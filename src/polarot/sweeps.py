"""Scripted experiment sweeps, the arm-A scan and the calibration line fit.

Both sweep runners and the scan share one pipeline, which runs a whole
array of arm-B angles at once: build the source state, fold the analyzer
offsets (_offsets) into the local rotations, and take the exact mean counts
of the (Z,Z) and (X,Z) analyzer pairs, the two that the rotation is read
from (drawn as Poisson counts unless the run is exact). A theta sweep runs
both Bell branches through it as one stack. Both sweeps read those counts
with one readout (_branch_readout): the correlations M_zz and M_xz and the
rotation with the offsets removed, one entry per angle; the scan reads the
correlations as one mean phasor over its grid (_scan_phase).

Every rotation is half the phase of a factor F, -m_zz - i m_xz or the
scan's mean phasor, read by measure._branch_rotations under one rule: |F|
>= max(MODULUS_FLOOR, z sigma_F), with sigma_F the standard error of F
across its own direction, propagated from the correlation sigmas, and z =
measure.SIGNIFICANCE = 4. Below it the rotation sigma covers the readout
too rarely (measured: 0.64 of readouts within one sigma at |F|/sigma_F
3-3.5, 0.66 at 4-4.5, 0.683 nominal), and a source with no rotation passes
it with probability exp(-z^2/2) = 3.4e-4. An exact run is held to the
sigmas of its mean counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import _apply_noise, rotate_arm
from .config import ExperimentConfig, check_reads
from .csvfile import unsigned_zeros, write_csv
from .measure import (_NAMED_PROJECTORS, _branch_rotations, _local_angles, _mean_counts,
                      estimate_correlation)
from .states import BELL_KINDS, bell_state, ket, separable_state

__all__ = ["SweepResult", "configured_state", "fit_line", "zero_crossing",
           "run_sweep", "run_scan", "write_sweep"]


@dataclass
class SweepResult:
    columns: tuple
    rows: np.ndarray


def fit_line(x, y, sigma) -> dict:
    """Weighted least-squares straight line y = slope x + intercept through
    points with absolute uncertainties sigma. Returns the parameters, the
    slope's sigma and their covariance cov = [[var_slope, c], [c, var_intercept]].

    The sigmas are divided by 2**e, e the binary exponent of the largest,
    before they are squared, so that no weight overflows or underflows
    however small or large they are. The division is exact and slope and
    intercept do not depend on it; slope_sigma and cov are scaled back. A
    covariance past the float range (sigmas of about 1e155 and up, on x a
    few units apart) raises."""
    x, y, sigma = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, y, sigma)))
    if x.size < 3:
        raise ValueError(f"need at least 3 points to fit a line, got {x.size}")
    if (sigma <= 0).any():
        raise ValueError("point sigmas must be positive")
    if np.allclose(x, x[0]):
        raise ValueError("degenerate abscissa: all x values are equal")
    _, exponent = math.frexp(sigma.max())
    w = 1.0 / np.ldexp(sigma, -exponent) ** 2
    s = w.sum()
    sx, sy = (w * x).sum(), (w * y).sum()
    sxx, sxy = (w * x * x).sum(), (w * x * y).sum()
    det = s * sxx - sx * sx
    if det <= 0:
        raise ValueError("degenerate abscissa: line fit is underdetermined")
    slope = (s * sxy - sx * sy) / det
    intercept = (sxx * sy - sx * sxy) / det
    cov = np.array([[s, -sx], [-sx, sxx]]) / det  # in units of 2**(2 e)
    with np.errstate(over="raise"):
        try:
            scaled = np.ldexp(cov, 2 * exponent)
        except FloatingPointError:
            raise ValueError(f"the line fit's covariance is past the float range: "
                             f"sigmas up to {sigma.max():g} square beyond it") from None
    return {
        "slope": float(slope),
        "intercept": float(intercept),
        "slope_sigma": math.ldexp(math.sqrt(max(cov[0, 0], 0.0)), exponent),
        "cov": scaled,
    }


def zero_crossing(fit: dict) -> tuple[float, float]:
    """Root x0 = -intercept/slope of a fit_line fit, with its standard
    error from the fit's full parameter covariance (delta method)."""
    slope, intercept = fit["slope"], fit["intercept"]
    if slope == 0.0:
        raise ValueError("zero slope: the fitted line has no root")
    x0 = -intercept / slope
    grad = np.array([intercept / slope ** 2, -1.0 / slope])  # d x0 / d(slope, intercept)
    var = float(grad @ fit["cov"] @ grad)
    return x0, math.sqrt(max(var, 0.0))


def _offsets(cfg: ExperimentConfig, kinds) -> tuple:
    """The analyzer-frame offsets (pbs_a, hwp, pbs_b) riding on the arm
    rotations of sources of `kinds`, radians: arm A carries pbs_a + hwp and
    arm B pbs_b. The state-exchanging half-wave plate sits in cancellation
    (psi_minus) runs only, so hwp holds cfg.hwp there and 0 for other kinds."""
    return cfg.pbs_a, np.array([cfg.hwp if k == "psi_minus" else 0.0 for k in kinds]), cfg.pbs_b


def _remove_offsets(cfg: ExperimentConfig, kind: str, theta):
    """The rotation theta_a + theta_b of a psi_plus source, or theta_a -
    theta_b of a psi_minus one, from its value theta in the analyzer frame."""
    pbs_a, (hwp,), pbs_b = _offsets(cfg, (kind,))
    return theta - pbs_a - (pbs_b if kind == "psi_plus" else -pbs_b) - hwp


def configured_state(cfg: ExperimentConfig, kinds: tuple, theta_b) -> np.ndarray:
    """The two-photon states after the configured noise and both arm
    rotations, with the analyzer-frame offsets (_offsets) on top of the
    physical rotations: one per source kind of `kinds` and arm-B angle of
    theta_b (radians, a float or an array), shape (len(kinds),) +
    shape(theta_b) + (4, 4). Arm A turns the sources, then arm B the stack
    they broadcast to."""
    rho = _apply_noise(np.array([separable_state(ket(cfg.ket_a), ket(cfg.ket_b))
                                 if k == "separable" else bell_state(k) for k in kinds]),
                       cfg.visibility)
    pbs_a, hwp, pbs_b = _offsets(cfg, kinds)
    theta_b = np.asarray(theta_b) + pbs_b
    rho = rotate_arm(rho, cfg.arm_a.theta() + pbs_a + hwp, 0)
    return rotate_arm(rho.reshape((len(kinds),) + (1,) * theta_b.ndim + (4, 4)), theta_b, 1)


def _rotation_counts(cfg: ExperimentConfig, kinds: tuple, theta_b, exact: bool) -> np.ndarray:
    # the (Z,Z), (X,Z) counts, shape (len(kinds),) + shape(theta_b) + (2, 4):
    # the exact means from one Born call, or their Poisson draws, each Bell kind
    # from its own stream (cfg.seed, its BELL_KINDS index): 0 psi_plus, 1 psi_minus
    means = _mean_counts(configured_state(cfg, kinds, theta_b), _NAMED_PROJECTORS[:2],
                         cfg.detection)
    if exact:
        return means
    seeds = [np.random.SeedSequence(cfg.seed, spawn_key=(BELL_KINDS.index(k),)) for k in kinds]
    return np.stack([np.random.default_rng(s).poisson(m) for m, s in zip(means, seeds)])


def _branch_readout(cfg: ExperimentConfig, kinds: tuple, theta_b, exact: bool) -> tuple:
    """The branches of kinds at the arm-B angles theta_b, read out: arrays
    (m_zz, m_xz, sigma_zz, sigma_xz, theta_deg, sigma_deg) of shape
    (len(kinds), len(theta_b)), theta_deg the rotation with the offsets off.
    A branch factor below the significance rule of _branch_rotations
    raises, naming its kind and point."""
    m, sigma = estimate_correlation(_rotation_counts(cfg, kinds, theta_b, exact))
    (m_zz, m_xz), (sigma_zz, sigma_xz) = np.moveaxis(m, -1, 0), np.moveaxis(sigma, -1, 0)
    theta, sig = _branch_rotations(kinds, m_zz, m_xz, sigma_zz, sigma_xz)
    theta = [_remove_offsets(cfg, k, t) for k, t in zip(kinds, theta)]
    return m_zz, m_xz, sigma_zz, sigma_xz, np.degrees(theta), np.degrees(sig)


def _molarity_sweep(cfg: ExperimentConfig, exact: bool) -> SweepResult:
    """Sweep the arm-B solution molarity at a fixed arm-A rotation and
    extract the offset-corrected effective rotation of the configured
    Bell state per point, on arm B's slope."""
    molarities = sorted(cfg.sweep_values)
    theta_b = np.radians(cfg.arm_b.slope_deg_per_molar * np.array(molarities))
    (m_zz,), (m_xz,), (s_zz,), (s_xz,), (theta,), (sig,) = _branch_readout(
        cfg, (cfg.state_kind,), theta_b, exact)
    return SweepResult(
        columns=("molarity", "theta_deg", "sigma_deg",
                 "m_zz", "m_xz", "sigma_zz", "sigma_xz"),
        rows=np.column_stack((molarities, theta, sig, m_zz, m_xz, s_zz, s_xz)),
    )


def _theta_sweep(cfg: ExperimentConfig, exact: bool) -> SweepResult:
    """Sweep the arm-B rotation angle with both Bell branches at a fixed
    arm-A rotation; reports per point the joint observables of both
    branches, the offset-corrected effective rotations, and the local
    angles, their half-sum and half-difference."""
    kinds = ("psi_plus", "psi_minus")
    values = sorted(cfg.sweep_values)
    theta_b = np.radians(values)
    m_zz, m_xz, s_zz, s_xz, (th_p, th_m), (sig_p, sig_m) = _branch_readout(
        cfg, kinds, theta_b, exact)  # both in one stack
    return SweepResult(
        columns=("theta_b_deg",
                 "m_zz_plus", "m_xz_plus", "m_zz_minus", "m_xz_minus",
                 "sigma_zz_plus", "sigma_xz_plus", "sigma_zz_minus", "sigma_xz_minus",
                 "theta_plus_deg", "sigma_plus_deg",
                 "theta_minus_deg", "sigma_minus_deg",
                 "theta_a_hat_deg", "theta_b_hat_deg"),
        rows=np.column_stack((
            values, m_zz[0], m_xz[0], m_zz[1], m_xz[1],
            s_zz[0], s_xz[0], s_zz[1], s_xz[1], th_p, sig_p, th_m, sig_m,
            *_local_angles(th_p, th_m, 90.0))),
    )


def run_sweep(cfg: ExperimentConfig, exact: bool = False) -> SweepResult:
    """Run the sweep of the config's [sweep] section, after check_reads: the
    molarity sweep for variable molarity_b, the theta sweep for theta_b."""
    if cfg.sweep_variable is None:
        raise ValueError("config does not define a sweep")
    check_reads(cfg, f"{cfg.sweep_variable} sweep")
    runner = {"molarity_b": _molarity_sweep, "theta_b": _theta_sweep}[cfg.sweep_variable]
    return runner(cfg, exact)


# the arm-B angles a scan probes: one half-turn, -90 to 85 deg in 5-deg
# steps, since arm B at theta + 180 deg prepares the state it does at theta
_SCAN_GRID = math.radians(-90.0) + math.radians(5.0) * np.arange(36)
# the mean grid phasor P has Re P = mean(-m_zz c + m_xz s) and Im P =
# mean(-m_zz s - m_xz c) with c, s = cos, sin 2 theta_b, so the variances of
# the 72 independent correlations, in (angle, (zz, xz)) order, times these
# rows give Var Re P, Var Im P and Cov(Re P, Im P)
_C, _S = np.cos(2.0 * _SCAN_GRID), np.sin(2.0 * _SCAN_GRID)
_SCAN_VARIANCES = np.stack((_C * _C, _S * _S, _C * _S, _S * _S, _C * _C, -_C * _S),
                           -1).reshape(72, 3) / 36 ** 2


def _scan_phase(m: np.ndarray, sigma: np.ndarray) -> float:
    """Half the phase of the mean grid phasor P, in [-pi/2, pi/2]: arm A's
    rotation mod pi in the analyzer frame, from the psi_minus correlations
    m (M_zz and M_xz at each _SCAN_GRID angle, shape (36, 2)) and their
    sigmas. Each phasor (-m_zz - i m_xz) exp(2i theta_b) is V exp(2i
    theta_a) at visibility V: the known-frequency single-tone phase
    estimator (Rife & Boorstyn, IEEE Trans. Inf. Theory 20, 591, 1974).
    P is read as the branch factor of (m_zz, m_xz) = (-Re P, -Im P), with
    the variances and covariance of Re P and Im P (_SCAN_VARIANCES), so
    _branch_rotations holds it to the one significance rule."""
    phasor = np.mean((-m[:, 0] - 1j * m[:, 1]) * np.exp(2j * _SCAN_GRID))
    var_re, var_im, cov = np.square(sigma).reshape(72) @ _SCAN_VARIANCES
    (theta,), _ = _branch_rotations(("psi_minus",), np.array([-phasor.real]),
                                    np.array([-phasor.imag]), math.sqrt(var_re),
                                    math.sqrt(var_im), cov)
    return float(theta)


def run_scan(cfg: ExperimentConfig, exact: bool = False) -> float:
    """The arm-A rotation (radians) that _scan_phase finds from the psi_minus
    branch's counts at the arm-B angles _SCAN_GRID, offsets off (the optimum
    matches arm B to arm A's angle in the analyzer frame), as the one
    representative theta + k pi in [-pi/2, pi/2), like the analyzer ids, a
    zero unsigned. The config is held to check_reads first."""
    check_reads(cfg, "scan")
    m, sigma = estimate_correlation(
        _rotation_counts(cfg, ("psi_minus",), _SCAN_GRID, exact)[0])
    theta = _remove_offsets(cfg, "psi_minus", _scan_phase(m, sigma))
    theta = math.remainder(theta, math.pi)
    return -theta if theta == math.pi / 2 else theta + 0.0


def write_sweep(result: SweepResult, path, provenance: dict) -> None:
    """Write a sweep result as CSV, the items of provenance first as
    '#'-prefixed key=value lines in the dict's order. Angle columns (named
    *_deg) carry six decimal places, with no negative zero."""
    # %.6f and %.10g write the bytes of {:.6f} and {:.10g}, -0, inf and nan
    # included; unsigned_zeros then drops the sign of a %.6f zero
    row_format = ",".join("%.6f" if name.endswith("_deg") else "%.10g"
                          for name in result.columns)
    write_csv(path, provenance.items(), ",".join(result.columns),
              ([unsigned_zeros(row_format % tuple(row))] for row in result.rows.tolist()))
