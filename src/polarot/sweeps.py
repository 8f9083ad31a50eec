"""Scripted experiment sweeps, the arm-A scan and the calibration line fit.

Both sweep runners and the scan share one pipeline, which runs a whole
array of arm-B angles at once: build the source state, fold the analyzer
offsets (_offsets) into the local rotations, take the exact mean counts of
the named-basis coincidence settings (drawn as Poisson counts unless the
run is exact) and estimate the joint observables, one JointObservables
whose fields hold one entry per angle. A theta sweep runs both Bell
branches through it as one stack. The runners then convert those arrays
back to rotation angles with the offsets removed, a column at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .channels import _apply_noise, rotate_arm
from .config import ExperimentConfig, check_reads, config_hash
from .csvfile import unsigned_zeros, write_csv
from .measure import (NAMED_PAIRS, _check_factors, _local_angles, _mean_counts,
                      _observables, rotation_from_observables, scan_theta_a)
from .states import BELL_KINDS, bell_state, ket, separable_state

__all__ = ["SweepResult", "configured_state", "fit_line", "zero_crossing",
           "run_sweep", "run_scan", "write_sweep"]


@dataclass
class SweepResult:
    variable: str
    columns: tuple
    rows: np.ndarray
    provenance: dict


def fit_line(x, y, sigma) -> dict:
    """Weighted least-squares straight line y = slope x + intercept through
    points with absolute uncertainties sigma. Returns the parameters, the
    slope's sigma and their covariance cov = [[var_slope, c], [c, var_intercept]]."""
    x, y, sigma = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, y, sigma)))
    if x.size < 3:
        raise ValueError(f"need at least 3 points to fit a line, got {x.size}")
    if (sigma <= 0).any():
        raise ValueError("point sigmas must be positive")
    if np.allclose(x, x[0]):
        raise ValueError("degenerate abscissa: all x values are equal")
    w = 1.0 / sigma ** 2
    s = w.sum()
    sx, sy = (w * x).sum(), (w * y).sum()
    sxx, sxy = (w * x * x).sum(), (w * x * y).sum()
    det = s * sxx - sx * sx
    if det <= 0:
        raise ValueError("degenerate abscissa: line fit is underdetermined")
    slope = (s * sxy - sx * sy) / det
    intercept = (sxx * sy - sx * sxy) / det
    cov = np.array([[s, -sx], [-sx, sxx]]) / det
    return {
        "slope": float(slope),
        "intercept": float(intercept),
        "slope_sigma": math.sqrt(max(cov[0, 0], 0.0)),
        "cov": cov,
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


def configured_state(cfg: ExperimentConfig, kind: str | tuple | None = None,
                     theta_b: float | np.ndarray | None = None):
    """The two-photon state after the configured source, noise and both
    arm rotations, with the analyzer-frame offsets (_offsets) on top of the
    physical rotations. kind/theta_b overrides replace the configured source
    state or arm-B angle (radians); an array of arm-B angles gives a stack
    with one state per angle, and a tuple of kinds one such stack per kind:
    arm A turns the sources, then arm B the stack they broadcast to."""
    stacked = not (kind is None or isinstance(kind, str))
    kinds = [cfg.state_kind if k is None else k for k in (kind if stacked else (kind,))]
    rho = _apply_noise(np.array([separable_state(ket(cfg.ket_a), ket(cfg.ket_b))
                                 if k == "separable" else bell_state(k) for k in kinds]),
                       cfg.visibility)
    pbs_a, hwp, pbs_b = _offsets(cfg, kinds)
    theta_b = np.asarray(cfg.arm_b.theta() if theta_b is None else theta_b) + pbs_b
    rho = rotate_arm(rho, cfg.arm_a.theta() + pbs_a + hwp, 0)
    out = rotate_arm(rho.reshape((len(kinds),) + (1,) * theta_b.ndim + (4, 4)), theta_b, 1)
    return out if stacked else out[0]


def _named_counts(cfg: ExperimentConfig, kinds: tuple, theta_b, exact: bool) -> np.ndarray:
    # named-setting counts, shape (len(kinds),) + shape(theta_b) + (3, 4): the
    # exact means from one Born call, or their Poisson draws, each Bell kind
    # from its own stream (cfg.seed, its BELL_KINDS index): 0 psi_plus, 1 psi_minus
    means = _mean_counts(configured_state(cfg, kinds, theta_b), NAMED_PAIRS, cfg.detection)
    if exact:
        return means
    seeds = [np.random.SeedSequence(cfg.seed, spawn_key=(BELL_KINDS.index(k),)) for k in kinds]
    return np.stack([np.random.default_rng(s).poisson(m) for m, s in zip(means, seeds)])


def _provenance(cfg: ExperimentConfig, exact: bool) -> dict:
    return {
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "version": __version__,
        "exact": int(exact),
    }


def _molarity_sweep(cfg: ExperimentConfig, exact: bool) -> SweepResult:
    """Sweep the arm-B solution molarity at a fixed arm-A rotation and
    extract the offset-corrected effective rotation of the configured
    Bell state per point, on arm B's slope."""
    molarities = sorted(cfg.sweep_values)
    theta_b = np.radians(cfg.arm_b.slope_deg_per_molar * np.array(molarities))
    obs = _observables(_named_counts(cfg, (cfg.state_kind,), theta_b, exact)[0])
    _check_factors((cfg.state_kind,), [(obs.m_zz, obs.m_xz)])
    theta, sig = rotation_from_observables(obs.m_zz, obs.m_xz, obs.sigma_zz, obs.sigma_xz)
    theta = _remove_offsets(cfg, cfg.state_kind, theta)
    return SweepResult(
        variable="molarity_b",
        columns=("molarity", "theta_deg", "sigma_deg",
                 "m_zz", "m_xz", "sigma_zz", "sigma_xz"),
        rows=np.column_stack((molarities, np.degrees(theta), np.degrees(sig),
                              obs.m_zz, obs.m_xz, obs.sigma_zz, obs.sigma_xz)),
        provenance=_provenance(cfg, exact),
    )


def _theta_sweep(cfg: ExperimentConfig, exact: bool) -> SweepResult:
    """Sweep the arm-B rotation angle with both Bell branches at a fixed
    arm-A rotation; reports per point the joint observables of both
    branches, the offset-corrected effective rotations, and the local
    angles, their half-sum and half-difference."""
    kinds = ("psi_plus", "psi_minus")
    values = sorted(cfg.sweep_values)
    theta_b = np.radians(values)
    obs = _observables(_named_counts(cfg, kinds, theta_b, exact))  # both in one stack
    _check_factors(kinds, zip(obs.m_zz, obs.m_xz))
    thetas, (sig_p, sig_m) = rotation_from_observables(
        obs.m_zz, obs.m_xz, obs.sigma_zz, obs.sigma_xz)
    th_p, th_m = np.degrees([_remove_offsets(cfg, k, theta)
                             for k, theta in zip(kinds, thetas)])
    return SweepResult(
        variable="theta_b",
        columns=("theta_b_deg",
                 "m_zz_plus", "m_xz_plus", "m_zz_minus", "m_xz_minus",
                 "sigma_zz_plus", "sigma_xz_plus", "sigma_zz_minus", "sigma_xz_minus",
                 "theta_plus_deg", "sigma_plus_deg",
                 "theta_minus_deg", "sigma_minus_deg",
                 "theta_a_hat_deg", "theta_b_hat_deg"),
        rows=np.column_stack((
            values, obs.m_zz[0], obs.m_xz[0], obs.m_zz[1], obs.m_xz[1],
            obs.sigma_zz[0], obs.sigma_xz[0], obs.sigma_zz[1], obs.sigma_xz[1],
            th_p, np.degrees(sig_p), th_m, np.degrees(sig_m),
            *_local_angles(th_p, th_m, 90.0))),
        provenance=_provenance(cfg, exact),
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


def run_scan(cfg: ExperimentConfig, search_range: tuple[float, float], exact: bool) -> float:
    """The arm-A rotation (radians) that scan_theta_a finds from the psi_minus
    branch's counts at the arm-B angles _SCAN_GRID, offsets off (the optimum
    matches arm B to arm A's angle in the analyzer frame), then moved once to
    its representative inside search_range. A non-finite or empty
    search_range raises before any count is drawn."""
    lo, hi = search_range
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"search_range must be finite, got ({lo}, {hi})")
    if hi <= lo:
        raise ValueError(f"empty search range ({lo}, {hi})")
    obs = _observables(_named_counts(cfg, ("psi_minus",), _SCAN_GRID, exact)[0])
    theta = scan_theta_a(_SCAN_GRID, obs)
    return _in_window(_remove_offsets(cfg, "psi_minus", theta), lo, hi)


def _in_window(theta: float, lo: float, hi: float) -> float:
    """The representative theta + k pi inside [lo, hi] nearest 0, the lower
    one on a tie; a window that holds none raises."""
    theta = math.remainder(theta, math.pi)
    # the representatives theta + k pi inside the window are k_lo <= k <= k_hi
    k_lo, k_hi = math.ceil((lo - theta) / math.pi), math.floor((hi - theta) / math.pi)
    if k_lo > k_hi:
        raise ValueError("no anticorrelation optimum inside the search range; "
                         "widen the range so it covers theta_a mod pi")
    # |theta + k pi| is least at k = 0, or at k = -1 and 0 alike for theta =
    # pi/2 (the lower k wins), and grows away from there: clamp into the window
    k = min(max(-1 if theta == math.pi / 2 else 0, k_lo), k_hi)
    return theta + math.pi * k


def write_sweep(result: SweepResult, path) -> None:
    """Write a sweep result as CSV with '#'-prefixed provenance lines.
    Angle columns (named *_deg) carry six decimal places, with no negative
    zero."""
    metadata = [(key, result.provenance[key]) for key in sorted(result.provenance)]
    metadata.append(("variable", result.variable))
    # %.6f and %.10g write the bytes of {:.6f} and {:.10g}, -0, inf and nan
    # included; unsigned_zeros then drops the sign of a %.6f zero
    row_format = ",".join("%.6f" if name.endswith("_deg") else "%.10g"
                          for name in result.columns)
    write_csv(path, metadata, ",".join(result.columns),
              ([unsigned_zeros(row_format % tuple(row))] for row in result.rows.tolist()))
