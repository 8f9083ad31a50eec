"""Scripted experiment sweeps and the calibration line fit.

Both sweep runners and the CLI scan share one pipeline, which runs a
whole array of arm-B angles at once: build the source state, fold
analyzer offsets into the local rotations, simulate (or emit exact
expectations for) the named-basis coincidence settings and estimate the
joint observables, one JointObservables whose fields hold one entry per
angle. A theta sweep runs both Bell branches through it as one stack;
observables_at is its one-branch view. The sweeps then convert those
arrays back to rotation angles with the offsets removed, a column at a
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .channels import _apply_noise, local_rotations, offset_correct
from .config import ExperimentConfig, config_hash
from .csvfile import write_csv
from .measure import (NAMED_PAIRS, JointObservables, _mean_counts, _observables,
                      _pair_probabilities, _sample, extract_thetas,
                      rotation_from_observables)
from .states import bell_state, ket, separable_state

__all__ = ["SweepResult", "configured_state", "observables_at", "fit_line",
           "zero_crossing", "run_molarity_sweep", "run_theta_sweep", "write_sweep"]


@dataclass
class SweepResult:
    variable: str
    columns: tuple
    rows: np.ndarray
    provenance: dict


def _wls(x, y, sigma):
    w = 1.0 / np.asarray(sigma, dtype=float) ** 2
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = w.sum()
    sx, sy = (w * x).sum(), (w * y).sum()
    sxx, sxy = (w * x * x).sum(), (w * x * y).sum()
    det = s * sxx - sx * sx
    if det <= 0:
        raise ValueError("degenerate abscissa: line fit is underdetermined")
    slope = (s * sxy - sx * sy) / det
    intercept = (sxx * sy - sx * sxy) / det
    cov = np.array([[s, -sx], [-sx, sxx]]) / det  # [[var_slope, cov], [cov, var_int]]
    return slope, intercept, cov


def fit_line(points) -> dict:
    """Weighted least-squares straight line through (x, y, sigma) points.

    Points may be (x, y) pairs, in which case the parameter uncertainties
    are scaled to the residual scatter; with explicit sigmas they are
    absolute. R^2 is 1 - SS_res/SS_tot (weighted), defined as 1 when both
    sums vanish (constant data fitted exactly).
    """
    pts = [tuple(p) for p in points]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points to fit a line, got {len(pts)}")
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts], dtype=float)
    has_sigma = len(pts[0]) > 2
    sigma = np.array([p[2] for p in pts], dtype=float) if has_sigma else np.ones_like(x)
    if has_sigma and (sigma <= 0).any():
        raise ValueError("point sigmas must be positive")
    if np.allclose(x, x[0]):
        raise ValueError("degenerate abscissa: all x values are equal")
    slope, intercept, cov = _wls(x, y, sigma)
    w = 1.0 / sigma ** 2
    resid = y - (slope * x + intercept)
    ss_res = float((w * resid ** 2).sum())
    ybar = float((w * y).sum() / w.sum())
    ss_tot = float((w * (y - ybar) ** 2).sum())
    if not has_sigma:
        dof = len(pts) - 2
        cov = cov * (ss_res / dof if dof > 0 else 0.0)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return {
        "slope": float(slope),
        "intercept": float(intercept),
        "slope_sigma": float(math.sqrt(max(cov[0, 0], 0.0))),
        "intercept_sigma": float(math.sqrt(max(cov[1, 1], 0.0))),
        "r_squared": float(r_squared),
    }


def zero_crossing(x, y, sigma) -> tuple[float, float]:
    """Root of the weighted line fit, x0 = -intercept/slope, with its
    standard error from the full parameter covariance."""
    slope, intercept, cov = _wls(x, y, sigma)
    if slope == 0.0:
        raise ValueError("zero slope: the fitted line has no root")
    x0 = -intercept / slope
    grad = np.array([intercept / slope ** 2, -1.0 / slope])  # d x0 / d(slope, intercept)
    var = float(grad @ cov @ grad)
    return float(x0), math.sqrt(max(var, 0.0))


def configured_state(cfg: ExperimentConfig, kind: str | tuple | None = None,
                     theta_a: float | None = None, theta_b: float | None = None):
    """The two-photon state after the configured source, noise and both
    arm rotations. Analyzer-frame offsets ride on top of the physical
    rotations; the state-exchanging wave plate contributes only in
    cancellation (psi_minus) runs. kind/theta overrides replace the
    configured source state or arm angles (radians); an array of arm-B
    angles gives a stack with one state per angle, and a tuple of kinds one
    such stack per kind. The real and imaginary parts of the sources are
    rotated apart, as real products (the complex product, bit for bit)."""
    stacked = not (kind is None or isinstance(kind, str))
    kinds = [cfg.state_kind if k is None else k for k in (kind if stacked else (kind,))]
    rho = _apply_noise(np.array([separable_state(ket(cfg.ket_a), ket(cfg.ket_b))
                                 if k == "separable" else bell_state(k) for k in kinds]),
                       cfg.visibility)
    theta_a = (cfg.arm_a.theta() if theta_a is None else theta_a) + cfg.pbs_a
    theta_a = np.array([theta_a + cfg.hwp if k == "psi_minus" else theta_a for k in kinds])
    theta_b = np.asarray(cfg.arm_b.theta() if theta_b is None else theta_b) + cfg.pbs_b
    u = local_rotations(theta_a.reshape((-1,) + (1,) * theta_b.ndim), theta_b)
    rho = rho.reshape((len(kinds),) + (1,) * theta_b.ndim + (4, 4))
    out = np.empty(u.shape, dtype=complex)
    out.real, out.imag = (u @ part @ u.swapaxes(-2, -1) for part in (rho.real, rho.imag))
    return out if stacked else out[0]


def _named_counts(cfg: ExperimentConfig, kinds: tuple, theta_a, theta_b, exact: bool,
                  keys: tuple) -> np.ndarray:
    # named-setting counts, shape (len(kinds),) + shape(theta_b) + (3, 4), from
    # one Born call; kind k samples its own stream, (cfg.seed, keys[k])
    rho = configured_state(cfg, kinds, theta_a, theta_b)
    if exact:
        return _mean_counts(rho, NAMED_PAIRS, cfg.detection)
    probs = _pair_probabilities(rho, NAMED_PAIRS)
    return np.stack([_sample(p, cfg.detection,
                             np.random.SeedSequence(cfg.seed, spawn_key=key))
                     for p, key in zip(probs, keys)])


def observables_at(cfg: ExperimentConfig, kind: str | None,
                   theta_a: float | None, theta_b, exact: bool,
                   key: tuple) -> JointObservables:
    """Joint observables of the configured state (overrides as in
    configured_state) measured in the named (Z,Z), (X,Z), (Z,X) settings,
    as arrays with one entry per angle in the array theta_b. The sampled
    counts of all the angles draw from the one stream
    SeedSequence(cfg.seed, spawn_key=key), so an angle's counts depend on
    the number and order of the angles in theta_b."""
    return _observables(_named_counts(cfg, (kind,), theta_a, theta_b, exact, (key,))[0])


def _provenance(cfg: ExperimentConfig, exact: bool) -> dict:
    return {
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "version": __version__,
        "exact": int(exact),
    }


def run_molarity_sweep(cfg: ExperimentConfig, exact: bool = False) -> SweepResult:
    """Sweep the arm-B solution molarity at a fixed arm-A rotation and
    extract the offset-corrected effective rotation of the configured
    Bell state per point."""
    if cfg.sweep_variable != "molarity_b":
        raise ValueError(f"molarity sweep needs sweep variable 'molarity_b', "
                         f"got {cfg.sweep_variable!r}")
    if cfg.state_kind not in ("psi_plus", "psi_minus"):
        raise ValueError("molarity sweeps are defined for the psi_plus or "
                         "psi_minus source state")
    if cfg.arm_b.molarity is None:
        raise ValueError("molarity sweeps need a solution-type arm_b")
    which = "plus" if cfg.state_kind == "psi_plus" else "minus"
    molarities = sorted(cfg.sweep_values)
    if molarities[0] < 0:
        raise ValueError(f"negative molarity {molarities[0]}")
    theta_b = np.radians(cfg.arm_b.slope_deg_per_molar * np.array(molarities))
    obs = observables_at(cfg, cfg.state_kind, cfg.arm_a.theta(), theta_b, exact, (0,))
    theta_exp, sig = rotation_from_observables(obs.m_zz, obs.m_xz,
                                               obs.sigma_zz, obs.sigma_xz)
    theta = offset_correct(theta_exp, which, cfg.pbs_a, cfg.pbs_b, cfg.hwp)
    return SweepResult(
        variable="molarity_b",
        columns=("molarity", "theta_deg", "sigma_deg",
                 "m_zz", "m_xz", "sigma_zz", "sigma_xz"),
        rows=np.column_stack((molarities, np.degrees(theta), np.degrees(sig),
                              obs.m_zz, obs.m_xz, obs.sigma_zz, obs.sigma_xz)),
        provenance=_provenance(cfg, exact),
    )


def run_theta_sweep(cfg: ExperimentConfig, exact: bool = False) -> SweepResult:
    """Sweep the arm-B rotation angle with both Bell branches at a fixed
    arm-A rotation; reports per point the joint observables of both
    branches, the offset-corrected effective rotations, and the
    jointly extracted, offset-corrected local angles."""
    if cfg.sweep_variable != "theta_b":
        raise ValueError(f"theta sweep needs sweep variable 'theta_b', "
                         f"got {cfg.sweep_variable!r}")
    theta_a = cfg.arm_a.theta()
    values = sorted(cfg.sweep_values)
    theta_b = np.radians(values)
    # both branches in one stack; branch k samples its own stream, (cfg.seed, k)
    obs = _observables(_named_counts(cfg, ("psi_plus", "psi_minus"), theta_a,
                                     theta_b, exact, ((0,), (1,))))
    (th_p, th_m), (sig_p, sig_m) = rotation_from_observables(
        obs.m_zz, obs.m_xz, obs.sigma_zz, obs.sigma_xz)
    th_p = offset_correct(th_p, "plus", cfg.pbs_a, cfg.pbs_b, cfg.hwp)
    th_m = offset_correct(th_m, "minus", cfg.pbs_a, cfg.pbs_b, cfg.hwp)
    obs_p, obs_m = (JointObservables(*m) for m in zip(obs.m_zz, obs.m_xz, obs.m_zx))
    # the wave plate rotates arm A in the minus branch only, so the
    # extracted angles carry pbs_a + hwp/2 (arm A) and pbs_b - hwp/2 (arm B);
    # wrapping after the subtraction keeps the readouts in the +-45 deg
    # window (x - q round(x / q) is math.remainder(x, q) elementwise)
    hats = np.array(extract_thetas(obs_p, obs_m)) - [[cfg.pbs_a + cfg.hwp / 2.0],
                                                     [cfg.pbs_b - cfg.hwp / 2.0]]
    hats -= math.pi / 2 * np.round(hats / (math.pi / 2))
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
            *np.degrees((th_p, sig_p, th_m, sig_m, *hats)))),
        provenance=_provenance(cfg, exact),
    )


def write_sweep(result: SweepResult, path) -> None:
    """Write a sweep result as CSV with '#'-prefixed provenance lines.
    Angle columns (named *_deg) carry six decimal places."""
    metadata = [(key, result.provenance[key]) for key in sorted(result.provenance)]
    metadata.append(("variable", result.variable))
    # %.6f and %.10g write the bytes of {:.6f} and {:.10g}, -0, inf and nan included
    row_format = ",".join("%.6f" if name.endswith("_deg") else "%.10g"
                          for name in result.columns)
    write_csv(path, metadata, ",".join(result.columns),
              ([row_format % tuple(row)] for row in result.rows.tolist()))
