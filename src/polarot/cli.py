"""Command-line front end.

Subcommands: simulate, observables, extract, scan, tomo, chsh, sweep,
fisher, verify. Exit codes: 0 success, 1 usage error, 2 data or
validation error, 3 non-convergence. The POLAROT_OUT environment variable
sets the directory against which relative output paths are resolved.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .channels import apply_noise, local_rotations
from .config import load_config
from .csvfile import read_csv, row_floats, write_csv
from .measure import (JointObservables, chsh_from_counts, chsh_s, estimate_observables,
                      exact_observables, exact_table, extract_thetas, read_table,
                      simulate_counts, write_table)
from .metrology import MAX_TRIALS, qfi, variance_scaling
from .states import (ID2, PAULI_X, PAULI_Y, PAULI_Z, bell_state, fidelity, ket,
                     maximally_mixed, save_state, separable_state, validate_state)
from .sweeps import configured_state, run_scan, run_sweep, write_sweep
from .tomography import (DESIGN, _report, bootstrap_sigmas, mle_reconstruct,
                         predicted_counts, read_tomo_counts)

OUT_ENV = "POLAROT_OUT"
_OBSERVABLES = ("m_zz", "m_xz", "m_zx")
_OBSERVABLES_HEADER = "observable,value,sigma"


def _resolve_out(path_str: str) -> Path:
    path = Path(path_str)
    base = os.environ.get(OUT_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _load_config_with_override(args):
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        from dataclasses import replace
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _cmd_simulate(args) -> int:
    cfg = _load_config_with_override(args)
    rho = configured_state(cfg)
    table = (exact_table(rho, cfg.setting_pairs, cfg.detection) if args.exact
             else simulate_counts(rho, cfg.setting_pairs, cfg.detection, cfg.seed))
    out = _resolve_out(args.out)
    write_table(table, out)
    print(f"wrote {len(table.settings)} settings to {out}")
    return 0


def _write_observables(path: Path, obs: JointObservables) -> None:
    write_csv(path, (), _OBSERVABLES_HEADER,
              ([name, f"{getattr(obs, name):.17g}",
                f"{getattr(obs, 'sigma_' + name[2:]):.17g}"]
               for name in _OBSERVABLES))


def _read_observables(path) -> JointObservables:
    _, rows = read_csv(path, _OBSERVABLES_HEADER)
    values = {}
    for row in rows:
        if row[0] not in _OBSERVABLES:
            raise ValueError(f"{path}: row {','.join(row)!r} names no observable of "
                             f"{_OBSERVABLES}")
        if row[0] in values:
            raise ValueError(f"{path}: row {','.join(row)!r} repeats observable {row[0]}")
        values[row[0]] = row_floats(path, row, 1)
    missing = sorted(set(_OBSERVABLES) - set(values))
    if missing:
        raise ValueError(f"observables file {path} is missing rows: {missing}")
    if not np.isfinite(list(values.values())).all():
        raise ValueError(f"observables file {path} has non-finite values")
    return JointObservables(*(values[name][0] for name in _OBSERVABLES),
                            *(values[name][1] for name in _OBSERVABLES))


def _cmd_observables(args) -> int:
    table = read_table(args.table)
    obs = estimate_observables(table)
    for name in _OBSERVABLES:
        sigma = getattr(obs, "sigma_" + name[2:])
        print(f"{name} = {getattr(obs, name):+.9f} +- {sigma:.9f}")
    if args.out:
        _write_observables(_resolve_out(args.out), obs)
    return 0


def _cmd_extract(args) -> int:
    obs_plus = _read_observables(args.plus)
    obs_minus = _read_observables(args.minus)
    theta_a, theta_b = extract_thetas(obs_plus, obs_minus,
                                      modulus_floor=args.modulus_floor)
    cells = [f"{math.degrees(theta_a):.6f}", f"{math.degrees(theta_b):.6f}"]
    print(", ".join(cells))
    if args.out:
        write_csv(_resolve_out(args.out), (), "theta_a_deg,theta_b_deg", [cells])
    return 0


def _cmd_scan(args) -> int:
    cfg = _load_config_with_override(args)
    theta_a = run_scan(cfg, tuple(math.radians(v) for v in args.range_deg),
                       math.radians(args.resolution_deg), args.noise_floor, args.exact)
    print(f"{math.degrees(theta_a):.6f}")
    return 0


def _cmd_tomo(args) -> int:
    if args.bootstrap < 0:
        raise ValueError(f"--bootstrap must be >= 0, got {args.bootstrap}")
    if args.bootstrap == 1:
        raise ValueError("--bootstrap must be 0 (off) or at least 2, got 1: "
                         "one resample has no spread")
    if args.max_iter < 0:
        raise ValueError(f"--max-iter must be >= 0, got {args.max_iter}")
    for flag, value in (("--bootstrap", args.bootstrap), ("--out", args.out)):
        if value and not args.reference:
            raise ValueError(f"{flag} needs --reference: it applies to the report")
    reference = bell_state(args.reference) if args.reference else None
    counts, _ = read_tomo_counts(args.counts)
    result = mle_reconstruct(counts, max_iter=args.max_iter)
    print(f"log_likelihood = {result.log_likelihood:.6f}")
    print(f"converged = {result.converged} (iterations {result.n_iter}, "
          f"KKT gap {result.kkt_gap:.3g})")
    if args.out_state:
        save_state(_resolve_out(args.out_state), result.rho)
    if args.reference:
        report = _report(result.rho, reference)
        sigmas = {}
        if args.bootstrap > 0:
            sigmas = bootstrap_sigmas(result.rho, counts, reference,
                                      n_resamples=args.bootstrap, seed=args.seed or 0)
        lines = []
        for key, value in report.items():
            if key in sigmas:
                lines.append(f"{key} = {value:.6f} +- {sigmas[key]:.6f}")
            else:
                lines.append(f"{key} = {value:.6f}")
        print("\n".join(lines))
        if args.out:
            with open(_resolve_out(args.out), "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
    if not result.converged:
        return 3
    return 0


def _cmd_chsh(args) -> int:
    table = read_table(args.table)
    s, sigma = chsh_from_counts(table)
    significance = (s - 2.0) / sigma if sigma > 0 else (math.inf if s > 2.0 else 0.0)
    print(f"S = {s:.6f} +- {sigma:.6f}")
    print(f"violation significance = {significance:.2f} sigma")
    return 0


def _cmd_sweep(args) -> int:
    result = run_sweep(_load_config_with_override(args), exact=args.exact)
    out = _resolve_out(args.out)
    write_sweep(result, out)
    print(f"wrote {len(result.rows)} sweep points to {out}")
    return 0


def _cmd_fisher(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    if args.trials > MAX_TRIALS:
        raise ValueError(f"--trials must be at most {MAX_TRIALS:,}, got {args.trials:,}")
    if args.counts_per_trial < 1:
        raise ValueError(f"--counts-per-trial must be >= 1, got {args.counts_per_trial}")
    if not math.isfinite(args.theta_deg):
        raise ValueError(f"--theta-deg must be finite, got {args.theta_deg}")
    try:
        n_values = [int(v) for v in args.n_values.split(",")]
    except ValueError:
        raise ValueError(f"--n-values must be comma-separated integers, "
                         f"got {args.n_values!r}") from None
    # numpy's binomial draws take at most an int64 photon count
    if max(n_values) * args.counts_per_trial > np.iinfo(np.int64).max:
        raise ValueError(f"--n-values times --counts-per-trial must be at most "
                         f"{np.iinfo(np.int64).max:,} photons")
    rows = []
    if args.trials > 0:
        scaling = variance_scaling(n_values, args.trials, args.counts_per_trial,
                                   args.seed or 0, theta=math.radians(args.theta_deg))
        for n, bound, var_sim in scaling:
            rows.append((n, qfi(n), bound, var_sim))
        header = "n,qfi,var_entangled_bound,var_separable_sim"
    else:
        for n in n_values:
            rows.append((n, qfi(n), 1.0 / (4.0 * n * n)))
        header = "n,qfi,var_entangled_bound"
    cells = [[f"{v:.10g}" for v in row] for row in rows]
    print("\n".join([header] + [",".join(row) for row in cells]))
    if args.out:
        write_csv(_resolve_out(args.out), (), header, cells)
    return 0


def _verify_checks():
    def pauli_algebra():
        paulis = np.array((PAULI_X, PAULI_Y, PAULI_Z))
        i, j, k = np.indices((3, 3, 3))
        eps = (i - j) * (j - k) * (k - i) / 2  # the Levi-Civita symbol
        prod = paulis[:, None] @ paulis[None, :]
        expect = (np.eye(3)[..., None, None] * ID2
                  + 1j * np.einsum("jkl,lab->jkab", eps, paulis))
        worst = np.abs(prod - expect).max()
        return worst <= 1e-14, f"max deviation {worst:.2e}"

    def rotation_group():
        t1, t2 = np.random.default_rng(1).uniform(-np.pi, np.pi, (100, 2)).T[..., None]
        arm = np.array([1.0, 0.0])  # U(t) (x) I, then I (x) U(t)

        def u(t):
            return local_rotations(t * arm, t * arm[::-1])

        worst = np.abs(u(t1) @ u(t2) - u(t1 + t2)).max()
        return worst <= 1e-12, f"max deviation {worst:.2e}"

    signs = np.array([[1.0], [-1.0]])  # of theta_b in psi_plus, psi_minus

    def evolve(ta, tb):
        """psi_plus and psi_minus on a leading axis, rotated by (ta, tb)."""
        bells = np.array([bell_state("psi_plus"), bell_state("psi_minus")])[:, None]
        u = local_rotations(ta, tb)  # real, so its transpose is its adjoint
        return u @ bells @ u.swapaxes(-2, -1)

    def bell_equivalence():
        ta, tb = np.random.default_rng(2).uniform(-np.pi, np.pi, (100, 2)).T
        worst = np.abs(evolve(ta, tb) - evolve(ta + signs * tb, 0.0)).max()
        return worst <= 1e-12, f"max deviation {worst:.2e}"

    def closed_forms():
        ta, tb = np.random.default_rng(3).uniform(-np.pi, np.pi, (200, 2)).T
        obs = exact_observables(evolve(ta, tb))
        tpm = ta + signs * tb
        worst = max(np.abs(obs.m_zz + np.cos(2 * tpm)).max(),
                    np.abs(obs.m_xz + np.sin(2 * tpm)).max(),
                    np.abs(obs.m_xz - signs * obs.m_zx).max())
        return worst <= 1e-12, f"max deviation {worst:.2e}"

    def separable_contrast():
        # |H>|V> on a 19 x 73 grid of (theta_a, theta_b); the swing of m_zz
        # over theta_b is |cos 2 theta_a|
        ta = np.linspace(-np.pi / 2, np.pi / 2, 19)[:, None]
        u = local_rotations(ta, np.linspace(-np.pi, np.pi, 73))
        rho = u @ separable_state(ket("H"), ket("V")) @ u.swapaxes(-2, -1)
        swing = np.abs(exact_observables(rho).m_zz).max(axis=-1)
        worst = np.abs(swing - np.abs(np.cos(2 * ta[:, 0]))).max()
        return worst <= 1e-12, f"amplitude deviation {worst:.2e}"

    def extraction_round_trip():
        angles = np.radians(np.linspace(-44, 44, 12))
        ta, tb = np.meshgrid(angles, angles)
        obs_p = JointObservables(-np.cos(2 * (ta + tb)), -np.sin(2 * (ta + tb)), 0.0)
        obs_m = JointObservables(-np.cos(2 * (ta - tb)), -np.sin(2 * (ta - tb)), 0.0)
        ta_hat, tb_hat = extract_thetas(obs_p, obs_m)
        worst = max(np.abs(ta_hat - ta).max(), np.abs(tb_hat - tb).max())
        return worst <= 1e-9, f"max angle error {worst:.2e} rad"

    def chsh_analytic():
        angles = [math.radians(v) for v in (0.0, 45.0, 22.5, 67.5)]
        s_bell = chsh_s(bell_state("psi_plus"), *angles)
        s_mixed = chsh_s(maximally_mixed(), *angles)
        ok = abs(s_bell - 2 * math.sqrt(2)) <= 1e-9 and abs(s_mixed) <= 1e-12
        return ok, f"S = {s_bell:.9f}, mixed {s_mixed:.1e}"

    def tomography_rank():
        rank = np.linalg.matrix_rank(DESIGN)
        return rank == 16, f"design rank {rank}"

    def mle_self_consistency():
        counts = predicted_counts(bell_state("psi_plus"), flux_norm=1e6)
        result = mle_reconstruct(counts)
        fid = fidelity(result.rho, bell_state("psi_plus"))
        return fid >= 0.9999, f"fidelity {fid:.6f}"

    def qfi_closed_form():
        worst = max(abs(qfi(n) - 4.0 * n * n) for n in range(1, 9))
        return worst <= 1e-10, f"max deviation {worst:.2e}"

    def noise_physicality():
        validate_state(np.array([apply_noise(bell_state("psi_minus"), float(p))
                                 for p in np.linspace(0.0, 1.0, 11)]))
        return True, "trace-preserving and PSD for the full mixing range"

    return [
        ("pauli-algebra", pauli_algebra),
        ("rotation-group", rotation_group),
        ("bell-nonlocal-equivalence", bell_equivalence),
        ("joint-observable-closed-forms", closed_forms),
        ("separable-contrast-amplitude", separable_contrast),
        ("extraction-round-trip", extraction_round_trip),
        ("chsh-analytic", chsh_analytic),
        ("tomography-design-rank", tomography_rank),
        ("mle-exact-self-consistency", mle_self_consistency),
        ("qfi-closed-form", qfi_closed_form),
        ("noise-physicality", noise_physicality),
    ]


def _cmd_verify(args) -> int:
    failures = 0
    for name, check in _verify_checks():
        try:
            ok, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {exc!r}"
        status = "ok" if ok else "FAIL"
        print(f"{status}: {name} ({detail})")
        failures += not ok
    return 0 if failures == 0 else 2


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarot",
        description="simulate and analyze optical-rotation measurements "
                    "with polarization-entangled photon pairs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run(p):
        """The options of the commands that run an experiment config."""
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--exact", action="store_true",
                       help="emit exact Born-rule expectations instead of sampling")

    p = sub.add_parser("simulate", help="simulate a coincidence table from a config")
    add_run(p)
    p.add_argument("--out", default="counts.csv", help="output file path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("observables", help="estimate joint observables from a table")
    p.add_argument("--table", required=True, help="coincidence table file")
    p.add_argument("--out", help="output file path")
    p.set_defaults(func=_cmd_observables)

    p = sub.add_parser("extract", help="extract both rotation angles from "
                                       "plus- and minus-branch observables")
    p.add_argument("--plus", required=True, help="observables file, addition branch")
    p.add_argument("--minus", required=True, help="observables file, cancellation branch")
    p.add_argument("--modulus-floor", type=float, default=1e-6)
    p.add_argument("--out", help="output file path")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("scan", help="wide-range search for the arm-A rotation")
    add_run(p)
    p.add_argument("--range-deg", nargs=2, type=float, default=(-90.0, 90.0),
                   metavar=("LO", "HI"), help="search window in degrees")
    p.add_argument("--resolution-deg", type=float, default=5.0)
    p.add_argument("--noise-floor", type=float, default=1e-3,
                   help="smallest accepted modulus of the mean grid phasor "
                        "(the source visibility, for exact data)")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("tomo", help="maximum-likelihood state reconstruction")
    p.add_argument("--counts", required=True, help="tomography counts file")
    p.add_argument("--reference", default=None,
                   help="Bell-state label for the comparison report")
    p.add_argument("--out-state", default=None, help="write the reconstructed matrix here")
    p.add_argument("--bootstrap", type=int, default=0,
                   help="number of parametric-bootstrap resamples (0 = off)")
    p.add_argument("--max-iter", type=int, default=5000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="output file path")
    p.set_defaults(func=_cmd_tomo)

    p = sub.add_parser("chsh", help="CHSH statistic from a coincidence table")
    p.add_argument("--table", required=True)
    p.set_defaults(func=_cmd_chsh)

    p = sub.add_parser("sweep", help="run the molarity or theta sweep from a config")
    add_run(p)
    p.add_argument("--out", default="sweep.csv", help="output file path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fisher", help="Fisher-information scaling table")
    p.add_argument("--n-values", default="1,2,4,8,16",
                   help="comma-separated photon numbers")
    p.add_argument("--trials", type=int, default=0,
                   help="Monte Carlo trials for the separable baseline (0 = bounds only)")
    p.add_argument("--counts-per-trial", type=int, default=1)
    p.add_argument("--theta-deg", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="output file path")
    p.set_defaults(func=_cmd_fisher)

    p = sub.add_parser("verify", help="run the analytic invariant suite")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
