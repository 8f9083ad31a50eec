"""Command-line front end.

Subcommands: simulate, observables, extract, scan, tomo, chsh, sweep,
fisher, verify. Exit codes: 0 success, 1 usage error, 2 data or
validation error, 3 non-convergence. Commands only compute: each returns
its exit code, stdout lines and {output path: writer}. `main` alone emits.
It resolves each output flag against $POLAROT_OUT and checks that the path
can take a file before the command runs, and writes the files, then stdout,
after it returns; so an exit 2 prints and writes nothing.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .channels import apply_noise, rotate_arm
from .config import ACCEPTS, check_reads, load_config
from .csvfile import read_labeled, unsigned_zeros, write_csv
from .measure import (Detection, chsh_from_counts, estimate_observables, exact_observables,
                      exact_table, extract_thetas, read_table, simulate_counts,
                      write_table)
from .metrology import qfi, variance_scaling
from .states import (ID2, PAULI_X, PAULI_Y, PAULI_Z, bell_state, fidelity, ket,
                     maximally_mixed, save_state, separable_state, validate_state)
from .sweeps import configured_state, run_scan, run_sweep, write_sweep
from .tomography import (DESIGN, _report, bootstrap_sigmas, mle_reconstruct,
                         predicted_counts, read_tomo_counts)

OUT_ENV = "POLAROT_OUT"
OUTPUTS = ("--out", "--out-state")  # the flags that name an output file
_OBSERVABLES = ("m_zz", "m_xz", "m_zx")
_OBSERVABLES_HEADER = "observable,value,sigma"


def _resolve_outputs(args) -> None:
    """Set each output flag given to its path, resolved against $POLAROT_OUT;
    reject a path that cannot take a file, and two flags that name one file."""
    base = os.environ.get(OUT_ENV)
    paths = {}
    for flag in OUTPUTS:
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest, None) is None:
            continue
        path = Path(base or "", getattr(args, dest))  # an absolute path ignores base
        existing = next(p for p in (path, *path.parents) if p.exists())
        if existing is path and path.is_dir():
            raise ValueError(f"{flag} {path} is a directory")
        if existing is not path and not existing.is_dir():
            raise ValueError(f"{flag} {path}: {existing} is not a directory")
        paths[flag] = path
        setattr(args, dest, path)
    # resolve() costs more than the checks above, so it runs only for two paths
    if len(paths) > 1 and len({p.resolve() for p in paths.values()}) < len(paths):
        raise ValueError(f"{' and '.join(paths)} name one file, {path}")


def _load_config_with_override(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        from dataclasses import replace
        cfg = replace(cfg, seed=args.seed)
    # run_sweep checks a sweep config, against the run its [sweep] variable names
    check_reads(cfg, args.command)
    return cfg


def _cmd_simulate(args) -> tuple:
    cfg = _load_config_with_override(args)
    rho = configured_state(cfg, (cfg.state_kind,), cfg.arm_b.theta())[0]
    table = (exact_table(rho, cfg.setting_pairs, cfg.detection) if args.exact
             else simulate_counts(rho, cfg.setting_pairs, cfg.detection, cfg.seed))
    return (0, [f"wrote {len(table.settings)} settings to {args.out}"],
            {args.out: lambda path: write_table(table, path)})


def _read_observables(path) -> np.ndarray:
    # the M_zz, M_xz, M_zx values; read_labeled checks the sigma column too
    _, values = read_labeled(path, _OBSERVABLES_HEADER, _OBSERVABLES, "observable",
                             f"observable of {_OBSERVABLES}")
    return np.array([row[0] for row in values])


def _cmd_observables(args) -> tuple:
    rows = list(zip(_OBSERVABLES, *estimate_observables(read_table(args.table))))
    lines = [f"{name} = {m:+.9f} +- {sigma:.9f}" for name, m, sigma in rows]
    return 0, lines, {args.out: lambda path: write_csv(
        path, (), _OBSERVABLES_HEADER,
        ([name, f"{m:.17g}", f"{sigma:.17g}"] for name, m, sigma in rows))}


def _cmd_extract(args) -> tuple:
    thetas = extract_thetas(_read_observables(args.plus), _read_observables(args.minus))
    cells = [unsigned_zeros(f"{math.degrees(theta):.6f}") for theta in thetas]
    return 0, [", ".join(cells)], {args.out: lambda path: write_csv(
        path, (), "theta_a_deg,theta_b_deg", [cells])}


def _cmd_scan(args) -> tuple:
    # in [-90, 90) as printed, like the analyzer ids: a zero unsigned, and a
    # readout that rounds to 90 at six decimals is -90
    degrees = round(math.degrees(run_scan(_load_config_with_override(args), args.exact)), 6)
    return 0, [f"{-90.0 if degrees == 90.0 else degrees + 0.0:.6f}"], {}


def _cmd_tomo(args) -> tuple:
    reference = None if args.reference is None else bell_state(args.reference)
    counts, _ = read_tomo_counts(args.counts)
    result = mle_reconstruct(counts)
    sigmas = (bootstrap_sigmas(result.rho, counts, reference,  # --bootstrap needs --reference
                               n_resamples=args.bootstrap, seed=args.seed or 0)
              if args.bootstrap > 0 else {})
    metrics = {} if reference is None else _report(result.rho, reference)
    report = [unsigned_zeros(f"{key} = {value:.6f}"
                             + (f" +- {sigmas[key]:.6f}" if sigmas else ""))
              for key, value in metrics.items()]
    lines = [unsigned_zeros(f"log_likelihood = {result.log_likelihood:.6f}"),
             f"converged = {result.converged} (iterations {result.n_iter}, "
             f"KKT gap {result.kkt_gap:.3g})", *report]
    return (0 if result.converged else 3, lines,
            {args.out_state: lambda path: save_state(path, result.rho),
             args.out: lambda path: path.write_text("\n".join(report) + "\n",
                                                    encoding="utf-8")})


def _cmd_chsh(args) -> tuple:
    s, sigma = chsh_from_counts(read_table(args.table))
    significance = (s - 2.0) / sigma if sigma > 0 else (math.inf if s > 2.0 else 0.0)
    return 0, [unsigned_zeros(f"S = {s:.6f} +- {sigma:.6f}"),
               f"violation significance = {significance:.2f} sigma"], {}


def _cmd_sweep(args) -> tuple:
    result = run_sweep(_load_config_with_override(args), exact=args.exact)
    return (0, [f"wrote {len(result.rows)} sweep points to {args.out}"],
            {args.out: lambda path: write_sweep(result, path)})


def _cmd_fisher(args) -> tuple:
    try:
        n_values = [int(v) for v in args.n_values.split(",")]
    except ValueError:
        raise ValueError(f"--n-values must be comma-separated integers, "
                         f"got {args.n_values!r}") from None
    if min(n_values) < 1:
        raise ValueError(f"--n-values entries must be >= 1, got {min(n_values)}")
    # numpy's binomial draws take at most an int64 photon count
    if max(n_values) > np.iinfo(np.int64).max:
        raise ValueError(f"--n-values entries must be at most {np.iinfo(np.int64).max:,}")
    columns = [n_values, [qfi(n) for n in n_values], [1.0 / (4.0 * n * n) for n in n_values]]
    header = "n,qfi,var_entangled_bound"
    if args.trials > 0:
        columns.append(variance_scaling(n_values, args.trials, args.seed or 0,
                                        theta=math.radians(args.theta_deg)))
        header += ",var_separable_sim"
    cells = [[str(n)] + [f"{v:.10g}" for v in rest] for n, *rest in zip(*columns)]
    return (0, [header] + [",".join(row) for row in cells],
            {args.out: lambda path: write_csv(path, (), header, cells)})


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
        # t1 then t2 is t1 + t2 on each arm, on a matrix with complex entries
        # that a rotation of either arm moves (R alone only takes a phase)
        t1, t2 = np.random.default_rng(1).uniform(-np.pi, np.pi, (2, 100))
        rho = separable_state(ket("R"), ket("D")) + separable_state(ket("D"), ket("R"))
        worst = max(np.abs(rotate_arm(rotate_arm(rho, t1, arm), t2, arm)
                           - rotate_arm(rho, t1 + t2, arm)).max() for arm in (0, 1))
        return worst <= 1e-12, f"max deviation {worst:.2e}"

    signs = np.array([[1.0], [-1.0]])  # of theta_b in psi_plus, psi_minus

    def evolve(ta, tb):
        """psi_plus and psi_minus on a leading axis, rotated by (ta, tb)."""
        bells = np.array([bell_state("psi_plus"), bell_state("psi_minus")])[:, None]
        return rotate_arm(rotate_arm(bells, ta, 0), tb, 1)

    def bell_nonlocal_equivalence():
        ta, tb = np.random.default_rng(2).uniform(-np.pi, np.pi, (100, 2)).T
        worst = np.abs(evolve(ta, tb) - evolve(ta + signs * tb, 0.0)).max()
        return worst <= 1e-12, f"max deviation {worst:.2e}"

    def joint_observable_closed_forms():
        ta, tb = np.random.default_rng(3).uniform(-np.pi, np.pi, (200, 2)).T
        m_zz, m_xz, m_zx = np.moveaxis(exact_observables(evolve(ta, tb)), -1, 0)
        tpm = ta + signs * tb
        worst = max(np.abs(m_zz + np.cos(2 * tpm)).max(),
                    np.abs(m_xz + np.sin(2 * tpm)).max(),
                    np.abs(m_xz - signs * m_zx).max())
        return worst <= 1e-12, f"max deviation {worst:.2e}"

    def separable_contrast_amplitude():
        # |H>|V> on a 19 x 73 grid of (theta_a, theta_b); the swing of m_zz
        # over theta_b is |cos 2 theta_a|
        ta = np.linspace(-np.pi / 2, np.pi / 2, 19)[:, None]
        rho = rotate_arm(rotate_arm(separable_state(ket("H"), ket("V")), ta, 0),
                         np.linspace(-np.pi, np.pi, 73), 1)
        swing = np.abs(exact_observables(rho)[..., 0]).max(axis=-1)
        worst = np.abs(swing - np.abs(np.cos(2 * ta[:, 0]))).max()
        return worst <= 1e-12, f"amplitude deviation {worst:.2e}"

    def extraction_round_trip():
        angles = np.radians(np.linspace(-44, 44, 12))
        ta, tb = np.meshgrid(angles, angles)
        ta_hat, tb_hat = extract_thetas(*(np.stack((-np.cos(2 * t), -np.sin(2 * t)), -1)
                                          for t in (ta + tb, ta - tb)))
        worst = max(np.abs(ta_hat - ta).max(), np.abs(tb_hat - tb).max())
        return worst <= 1e-9, f"max angle error {worst:.2e} rad"

    def chsh_analytic():
        pairs = [(f"lin:{a}", f"lin:{b}") for a in (0.0, 45.0) for b in (22.5, 67.5)]
        s_bell, s_mixed = (chsh_from_counts(exact_table(rho, pairs, Detection(1.0, 1.0)))[0]
                           for rho in (bell_state("psi_plus"), maximally_mixed()))
        ok = abs(s_bell - 2 * math.sqrt(2)) <= 1e-9 and abs(s_mixed) <= 1e-12
        return ok, f"S = {s_bell:.9f}, mixed {s_mixed:.1e}"

    def tomography_design_rank():
        rank = np.linalg.matrix_rank(DESIGN)
        return rank == 16, f"design rank {rank}"

    def mle_exact_self_consistency():
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

    return [pauli_algebra, rotation_group, bell_nonlocal_equivalence,
            joint_observable_closed_forms, separable_contrast_amplitude,
            extraction_round_trip, chsh_analytic, tomography_design_rank,
            mle_exact_self_consistency, qfi_closed_form, noise_physicality]


def _cmd_verify(args) -> tuple:
    lines = []
    for check in _verify_checks():  # each check prints as its name, with - for _
        try:
            ok, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {exc!r}"
        lines.append(f"{'ok' if ok else 'FAIL'}: {check.__name__.replace('_', '-')} "
                     f"({detail})")
    return 2 if any(line.startswith("FAIL") for line in lines) else 0, lines, {}


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

    p = sub.add_parser("observables", help="estimate joint observables from a table")
    p.add_argument("--table", required=True, help="coincidence table file")
    p.add_argument("--out", help="output file path")

    p = sub.add_parser("extract", help="extract both rotation angles from "
                                       "plus- and minus-branch observables")
    p.add_argument("--plus", required=True, help="observables file, addition branch")
    p.add_argument("--minus", required=True, help="observables file, cancellation branch")
    p.add_argument("--out", help="output file path")

    p = sub.add_parser("scan", help="wide-range search for the arm-A rotation")
    add_run(p)

    p = sub.add_parser("tomo", help="maximum-likelihood state reconstruction")
    p.add_argument("--counts", required=True, help="tomography counts file")
    p.add_argument("--reference", default=None,
                   help="Bell-state label for the comparison report")
    p.add_argument("--out-state", default=None, help="write the reconstructed matrix here")
    p.add_argument("--bootstrap", type=int, default=0,
                   help="number of parametric-bootstrap resamples (0 = off)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="output file path")

    p = sub.add_parser("chsh", help="CHSH statistic from a coincidence table")
    p.add_argument("--table", required=True)

    p = sub.add_parser("sweep", help="run the molarity or theta sweep from a config")
    add_run(p)
    p.add_argument("--out", default="sweep.csv", help="output file path")

    p = sub.add_parser("fisher", help="Fisher-information scaling table")
    p.add_argument("--n-values", default="1,2,4,8,16",
                   help="comma-separated photon numbers")
    p.add_argument("--trials", type=int, default=0,
                   help="Monte Carlo trials for the separable baseline (0 = bounds only)")
    p.add_argument("--theta-deg", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="output file path")

    sub.add_parser("verify", help="run the analytic invariant suite")

    # read -1e2, -inf and -nan (any case) as values, as argparse reads -100
    # (Python 3.11's pattern of a negative number has no exponent and no word)
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"^-(\.?\d|(inf|infinity|nan)$)", re.I)
    parser.commands = sub.choices  # the subparser of each command, by name
    return parser


def _check_flags(args) -> None:
    """Reject a flag of args.command outside its domain, or away from its
    parser default without the flag it needs, as config.ACCEPTS declares."""
    accepts = ACCEPTS.get(args.command, {})
    defaults = build_parser().commands[args.command]

    def given(flag):
        dest = flag[2:].replace("-", "_")
        return getattr(args, dest) != defaults.get_default(dest)

    for flag, domain, test, *why in accepts.get("flags", ()):
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and not test(value):
            raise ValueError(": ".join([f"{flag} must be {domain}, got {value:,}", *why]))
    for flag, other, why in accepts.get("needs", ()):
        if given(flag) and not given(other):
            raise ValueError(f"{flag} needs {other}: {why}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        _check_flags(args)
        _resolve_outputs(args)
        # the command `name` is the function _cmd_<name>
        code, lines, writes = globals()[f"_cmd_{args.command}"](args)
        for path, write in writes.items():
            if path is not None:  # None: the flag of this output was not given
                path.parent.mkdir(parents=True, exist_ok=True)
                write(path)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
