"""The golden CLI cases: small fixed-seed runs of every analysis command.

Each case is an argv for `polarot.cli.main` and the output file it
writes, if any: a command writes at most one, and a report (`tomo`'s
metrics, `fisher`'s table) is on stdout only. A case runs in a scratch
directory holding a copy of `inputs/`, with relative paths and
`POLAROT_OUT` unset, so stdout names outputs by their relative path. The
files under `inputs/` are fixed data, each named by some case: configs
written by hand; tables written once by `polarot simulate` at fixed seeds;
and `tomo.csv`, written once by
`tomography.write_tomo_counts` from a Poisson draw of Werner(0.97867)
counts (its `# rng_seed` and `# source` lines), since no command writes
tomography counts. `plus.csv` and `minus.csv`, the tables `extract`
reads, are `simulate` runs of one config in its psi_plus (seed 1) and
psi_minus (seed 2) kinds: arm A at angle_deg 20 and arm B at 10, both at
transmission 1, no noise, all three analyzer offsets 0 (so the printed
angles are the configured ones, up to the counts' noise), pair_flux 50000,
duration 1, and the default setting pairs Z/Z, X/Z, Z/X. Nothing
regenerates them. The files under
`expected/<case>/` are the goldens (`stdout.txt` plus the output file),
rewritten only by `python tests/golden/regen.py`.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
from pathlib import Path

from polarot.cli import OUT_ENV, main

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected"

CASES = {
    "simulate": (["simulate", "--config", "sim.ini", "--out", "counts.csv"],
                 ["counts.csv"]),
    "simulate_exact": (["simulate", "--config", "sim.ini", "--exact",
                        "--out", "exact.csv"], ["exact.csv"]),
    "sweep_theta": (["sweep", "--config", "sweep_theta.ini", "--out", "sweep.csv"],
                    ["sweep.csv"]),
    "sweep_molarity": (["sweep", "--config", "sweep_molarity.ini",
                        "--out", "sweep.csv"], ["sweep.csv"]),
    "sweep_theta_exact": (["sweep", "--config", "sweep_theta.ini", "--exact",
                           "--out", "sweep.csv"], ["sweep.csv"]),
    "sweep_molarity_exact": (["sweep", "--config", "sweep_molarity.ini", "--exact",
                              "--out", "sweep.csv"], ["sweep.csv"]),
    "scan_exact": (["scan", "--config", "scan.ini", "--exact"], []),
    "scan": (["scan", "--config", "scan.ini"], []),
    "observables": (["observables", "--table", "table.csv"], []),
    "extract": (["extract", "--plus", "plus.csv", "--minus", "minus.csv"], []),
    "chsh": (["chsh", "--table", "chsh.csv"], []),
    "tomo": (["tomo", "--counts", "tomo.csv", "--reference", "psi_plus",
              "--bootstrap", "3", "--seed", "5", "--out-state", "rho.txt"], ["rho.txt"]),
    "fisher": (["fisher", "--n-values", "1,2,4,8,16", "--trials", "300", "--seed", "2"], []),
}


def run_case(name: str, workdir: Path) -> tuple[int, dict[str, bytes]]:
    """Run one case in `workdir`; returns the exit code and
    {"stdout.txt": ..., <output file>: ...} as bytes."""
    argv, outputs = CASES[name]
    shutil.copytree(INPUTS, workdir, dirs_exist_ok=True)
    saved_out_env = os.environ.pop(OUT_ENV, None)
    cwd = os.getcwd()
    stdout = io.StringIO()
    try:
        os.chdir(workdir)
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    finally:
        os.chdir(cwd)
        if saved_out_env is not None:
            os.environ[OUT_ENV] = saved_out_env
    files = {"stdout.txt": stdout.getvalue().encode("utf-8")}
    for out in outputs:
        files[out] = (workdir / out).read_bytes()
    return code, files
