import configparser
import contextlib
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarot
from golden.cases import run_case
from polarot import channels, cli, config, measure, states, tomography
from polarot.cli import main
from test_acceptance import werner

EXACT_TEMPLATE = """
[state]
kind = {kind}

[arm_a]
angle_deg = 20.0
transmission = 1.0

[arm_b]
angle_deg = 10.0
transmission = 1.0

[offsets]
pbs_a_deg = 0
pbs_b_deg = 0
hwp_deg = 0

[statistics]
pair_flux = 100000
duration = 1.0
seed = 11
"""

SWEEP_TEMPLATE = """
[state]
kind = psi_minus

[arm_a]
angle_deg = 20.08
transmission = 1.0

[arm_b]
molarity = 0
slope_deg_per_molar = 7.01
transmission = 1.0

[offsets]
pbs_a_deg = -4.75
pbs_b_deg = 4.09
hwp_deg = 5.47

[statistics]
pair_flux = 50000
duration = 1.0
seed = 40

[sweep]
variable = molarity_b
values = 0, 1.0, 2.0, 3.0, 4.0
"""

CHSH_TEMPLATE = """
[state]
kind = psi_plus

[arm_a]
angle_deg = 0
transmission = 1.0

[arm_b]
angle_deg = 0
transmission = 1.0

[offsets]
pbs_a_deg = 0
pbs_b_deg = 0
hwp_deg = 0

[statistics]
pair_flux = 100000
duration = 1.0
seed = 12

[settings]
pairs = lin:0/lin:22.5, lin:0/lin:67.5, lin:45/lin:22.5, lin:45/lin:67.5
"""


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_version_and_help():
    assert main(["--version"]) == 0
    assert main(["--help"]) == 0


def test_usage_errors_exit_1():
    assert main(["frobnicate"]) == 1
    assert main(["extract"]) == 1          # missing required flags
    assert main([]) == 1


def test_data_errors_exit_2(tmp_path):
    missing = str(tmp_path / "nope.csv")
    assert main(["observables", "--table", missing]) == 2
    bad_cfg = tmp_path / "bad.ini"
    bad_cfg.write_text("[state]\nkind = psi_minus\n")  # no [statistics] seed
    assert main(["simulate", "--config", str(bad_cfg),
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_simulate_and_observables_round_trip(tmp_path, capsys):
    cfg = write_config(tmp_path, EXACT_TEMPLATE.format(kind="psi_plus"))
    out = str(tmp_path / "counts.csv")
    assert main(["simulate", "--config", cfg, "--exact", "--out", out]) == 0
    obs_out = str(tmp_path / "obs.csv")
    assert main(["observables", "--table", out, "--out", obs_out]) == 0
    stdout = capsys.readouterr().out
    # theta_plus = 30 deg: m_zz = -cos(60 deg) = -0.5
    assert "m_zz = -0.500000000" in stdout


def test_simulate_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, EXACT_TEMPLATE.format(kind="psi_plus"))
    out_1, out_2 = str(tmp_path / "c1.csv"), str(tmp_path / "c2.csv")
    assert main(["simulate", "--config", cfg, "--out", out_1]) == 0
    assert main(["simulate", "--config", cfg, "--out", out_2]) == 0
    assert (tmp_path / "c1.csv").read_bytes() == (tmp_path / "c2.csv").read_bytes()
    out_3 = str(tmp_path / "c3.csv")
    assert main(["simulate", "--config", cfg, "--seed", "99", "--out", out_3]) == 0
    assert (tmp_path / "c1.csv").read_bytes() != (tmp_path / "c3.csv").read_bytes()


def test_extract_pipeline(tmp_path, capsys):
    plus_cfg = write_config(tmp_path, EXACT_TEMPLATE.format(kind="psi_plus"), "p.ini")
    minus_cfg = write_config(tmp_path, EXACT_TEMPLATE.format(kind="psi_minus"), "m.ini")
    for cfg, counts, obs in ((plus_cfg, "cp.csv", "op.csv"),
                             (minus_cfg, "cm.csv", "om.csv")):
        assert main(["simulate", "--config", cfg, "--exact",
                     "--out", str(tmp_path / counts)]) == 0
        assert main(["observables", "--table", str(tmp_path / counts),
                     "--out", str(tmp_path / obs)]) == 0
    capsys.readouterr()
    assert main(["extract", "--plus", str(tmp_path / "op.csv"),
                 "--minus", str(tmp_path / "om.csv")]) == 0
    stdout = capsys.readouterr().out.strip()
    assert stdout == "20.000000, 10.000000"


# scan reads no [arm_b] rotation, so its configs hold the default angle 0
SCAN_TEMPLATE = EXACT_TEMPLATE.replace("angle_deg = 10.0", "angle_deg = 0.0")


def test_scan_exact(tmp_path, capsys):
    cfg = write_config(tmp_path, SCAN_TEMPLATE.format(kind="psi_minus"))
    assert main(["scan", "--config", cfg, "--exact"]) == 0
    stdout = capsys.readouterr().out.strip()
    assert abs(float(stdout) - 20.0) < 0.01


@pytest.mark.parametrize("theta_a", ["20.0", "-70.0", "3.37"])
def test_scan_exact_removes_shipped_offsets(tmp_path, capsys, theta_a):
    text = SWEEP_TEMPLATE.split("[statistics]")[0].replace(
        "angle_deg = 20.08", f"angle_deg = {theta_a}").replace(
        "molarity = 0\nslope_deg_per_molar = 7.01\n", "angle_deg = 0.0\n")
    cfg = write_config(tmp_path, text + "[statistics]\nseed = 1\n")
    assert main(["scan", "--config", cfg, "--exact"]) == 0
    assert abs(float(capsys.readouterr().out) - float(theta_a)) < 1e-3


def test_scan_sampled(tmp_path, capsys):
    cfg = write_config(tmp_path, SCAN_TEMPLATE.format(kind="psi_minus"))
    assert main(["scan", "--config", cfg]) == 0
    stdout = capsys.readouterr().out.strip()
    assert abs(float(stdout) - 20.0) < 0.5


def test_tomo_command(tmp_path, capsys):
    counts = tomography.predicted_counts(states.bell_state("psi_plus"),
                                         flux_norm=1e6)
    counts_file = tmp_path / "tomo.csv"
    tomography.write_tomo_counts(counts_file, counts)
    state_file = tmp_path / "rho.txt"
    report_file = tmp_path / "report.txt"
    assert main(["tomo", "--counts", str(counts_file), "--reference", "psi_plus",
                 "--out-state", str(state_file), "--out", str(report_file),
                 "--bootstrap", "0"]) == 0
    stdout = capsys.readouterr().out
    assert "converged = True" in stdout
    assert "fidelity = 1.000000" in stdout
    rho = np.loadtxt(state_file).view(complex).reshape(4, 4)
    assert states.fidelity(rho, states.bell_state("psi_plus")) >= 0.9999
    assert "fidelity" in report_file.read_text()


def test_tomo_with_bootstrap(tmp_path, capsys):
    rng = np.random.default_rng(2)
    nbar = tomography.predicted_counts(
        werner(0.97867), flux_norm=1e4)
    counts_file = tmp_path / "tomo.csv"
    tomography.write_tomo_counts(counts_file, rng.poisson(nbar).astype(float))
    assert main(["tomo", "--counts", str(counts_file), "--reference", "psi_plus",
                 "--bootstrap", "8", "--seed", "3"]) == 0
    stdout = capsys.readouterr().out
    assert "+-" in stdout


@pytest.mark.parametrize("trial", [353, 519])
def test_tomo_exit_0_at_rank_deficient_optimum(tmp_path, capsys, trial):
    # criterion-5b trials whose optima sit on the boundary of state space
    nbar = tomography.predicted_counts(werner(0.97867), flux_norm=4e4)
    counts = np.random.default_rng([5, trial]).poisson(nbar).astype(float)
    counts_file = tmp_path / "tomo.csv"
    tomography.write_tomo_counts(counts_file, counts)
    assert main(["tomo", "--counts", str(counts_file)]) == 0
    assert "converged = True" in capsys.readouterr().out


def test_tomo_single_bootstrap_exits_2(tmp_path, capsys):
    # one resample has no spread: it used to print "+- nan" and exit 0, and
    # then the fit and the state file before exiting 2
    nbar = tomography.predicted_counts(werner(0.9), flux_norm=4e4)
    counts_file = tmp_path / "tomo.csv"
    tomography.write_tomo_counts(counts_file,
                                 np.random.default_rng(1).poisson(nbar).astype(float))
    state_file = tmp_path / "rho.txt"
    assert main(["tomo", "--counts", str(counts_file), "--reference", "psi_plus",
                 "--bootstrap", "1", "--out-state", str(state_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--bootstrap must be 0 (off) or at least 2, got 1" in captured.err
    assert not state_file.exists()


@pytest.mark.parametrize("flags, message", [
    (["--bootstrap", "5"], "--bootstrap needs --reference"),
    (["--out", "report.txt"], "--out needs --reference"),
    (["--reference", "psi", "--out", "report.txt"], "unknown Bell-state kind 'psi'"),
    (["--reference", "psi_plus", "--out", "rho.txt"],
     "--out and --out-state name one file, rho.txt"),
    (["--reference", "psi_plus", "--out", "./rho.txt"],
     "--out and --out-state name one file, rho.txt")],
    ids=["bootstrap", "out", "unknown-reference", "same-file", "same-file-dotted"])
def test_tomo_report_flags_are_checked_before_any_output(tmp_path, monkeypatch,
                                                          capsys, flags, message):
    # without --reference there is no report: the bootstrap was skipped and
    # no report file written, with exit 0; an unknown reference exited 2
    # only after printing the fit and writing the state file; the report
    # silently replaced the state file that --out-state named too
    monkeypatch.chdir(tmp_path)
    assert main(["tomo", "--counts", str(GOLDEN_INPUTS / "tomo.csv"),
                 "--out-state", "rho.txt", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("count", ["1e308", "1e200"])
def test_tomo_counts_beyond_the_poisson_range_exit_2(tmp_path, capsys, recwarn,
                                                     count):
    # 1e308 overflowed linear inversion (RuntimeWarnings, then "Eigenvalues
    # did not converge"); 1e200 printed a fit, then the bootstrap's
    # rng.poisson failed with "lam value too large"
    text = (GOLDEN_INPUTS / "tomo.csv").read_text()
    assert "\nH,H,194\n" in text
    counts_file = tmp_path / "tomo.csv"
    counts_file.write_text(text.replace("\nH,H,194\n", f"\nH,H,{count}\n"))
    assert main(["tomo", "--counts", str(counts_file), "--reference", "psi_plus",
                 "--bootstrap", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"counts total {float(count):g} is above 9.22337e+18" in captured.err
    assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]


GOLDEN_RUNS = {"simulate": "sim.ini", "sweep": "sweep_theta.ini", "scan": "scan.ini"}


def golden_with_flux(tmp_path, name, flux):
    text = (GOLDEN_INPUTS / name).read_text()
    line = next(line for line in text.splitlines() if line.startswith("pair_flux = "))
    return write_config(tmp_path, text.replace(line, f"pair_flux = {flux}"))


@pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
@pytest.mark.parametrize("command", sorted(GOLDEN_RUNS))
def test_detection_beyond_the_poisson_range_exits_2_naming_the_keys(
        tmp_path, monkeypatch, capsys, command, exact):
    # sampled runs failed in rng.poisson with "lam value too large", which
    # names no key, and exact runs printed means no sampled run could draw;
    # the one check, where the detection model is built, now rejects both
    monkeypatch.setenv("POLAROT_OUT", str(tmp_path))
    cfg = golden_with_flux(tmp_path, GOLDEN_RUNS[command], "1e300")
    assert main([command, "--config", cfg, *(["--exact"] if exact else [])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("error: pair_flux * duration * transmission_a * transmission_b = "
            in captured.err)
    assert "is above 9.22337e+18, the largest Poisson mean numpy draws" in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]


@pytest.mark.parametrize("command, index", [("sweep", "(0, 0, 0)"), ("scan", "(0, 0)")])
def test_empty_count_rows_name_their_stack_index(tmp_path, capsys, command, index):
    # at a vanishing pair flux every row is empty; the error named no row
    cfg = golden_with_flux(tmp_path, GOLDEN_RUNS[command], "1e-300")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out.csv")]
                if command == "sweep" else [command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"error: cannot estimate a correlation from zero total counts at stack "
            f"index {index}\n") == captured.err


TOMO_RUN = ["tomo", "--counts", str(GOLDEN_INPUTS / "tomo.csv"), "--reference", "psi_plus",
            "--bootstrap", "3", "--seed", "5"]


def output_runs(tmp_path):
    """{case: argv ending in the output flag under test}; any other output
    goes to tmp_path."""
    return {
        "simulate": ["simulate", "--config", str(GOLDEN_INPUTS / "sim.ini"), "--out"],
        "observables": ["observables", "--table", str(GOLDEN_INPUTS / "table.csv"), "--out"],
        "extract": ["extract", "--plus", str(GOLDEN_INPUTS / "obs_plus.csv"),
                    "--minus", str(GOLDEN_INPUTS / "obs_minus.csv"), "--out"],
        "sweep": ["sweep", "--config", str(GOLDEN_INPUTS / "sweep_theta.ini"), "--out"],
        "fisher": ["fisher", "--trials", "10", "--out"],
        "tomo-out-state": [*TOMO_RUN, "--out", str(tmp_path / "report.txt"), "--out-state"],
        "tomo-out": [*TOMO_RUN, "--out-state", str(tmp_path / "rho.txt"), "--out"]}


@pytest.mark.parametrize("path, out_env, message", [
    ("afile/x.txt", None, "afile/x.txt: afile is not a directory"),
    ("x.txt", "afile", "afile/x.txt: afile is not a directory"),
    ("adir", None, "adir is a directory"),
    ("", None, ". is a directory")],
    ids=["under-a-file", "out-env-a-file", "a-directory", "empty"])
@pytest.mark.parametrize("case", list(output_runs(Path())))
def test_an_unusable_output_path_exits_2_before_any_output(tmp_path, monkeypatch, capsys,
                                                           case, path, out_env, message):
    # tomo, fisher, observables and extract printed their results (tomo also
    # wrote its state file) before failing on the path, and every message
    # read like "[Errno 17] File exists: 'afile'", naming no flag
    monkeypatch.chdir(tmp_path)
    if out_env is not None:
        monkeypatch.setenv("POLAROT_OUT", out_env)
    (tmp_path / "afile").write_text("kept\n")
    (tmp_path / "adir").mkdir()
    argv = output_runs(tmp_path)[case]
    assert run_failing(capsys, [*argv, path]) == f"error: {argv[-1]} {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]
    assert (tmp_path / "afile").read_text() == "kept\n"
    assert not any((tmp_path / "adir").iterdir())


@pytest.mark.parametrize("argv, call", [
    (["simulate", "--config", str(GOLDEN_INPUTS / "sim.ini"), "--out", "counts.csv"],
     "simulate_counts"),
    (["sweep", "--config", str(GOLDEN_INPUTS / "sweep_theta.ini"), "--out", "sweep.csv"],
     "run_sweep"),
    ([*TOMO_RUN, "--out-state", "rho.txt", "--out", "report.txt"], "bootstrap_sigmas"),
    (["fisher", "--trials", "10", "--out", "fisher.csv"], "variance_scaling")],
    ids=["simulate", "sweep", "tomo", "fisher"])
def test_a_failed_computation_prints_and_writes_nothing(tmp_path, monkeypatch, capsys,
                                                        argv, call):
    # tomo printed its fit and wrote its state file before the bootstrap ran
    def fail(*args, **kwargs):
        raise ValueError(f"{call} failed")

    monkeypatch.setattr(cli, call, fail)
    monkeypatch.chdir(tmp_path)
    assert run_failing(capsys, argv) == f"error: {call} failed\n"
    assert not any(tmp_path.iterdir())


def golden_edited(tmp_path, name, edit):
    """A copy of the golden input `name` in tmp_path, its text passed
    through `edit`; returns its path as a string."""
    path = tmp_path / name
    path.write_text(edit((GOLDEN_INPUTS / name).read_text()))
    return str(path)


def run_failing(capsys, argv):
    """Run argv, which must exit 2 printing nothing; returns stderr."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


@pytest.mark.parametrize("row, message", [
    ("m_zz,0.5,0.01", "row 'm_zz,0.5,0.01' repeats observable m_zz"),
    ("m_yy,0.5,0.01", "row 'm_yy,0.5,0.01' names no observable of "
                      "('m_zz', 'm_xz', 'm_zx')")], ids=["repeated", "unknown"])
def test_extract_rejects_a_row_it_would_ignore(tmp_path, capsys, row, message):
    # a repeated m_zz row replaced the first and an unknown one was
    # ignored, both with exit 0
    plus = golden_edited(tmp_path, "obs_plus.csv", lambda text: text + row + "\n")
    minus = str(GOLDEN_INPUTS / "obs_minus.csv")
    err = run_failing(capsys, ["extract", "--plus", plus, "--minus", minus])
    assert err == f"error: {plus}: {message}\n"


def test_tomo_rejects_a_row_outside_the_design(tmp_path, capsys):
    # the row was ignored and the fit ran to exit 0
    counts = golden_edited(tmp_path, "tomo.csv", lambda text: text + "X,Y,5\n")
    err = run_failing(capsys, ["tomo", "--counts", counts])
    assert err == f"error: {counts}: row 'X,Y,5' names no basis pair of the design\n"


def _without(prefix):
    return lambda text: "".join(line for line in text.splitlines(keepends=True)
                                if not line.startswith(prefix))


def _replaced(old, new):
    return lambda text: text.replace(old, new)


@pytest.mark.parametrize("command, name, edit, message", [
    ("tomo", "tomo.csv", _without("H,H,"), " is missing basis rows: ['H,H']"),
    ("extract", "obs_plus.csv", _without("m_zx,"), " is missing observable rows: ['m_zx']"),
    ("tomo", "tomo.csv", _replaced("H,H,194", "H,H,inf"),
     ": row 'H,H,inf' holds a non-finite value"),
    ("extract", "obs_plus.csv", _replaced(",0.0039620238371403096", ",nan"),
     ": row 'm_zz,-0.46343608812122666,nan' holds a non-finite value")],
    ids=["tomo-missing", "extract-missing", "tomo-non-finite", "extract-non-finite"])
def test_labeled_row_errors_name_the_file(tmp_path, capsys, command, name, edit, message):
    # the tomography reader named no file for missing rows, and neither
    # reader named the row of a non-finite value
    path = golden_edited(tmp_path, name, edit)
    argv = (["tomo", "--counts", path] if command == "tomo" else
            ["extract", "--plus", path, "--minus", str(GOLDEN_INPUTS / "obs_minus.csv")])
    assert run_failing(capsys, argv) == f"error: {path}{message}\n"


@pytest.mark.parametrize("command, name, old, new", [
    ("observables", "table.csv", "Z,Z,6702,", "Z,Z,abc,"),
    ("chsh", "chsh.csv", "lin:45.000000,lin:67.500000,20892,",
     "lin:45.000000,lin:67.500000,abc,"),
    ("tomo", "tomo.csv", "H,V,19952", "H,V,abc"),
    ("extract", "obs_plus.csv", "m_xz,-0.80485948360475135,", "m_xz,abc,")],
    ids=["observables", "chsh", "tomo", "extract"])
def test_non_numeric_cell_names_the_file_and_row(tmp_path, capsys, command, name,
                                                 old, new):
    # each printed "could not convert string to float: 'abc'" alone
    path = golden_edited(tmp_path, name, lambda text: text.replace(old, new))
    flag = {"observables": "--table", "chsh": "--table", "tomo": "--counts",
            "extract": "--plus"}[command]
    argv = [command, flag, path]
    if command == "extract":
        argv += ["--minus", str(GOLDEN_INPUTS / "obs_minus.csv")]
    err = run_failing(capsys, argv)
    assert err.startswith(f"error: {path}: row '{new}")
    assert err.endswith(": could not convert string to float: 'abc'\n")


@pytest.mark.parametrize("command, name, row, pair", [
    ("observables", "table.csv", "X,Z,", "(X, Z)"),
    ("chsh", "chsh.csv", "lin:0.000000,lin:22.500000,",
     "(lin:0.000000, lin:22.500000)")], ids=["observables", "chsh"])
def test_zero_count_setting_pair_names_the_pair(tmp_path, capsys, command, name,
                                                row, pair):
    # observables named a stack index into its own pair order, chsh nothing
    def zeroed(text):
        line = next(line for line in text.splitlines() if line.startswith(row))
        return text.replace(line, row + "0,0,0,0")
    err = run_failing(capsys, [command, "--table", golden_edited(tmp_path, name, zeroed)])
    assert err == f"error: the {pair} basis pair has zero total counts\n"


def test_negative_molarity_sweep_value_exits_2_at_load(tmp_path, monkeypatch, capsys):
    # the molarity runner found it, after the config had loaded
    monkeypatch.chdir(tmp_path)
    cfg = golden_edited(tmp_path, "sweep_molarity.ini",
                        lambda text: text.replace("start = 0", "start = -1"))
    err = run_failing(capsys, ["sweep", "--config", cfg, "--out", "sweep.csv"])
    assert err == "error: [sweep] values: negative molarity -1.0\n"
    assert not (tmp_path / "sweep.csv").exists()
    with pytest.raises(ValueError, match=r"^\[sweep\] values: negative molarity -1.0$"):
        config.load_config(cfg)


@pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
def test_molarity_sweep_whose_rotation_overflows_exits_2_at_load(tmp_path, monkeypatch,
                                                                 capsys, exact):
    # slope * molarity overflowed in the runner: a RuntimeWarning, then
    # "rotation angles must be finite", naming no key
    monkeypatch.chdir(tmp_path)
    cfg = golden_edited(tmp_path, "sweep_molarity.ini", lambda text: text.replace(
        "7.01", "1e308").replace("start = 0\nstop = 4\ncount = 5", "values = 0, 2, 4"))
    err = run_failing(capsys, ["sweep", "--config", cfg, "--out", "sweep.csv"]
                      + ["--exact"] * exact)
    assert err == ("error: [sweep] values: molarity 4 times [arm_b] slope_deg_per_molar "
                   "1e+308 is not a finite rotation\n")
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_without_a_sweep_section_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    err = run_failing(capsys, ["sweep", "--config", str(GOLDEN_INPUTS / "sim.ini"),
                               "--out", "sweep.csv"])
    assert err == "error: config does not define a sweep\n"
    assert not (tmp_path / "sweep.csv").exists()


def replaced(old, new):
    """An edit that replaces the one occurrence of old by new."""
    def edit(text):
        assert text.count(old) == 1, old
        return text.replace(old, new)
    return edit


def metadata_only(text):
    return "".join(line for line in text.splitlines(True) if line.startswith("#"))


SWEEP_OUT, SIMULATE_OUT = ["sweep", "--out", "out.csv"], ["simulate", "--out", "out.csv"]


@pytest.mark.parametrize("command, name, edit, message", [
    (SWEEP_OUT, "sweep_theta.ini", replaced("variable = theta_b", "variable = foo"),
     "sweep variable must be one of ('molarity_b', 'theta_b'), got 'foo'"),
    (SWEEP_OUT, "sweep_theta.ini", replaced("variable = theta_b\n", ""),
     "[sweep] section needs a 'variable' key"),
    (SWEEP_OUT, "sweep_molarity.ini", replaced("start = 0", "values = 0, 1\nstart = 0"),
     "[sweep] needs either 'values' or 'start/stop/count'"),
    (SWEEP_OUT, "sweep_molarity.ini", replaced("count = 5", "count = 1"),
     "[sweep] count must be at least 2"),
    (SIMULATE_OUT, "sim.ini", replaced("pairs = Z/Z, X/Z, Z/X, Y/Y, lin:22.5/wp:10:20",
                                       "pairs = Z/Z, XZ"),
     "setting pair 'XZ' must be '<id_a>/<id_b>'"),
    (SIMULATE_OUT, "sim.ini", replaced("molarity = 1.5", "molarity = 1.5\nangle_deg = 3"),
     "section [arm_b] must not set both angle_deg and molarity"),
    (SIMULATE_OUT, "sim.ini", replaced("kind = psi_minus", "kind = bogus"),
     "unknown state kind 'bogus'"),
    (SIMULATE_OUT, "sim.ini", replaced("pair_flux = 100000", "pair_flux = 0"),
     "pair_flux and duration must be positive and finite, got 0.0, 1.0"),
    (["observables", "--out", "out.csv", "--table"], "table.csv", metadata_only,
     "table.csv: no header row 'setting_a_id,setting_b_id,n_pp,n_pm,n_mp,n_mm'")],
    ids=["sweep-variable-foo", "sweep-without-variable", "sweep-values-and-start",
         "sweep-count-1", "pair-without-slash", "arm-angle-and-molarity",
         "state-kind-bogus", "pair-flux-zero", "table-without-header"])
def test_malformed_input_exits_2_before_any_output(tmp_path, monkeypatch, capsys, command,
                                                   name, edit, message):
    # no test ran these checks; an unknown state kind was also caught later,
    # by bell_state, in other words, and a pair flux of 0 wrote an all-zero
    # table and exited 0 once its check allowed it
    monkeypatch.chdir(tmp_path)
    golden_edited(tmp_path, name, edit)
    flag = [] if command[0] == "observables" else ["--config"]
    err = run_failing(capsys, [*command, *flag, name])
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out.csv").exists()


def test_blank_lines_in_a_table_are_skipped(tmp_path, capsys):
    # blank lines around the metadata, the header and the rows read as none
    table = (GOLDEN_INPUTS / "table.csv").read_text()
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("\n  \n" + "\n\n".join(table.splitlines()) + "\n\n \t\n")
    runs = []
    for path, out in ((GOLDEN_INPUTS / "table.csv", "plain.csv"), (spaced, "spaced.csv.obs")):
        assert main(["observables", "--table", str(path), "--out", str(tmp_path / out)]) == 0
        runs.append((capsys.readouterr(), (tmp_path / out).read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0].out and not runs[0][0].err


@pytest.mark.parametrize("argv, message", [
    (["fisher", "--trials", "0", "--seed", "3", "--out", "fisher.csv"],
     "--seed needs --trials: it applies to the Monte Carlo trials"),
    (["fisher", "--theta-deg", "10", "--out", "fisher.csv"],
     "--theta-deg needs --trials: it applies to the Monte Carlo trials"),
    (["tomo", "--counts", str(GOLDEN_INPUTS / "tomo.csv"), "--reference", "psi_plus",
      "--seed", "9", "--out-state", "rho.txt"],
     "--seed needs --bootstrap: it seeds the resamples")],
    ids=["fisher-seed", "fisher-theta-deg", "tomo-seed"])
def test_a_flag_the_run_ignores_exits_2(tmp_path, monkeypatch, capsys, argv, message):
    # each run printed what it prints without the flag and exited 0
    monkeypatch.setenv("POLAROT_OUT", str(tmp_path))
    assert run_failing(capsys, argv) == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


def test_tomo_negative_bootstrap_exits_2(tmp_path, capsys):
    # a negative count used to read as 0 (off) and exit 0
    counts_file = tmp_path / "tomo.csv"
    tomography.write_tomo_counts(counts_file, tomography.predicted_counts(
        states.bell_state("psi_plus"), flux_norm=1e4))
    assert main(["tomo", "--counts", str(counts_file), "--reference", "psi_plus",
                 "--bootstrap", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--bootstrap must be >= 0, got -3" in captured.err


def test_tomo_without_hv_counts_exits_2(tmp_path, capsys, recwarn):
    # HH, HV, VH and VV are 0: linear inversion has no trace to normalize by
    counts_file = tmp_path / "tomo.csv"
    tomography.write_tomo_counts(
        counts_file, np.array([0, 0, 3, 2, 0, 0, 4, 1, 2, 3, 1, 2, 5, 1, 2, 3.0]))
    assert main(["tomo", "--counts", str(counts_file)]) == 2
    assert "HH, HV, VH and VV counts must have a positive sum" in capsys.readouterr().err
    assert not recwarn.list


def test_tomo_nonconvergence_exit_3(tmp_path, monkeypatch):
    # the 16-parameter model reproduces 16 counts exactly whenever linear
    # inversion is physical, making the initializer already optimal; to see
    # iteration-starved non-convergence the inversion must be unphysical
    # and the step budget one
    monkeypatch.setattr(tomography, "MAX_ITER", 1)
    nbar = tomography.predicted_counts(states.bell_state("psi_plus"),
                                       flux_norm=1e3)
    counts = None
    for seed in range(100):
        candidate = np.random.default_rng(seed).poisson(nbar).astype(float)
        lin = tomography.linear_inversion(candidate)
        if np.linalg.eigvalsh(lin).min() < -1e-3:
            counts = candidate
            break
    assert counts is not None
    counts_file = tmp_path / "tomo.csv"
    tomography.write_tomo_counts(counts_file, counts)
    state_file = tmp_path / "rho.txt"
    assert main(["tomo", "--counts", str(counts_file),
                 "--out-state", str(state_file)]) == 3
    # a fit that did not converge is still written
    assert np.loadtxt(state_file).shape == (16, 2)


def test_tomo_max_iter_is_not_an_option(capsys):
    # the fit's step budget is tomography.MAX_ITER; a budget flag is an
    # unknown option
    assert main(["tomo", "--counts", str(GOLDEN_INPUTS / "tomo.csv"),
                 "--max-iter", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --max-iter 1" in captured.err


def test_chsh_command(tmp_path, capsys):
    cfg = write_config(tmp_path, CHSH_TEMPLATE)
    table = str(tmp_path / "chsh.csv")
    assert main(["simulate", "--config", cfg, "--out", table]) == 0
    capsys.readouterr()
    assert main(["chsh", "--table", table]) == 0
    stdout = capsys.readouterr().out
    s = float(stdout.splitlines()[0].split()[2])
    assert abs(s - 2.8284) < 0.02
    assert "violation significance" in stdout


def test_chsh_reads_named_basis_settings(tmp_path, capsys):
    # it exited 2 with "CHSH tables need linear-analyzer settings, got 'Z'";
    # psi_minus has E = -1 on Z/Z and X/X and 0 on Z/X and X/Z, so S = 2
    # and the sigma is sqrt(2 / 1e5)
    text = CHSH_TEMPLATE.replace("kind = psi_plus", "kind = psi_minus")
    text = text[:text.index("pairs = ")] + "pairs = Z/Z, Z/X, X/Z, X/X\n"
    table = str(tmp_path / "zx.csv")
    assert main(["simulate", "--config", write_config(tmp_path, text), "--exact",
                 "--out", table]) == 0
    capsys.readouterr()
    assert main(["chsh", "--table", table]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "S = 2.000000 +- 0.004472"


@pytest.mark.parametrize("arm_a, arm_b, message", [
    (("lin:0", "lin:180"), ("Z", "X"), "CHSH needs two analyzer settings per arm"),
    (("lin:45", "X"), ("Z", "lin:22.5"), "lin:45.000000 and X have the same +1 port")])
def test_chsh_rejects_one_analyzer_twice(tmp_path, capsys, arm_a, arm_b, message):
    # lin:0 and lin:180, or lin:45 and X, are one analyzer under two ids; an
    # exact psi_plus table over them printed S = 2.000000 or 1.414214 as if
    # from two settings. lin:180 loads as lin:0.000000, so arm A holds one setting
    pairs = ", ".join(f"{a}/{b}" for a in arm_a for b in arm_b)
    text = CHSH_TEMPLATE[:CHSH_TEMPLATE.index("pairs = ")] + f"pairs = {pairs}\n"
    table = str(tmp_path / "same.csv")
    assert main(["simulate", "--config", write_config(tmp_path, text), "--exact",
                 "--out", table]) == 0
    capsys.readouterr()
    assert main(["chsh", "--table", table]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_chsh_at_the_classical_bound_is_no_violation(tmp_path, capsys):
    # four all-'++' rows: every correlation is 1 with zero sigma, so S = 2
    pairs = [("lin:0", "lin:22.5"), ("lin:0", "lin:67.5"),
             ("lin:45", "lin:22.5"), ("lin:45", "lin:67.5")]
    table = tmp_path / "chsh.csv"
    measure.write_table(measure.CoincidenceTable(
        pairs, [[100, 0, 0, 0]] * 4), table)
    assert main(["chsh", "--table", str(table)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "S = 2.000000 +- 0.000000", "violation significance = 0.00 sigma"]


def test_sweep_command_deterministic(tmp_path):
    cfg = write_config(tmp_path, SWEEP_TEMPLATE)
    out_1, out_2 = str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv")
    assert main(["sweep", "--config", cfg, "--out", out_1]) == 0
    assert main(["sweep", "--config", cfg, "--out", out_2]) == 0
    data_1 = (tmp_path / "s1.csv").read_bytes()
    assert data_1 == (tmp_path / "s2.csv").read_bytes()
    text = data_1.decode()
    assert "# config_hash=" in text
    assert "theta_deg" in text
    assert len(text.strip().splitlines()) >= 5 + 2


def test_sweep_exact_flag(tmp_path):
    cfg = write_config(tmp_path, SWEEP_TEMPLATE)
    out = str(tmp_path / "exact.csv")
    assert main(["sweep", "--config", cfg, "--exact", "--out", out]) == 0
    lines = (tmp_path / "exact.csv").read_text().strip().splitlines()
    header = lines[lines.index([l for l in lines if not l.startswith("#")][0])]
    first = [l for l in lines if not l.startswith("#")][1].split(",")
    theta = float(first[header.split(",").index("theta_deg")])
    assert abs(theta - 20.08) < 1e-6


def test_fisher_command(tmp_path, capsys):
    out = str(tmp_path / "fisher.csv")
    assert main(["fisher", "--n-values", "1,2,4", "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert stdout.splitlines()[0] == "n,qfi,var_entangled_bound"
    assert "4,64,0.015625" in stdout
    assert main(["fisher", "--n-values", "1,2", "--trials", "200",
                 "--seed", "1"]) == 0
    stdout = capsys.readouterr().out
    assert "var_separable_sim" in stdout.splitlines()[0]


def test_fisher_prints_each_photon_number_exactly(tmp_path, capsys):
    # n went through {:.10g}, so 12345678901 printed as 1.23456789e+10, which
    # is 12,345,678,900 and not the n simulated
    out = tmp_path / "fisher.csv"
    assert main(["fisher", "--n-values", "12345678901,3", "--out", str(out)]) == 0
    for text in (capsys.readouterr().out, out.read_text()):
        assert [line.split(",")[0] for line in text.splitlines()] == ["n", "12345678901", "3"]


def test_fisher_bound_column_does_not_depend_on_trials(capsys):
    # the bound 1/(4 n^2) is computed once, for the bounds-only table and the
    # --trials table alike
    tables = []
    for flags in ([], ["--trials", "10"]):
        assert main(["fisher", "--n-values", "1,2,4,3,1000", *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        column = lines[0].split(",").index("var_entangled_bound")
        tables.append([line.split(",")[column] for line in lines[1:]])
    assert tables[0] == tables[1] == ["0.25", "0.0625", "0.015625", "0.02777777778",
                                      "2.5e-07"]


def test_fisher_counts_per_trial_is_not_an_option(capsys):
    # the separable baseline spends n photons a trial, the budget of one use
    # of the n-photon probe; another budget is an unknown option
    assert main(["fisher", "--trials", "10", "--counts-per-trial", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --counts-per-trial 1" in captured.err


def test_fisher_trials_without_seed_run_seed_0(tmp_path, capsys):
    # the separable baseline's default seed is 0: no flag prints the bytes of
    # --seed 0, on stdout and in --out, and another seed prints others
    runs = []
    for seed in ([], ["--seed", "0"], ["--seed", "1"]):
        out = tmp_path / f"fisher{len(runs)}.csv"
        assert main(["fisher", "--n-values", "1,2,4", "--trials", "20", *seed,
                     "--out", str(out)]) == 0
        runs.append((capsys.readouterr().out, out.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[2][0] != runs[0][0]


@pytest.mark.parametrize("n, code", [("9223372036854775807", 0), ("9223372036854775808", 2)],
                         ids=["int64-max", "int64-max-plus-1"])
def test_fisher_photon_number_bound_is_the_int64_maximum(capsys, n, code):
    # numpy's binomial takes at most an int64 count, which is itself allowed
    assert main(["fisher", "--n-values", n]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.out.splitlines()[1].startswith(f"{n},")
    else:
        assert captured.out == ""
        assert "--n-values entries must be at most 9,223,372,036,854,775,807" in captured.err


def test_fisher_single_trial_exits_2(capsys):
    # the variance of one trial is not 0 but undefined
    assert main(["fisher", "--n-values", "1,2", "--trials", "1"]) == 2
    assert "trials must be at least 2" in capsys.readouterr().err


def test_fisher_negative_trials_exits_2(capsys):
    # a negative count used to print the bounds-only table and exit 0
    assert main(["fisher", "--n-values", "1,2", "--trials", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--trials must be >= 0, got -5" in captured.err


@pytest.mark.parametrize("flags, message", [
    (["--trials", "10", "--theta-deg", "nan"], "--theta-deg must be finite, got nan"),
    (["--theta-deg", "inf"], "--theta-deg must be finite, got inf"),
    (["--trials", "10", "--theta-deg", "-nan"], "--theta-deg must be finite, got nan"),
    (["--trials", "10", "--theta-deg", "-INF"], "--theta-deg must be finite, got -inf"),
    (["--n-values", "99999999999999999999", "--trials", "10"],
     "--n-values entries must be at most 9,223,372,036,854,775,807"),
    (["--n-values", "1" + "0" * 400],
     "--n-values entries must be at most 9,223,372,036,854,775,807"),
    (["--n-values", "1,,2"], "--n-values must be comma-separated integers, got '1,,2'"),
    (["--trials", "2000000000"], "--trials must be at most 1,000,000, got 2,000,000,000"),
    (["--trials", "1"],
     "--trials must be at least 2 (or 0: bounds only), got 1: one trial has no spread"),
    (["--n-values", "0"], "--n-values entries must be >= 1, got 0")],
    ids=["theta-nan", "theta-inf", "theta-minus-nan", "theta-minus-inf", "n-values-huge",
         "n-values-beyond-float", "n-values-empty-entry", "trials-huge", "trials-one",
         "n-values-zero"])
def test_fisher_bad_flag_exits_2(capsys, flags, message):
    # a NaN angle reached numpy's binomial, whose message names no flag, and
    # a negative photon count passed unchecked without --trials; counts beyond
    # int64 raised an OverflowError traceback in numpy's binomial (or in the
    # float of the bound), an empty --n-values entry printed int()'s message,
    # which names no flag, and 2e9 trials asked numpy for 14.9 GiB (an
    # _ArrayMemoryError traceback); one trial was rejected by
    # metrology.variance_scaling, naming no flag, and so was photon number 0;
    # argparse read -nan and -INF as options and exited 1
    assert main(["fisher", "--n-values", "1,2", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("command", [
    ["simulate", "--config", str(GOLDEN_INPUTS / "sim.ini")],
    ["simulate", "--config", str(GOLDEN_INPUTS / "sim.ini"), "--exact"],
    ["scan", "--config", str(GOLDEN_INPUTS / "scan.ini")],
    ["sweep", "--config", str(GOLDEN_INPUTS / "sweep_molarity.ini")],
    ["tomo", "--counts", str(GOLDEN_INPUTS / "tomo.csv"), "--reference", "psi_plus",
     "--bootstrap", "2"],
    ["fisher", "--trials", "10"]],
    ids=["simulate", "simulate-exact", "scan", "sweep", "tomo", "fisher"])
def test_negative_seed_flag_exits_2_before_any_output(tmp_path, monkeypatch, capsys,
                                                      command):
    # a sampled run failed in numpy with a message naming no flag, and tomo
    # printed its fit before failing
    monkeypatch.setenv("POLAROT_OUT", str(tmp_path))
    assert main([*command, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed must be >= 0, got -1" in captured.err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", [["simulate"], ["simulate", "--exact"], ["scan"],
                                     ["sweep", "--exact"]],
                         ids=["simulate", "simulate-exact", "scan", "sweep-exact"])
def test_negative_config_seed_exits_2(tmp_path, monkeypatch, capsys, command):
    # an exact run used to accept it and exit 0
    config_path = write_config(tmp_path, with_key(SWEEP_TEMPLATE, "statistics",
                                                  "seed", "-3"))
    monkeypatch.setenv("POLAROT_OUT", str(tmp_path / "out"))
    assert main([*command, "--config", config_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "[statistics] seed must be >= 0, got -3" in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["1.5", "seven"])
def test_non_integer_config_seed_exits_2(tmp_path, monkeypatch, capsys, value):
    # it exited 2 with "invalid literal for int() with base 10: '1.5'"
    config_path = write_config(tmp_path, with_key(SWEEP_TEMPLATE, "statistics",
                                                  "seed", value))
    monkeypatch.setenv("POLAROT_OUT", str(tmp_path / "out"))
    assert main(["sweep", "--exact", "--config", config_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"[statistics] seed must be an integer, got '{value}'" in captured.err


@pytest.mark.parametrize("key, value, named", [
    ("visibility", "90%", "[noise] visibility must be a number, got '90%'"),
    ("angle_deg", "20%", "[arm_a] angle_deg must be a number, got '20%'"),
    ("seed", "40%", "[statistics] seed must be an integer, got '40%'"),
    ("values", "0, 10%", "[sweep] values must be a number, got '10%'")],
    ids=["visibility", "angle_deg", "seed", "values"])
def test_percent_in_a_config_value_exits_2(tmp_path, monkeypatch, capsys, key, value,
                                           named):
    # '%' was read as interpolation syntax: a traceback and exit 1
    lines = (SWEEP_TEMPLATE + "[noise]\nvisibility = 1\n").splitlines()
    text = "\n".join(f"{key} = {value}" if line.startswith(f"{key} =") else line
                     for line in lines)
    monkeypatch.setenv("POLAROT_OUT", str(tmp_path / "out"))
    assert main(["sweep", "--exact", "--config", write_config(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err


@pytest.mark.parametrize("extra, named", [
    ("[noise]\nvisibilty = 0.5\n", "[noise] unknown key 'visibilty'"),
    ("[sweep_values]\nvalues = 1\n", "unknown config section [sweep_values]"),
    ("[outputs]\ndir = runs\n", "unknown config section [outputs]"),
    ("[DEFAULT]\nseed = 1\n", "unknown config section [DEFAULT]")],
    ids=["misspelled-key", "unknown-section", "outputs", "DEFAULT"])
def test_unknown_config_section_or_key_exits_2(tmp_path, monkeypatch, capsys, extra,
                                               named):
    # a misspelled key used to load silently, with its default
    monkeypatch.setenv("POLAROT_OUT", str(tmp_path / "out"))
    text = SWEEP_TEMPLATE + extra
    assert main(["sweep", "--exact", "--config", write_config(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err


def test_settings_without_pairs_exits_2(tmp_path, monkeypatch, capsys):
    # it crashed with an AttributeError traceback and exit 1
    monkeypatch.setenv("POLAROT_OUT", str(tmp_path / "out"))
    text = EXACT_TEMPLATE.format(kind="psi_minus") + "[settings]\n"
    assert main(["simulate", "--exact", "--config", write_config(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "[settings] section needs a 'pairs' key" in captured.err


@pytest.mark.parametrize("command", ["sweep", "simulate"])
@pytest.mark.parametrize("pair, why", [
    ("foo/bar", "cannot parse analyzer setting id 'foo'"),
    ("wp:1/Z", "cannot parse analyzer setting id 'wp:1'"),
    ("wp:1:2:3/Z", "cannot parse analyzer setting id 'wp:1:2:3'"),
    ("lin:nan/Z", "analyzer setting 'lin:nan': angles must be finite"),
    ("lin:inf/Z", "analyzer setting 'lin:inf': angles must be finite"),
    ("wp:nan:0/Z", "analyzer setting 'wp:nan:0': angles must be finite"),
    ("wp:0:inf/Z", "analyzer setting 'wp:0:inf': angles must be finite")])
def test_bad_setting_id_exits_2_at_load(tmp_path, monkeypatch, capsys, command, pair,
                                        why):
    # a sweep loaded, ran and exited 0 with these, under a changed config_hash
    monkeypatch.setenv("POLAROT_OUT", str(tmp_path / "out"))
    text = SWEEP_TEMPLATE + f"[settings]\npairs = {pair}\n"
    assert main([command, "--config", write_config(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: [settings] pairs: {why}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("setting_id", ["lin:941171", "lin:1e6", "lin:1e308",
                                        "wp:1e300:1e300"])
def test_any_finite_setting_angle_loads(tmp_path, monkeypatch, capsys, setting_id):
    # the -1 port was a second rotation by a further 90 degrees, which rounds
    # away at large angles: these exited 2 (lin:1e6 with "projectors do not
    # resolve the identity (deviation 1.0098e-12)")
    monkeypatch.setenv("POLAROT_OUT", str(tmp_path))
    text = EXACT_TEMPLATE.format(kind="psi_minus") + f"[settings]\npairs = {setting_id}/Z\n"
    assert main(["simulate", "--exact", "--config", write_config(tmp_path, text)]) == 0
    table = measure.read_table(tmp_path / "counts.csv")
    assert table.settings == [(measure.parse_setting(setting_id)[0], "Z")]
    assert abs(table.counts.sum() - 1e5) < 1e-9 * 1e5


@pytest.mark.parametrize("command", ["observables", "chsh"])
@pytest.mark.parametrize("bad_id", ["wp:1", "wp:1:2:3"])
def test_bad_setting_id_in_a_table_exits_2_naming_it(tmp_path, capsys, command,
                                                     bad_id):
    # it printed Python's "not enough" or "too many values to unpack"
    table = tmp_path / "t.csv"
    table.write_text(f"{measure._TABLE_HEADER}\nZ,Z,1,2,3,4\n{bad_id},Z,1,2,3,4\n")
    assert main([command, "--table", str(table)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot parse analyzer setting id {bad_id!r}" in captured.err


@pytest.mark.parametrize("kind", ["psi_minus", "psi_plus", "phi_plus"])
@pytest.mark.parametrize("key", ["ket_a", "ket_b"])
def test_ket_with_a_bell_kind_exits_2(tmp_path, monkeypatch, capsys, kind, key):
    # it was read and ignored, and changed the config_hash
    text = with_key(EXACT_TEMPLATE.format(kind=kind), "state", key, "Q")
    monkeypatch.setenv("POLAROT_OUT", str(tmp_path / "out"))
    assert main(["simulate", "--exact", "--config", write_config(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"section [state] must not set {key} with kind = {kind}" in captured.err


@pytest.mark.parametrize("key", ["ket_a", "ket_b"])
def test_unknown_ket_label_exits_2_at_load(tmp_path, monkeypatch, capsys, key):
    text = with_key(EXACT_TEMPLATE.format(kind="separable"), "state", key, "Q")
    with pytest.raises(ValueError, match=rf"^\[state\] {key}: unknown polarization "
                                         r"label 'Q'"):
        config.loads_config(text)
    monkeypatch.setenv("POLAROT_OUT", str(tmp_path / "out"))
    assert main(["simulate", "--exact", "--config", write_config(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"[state] {key}: unknown polarization label 'Q'" in captured.err
    # a known label in either case loads
    for label in ("R", "l"):
        cfg = config.loads_config(with_key(text, "state", key, label))
        assert getattr(cfg, key) == label.upper()


@pytest.mark.parametrize("arm", ["arm_a", "arm_b"])
def test_slope_in_an_angle_arm_exits_2(tmp_path, monkeypatch, capsys, arm):
    # it was accepted and ignored, with an unchanged config_hash
    text = with_key(EXACT_TEMPLATE.format(kind="psi_minus"), arm,
                    "slope_deg_per_molar", "99")
    monkeypatch.setenv("POLAROT_OUT", str(tmp_path / "out"))
    assert main(["simulate", "--exact", "--config", write_config(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"section [{arm}] must not set slope_deg_per_molar with angle_deg"
            in captured.err)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "sampled"])
def test_a_transmission_only_arm_section_is_the_angle_0_arm(tmp_path, capsys, exact):
    # it exited 2 with "section [arm_b] needs angle_deg or molarity", so a
    # scan config that set the arm-B transmission also had to set
    # angle_deg = 0.0, a key scan does not read
    bare = SCAN_TEMPLATE.format(kind="psi_minus").replace(
        "[arm_b]\nangle_deg = 0.0\ntransmission = 1.0\n", "[arm_b]\ntransmission = 0.5\n")
    explicit = bare.replace("[arm_b]\n", "[arm_b]\nangle_deg = 0.0\n")
    assert bare != explicit
    outputs = []
    for name, text in (("bare.ini", bare), ("explicit.ini", explicit)):
        argv = ["scan", "--config", write_config(tmp_path, text, name)]
        assert main(argv + (["--exact"] if exact else [])) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    cfg = config.loads_config(bare)
    assert (cfg.arm_b, cfg.detection.transmission_b) == (config.ArmConfig(angle=0.0), 0.5)
    assert config.config_hash(cfg) == config.config_hash(config.loads_config(explicit))
    # either arm: a section without a rotation is the arm an absent one gives
    for arm in ("arm_a", "arm_b"):
        cfg = config.loads_config(f"[{arm}]\ntransmission = 0.75\n"
                                  "[statistics]\nseed = 1\n")
        assert config.config_hash(cfg) == config.config_hash(
            config.loads_config("[statistics]\nseed = 1\n"))


@pytest.mark.parametrize("arm, angle", [("arm_a", "20.0"), ("arm_b", "10.0")])
def test_a_slope_without_molarity_exits_2_naming_the_key(tmp_path, monkeypatch, capsys,
                                                         arm, angle):
    text = with_key(EXACT_TEMPLATE.format(kind="psi_minus").replace(
        f"angle_deg = {angle}\n", ""), arm, "slope_deg_per_molar", "7.01")
    monkeypatch.setenv("POLAROT_OUT", str(tmp_path / "out"))
    assert run_failing(capsys, ["simulate", "--exact", "--config",
                                write_config(tmp_path, text)]) == (
        f"error: section [{arm}] must not set slope_deg_per_molar without molarity "
        f"(the slope calibrates a solution arm)\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("arm_b", ["angle_deg = 0.0\n", "transmission = 0.75\n", None],
                         ids=["angle", "transmission-only", "absent"])
def test_a_molarity_sweep_needs_a_solution_arm_b(tmp_path, monkeypatch, capsys, arm_b):
    # config.ACCEPTS states the rule once; sweeps._molarity_sweep kept a
    # second guard of its own ("molarity sweeps need a solution-type arm_b")
    # that no command reached
    text = (GOLDEN_INPUTS / "sweep_molarity.ini").read_text()
    solution = "[arm_b]\nmolarity = 0\nslope_deg_per_molar = 7.01\n"
    assert solution in text
    text = text.replace(solution, "" if arm_b is None else f"[arm_b]\n{arm_b}")
    monkeypatch.setenv("POLAROT_OUT", str(tmp_path / "out"))
    assert run_failing(capsys, ["sweep", "--config", write_config(tmp_path, text)]) == (
        "error: molarity_b sweep needs [arm_b] molarity = 0: the arm must be a solution "
        "arm to carry its slope, and the [sweep] values replace its molarity\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["phi_plus", "separable"])
def test_a_molarity_sweep_needs_a_psi_source(tmp_path, monkeypatch, capsys, kind):
    # sweeps._molarity_sweep rejected it mid-run, naming no key
    monkeypatch.setenv("POLAROT_OUT", str(tmp_path / "out"))
    cfg = golden_edited(tmp_path, "sweep_molarity.ini",
                        lambda text: text.replace("kind = psi_minus", f"kind = {kind}"))
    assert run_failing(capsys, ["sweep", "--config", cfg]) == (
        "error: molarity_b sweep needs [state] kind = psi_plus or psi_minus: its readout "
        "is the sum (psi_plus) or the difference (psi_minus) of the two rotations\n")
    assert not (tmp_path / "out").exists()


def test_out_of_range_visibility_exits_2_naming_the_key(tmp_path, monkeypatch, capsys):
    # the config loaded, and scan failed in channels._apply_noise, naming no key
    monkeypatch.setenv("POLAROT_OUT", str(tmp_path / "out"))
    cfg = golden_edited(tmp_path, "scan.ini",
                        lambda text: text + "\n[noise]\nvisibility = 1.2\n")
    assert run_failing(capsys, ["scan", "--config", cfg, "--exact"]) == (
        "error: [noise] visibility must be in [0, 1], got 1.2\n")
    assert not (tmp_path / "out").exists()


def test_validate_state_checks_only_the_states_a_command_is_given(tmp_path,
                                                                  monkeypatch):
    # the states a command builds itself (Bell constants, Werner mixtures,
    # rotations of them, fits) are physical by construction and are not
    # validated again inside a pipeline; simulate hands its one state to a
    # public table door, which checks it once, and tomo checks the fit and
    # the reference once each, as bootstrap_sigmas takes them
    calls = []
    validate_state = states.validate_state

    def counted(rho):
        calls.append(rho)
        return validate_state(rho)

    for module in (states, channels, measure, tomography, cli):
        monkeypatch.setattr(module, "validate_state", counted)
    counts = {}
    for name in ("simulate", "simulate_exact", "sweep_theta", "scan_exact", "tomo"):
        calls.clear()
        code, _ = run_case(name, tmp_path / name)
        assert code == 0
        counts[name] = len(calls)
    assert counts == {"simulate": 1, "simulate_exact": 1, "sweep_theta": 0,
                      "scan_exact": 0, "tomo": 2}


def test_one_born_call_and_one_stream_per_branch(tmp_path, monkeypatch):
    # a theta sweep runs both Bell branches as one stacked pass: one Born
    # call for every probability, then one sampling stream per branch,
    # keyed (seed, 0) and (seed, 1); a scan makes one Born call
    born_calls, stream_keys = [], []
    born, default_rng = measure._born, np.random.default_rng

    def counted_born(rho, projectors):
        born_calls.append(rho.shape)
        return born(rho, projectors)

    def counted_rng(seed):
        stream_keys.append(seed.spawn_key)
        return default_rng(seed)

    monkeypatch.setattr(measure, "_born", counted_born)
    monkeypatch.setattr(np.random, "default_rng", counted_rng)
    counts = {}
    for name in ("sweep_theta", "sweep_theta_exact", "scan_exact", "scan"):
        born_calls.clear()
        stream_keys.clear()
        code, _ = run_case(name, tmp_path / name)
        assert code == 0
        counts[name] = len(born_calls), list(stream_keys)
    assert counts == {"sweep_theta": (1, [(0,), (1,)]), "sweep_theta_exact": (1, []),
                      "scan_exact": (1, []), "scan": (1, [(1,)])}


def test_sweeps_and_scan_build_no_projector_tensor(tmp_path, monkeypatch):
    # the sweeps and the scan read the (Z,Z), (X,Z) slice of the tensor built
    # at import; only a table door builds one, here from the config's pairs
    def no_tensor(settings):
        raise AssertionError(f"projector_tensor({settings}) called")

    monkeypatch.setattr(measure, "projector_tensor", no_tensor)
    for name in ("sweep_theta_exact", "sweep_molarity", "scan"):
        code, _ = run_case(name, tmp_path / name)
        assert code == 0
    with pytest.raises(AssertionError, match="projector_tensor"):
        run_case("simulate_exact", tmp_path / "simulate_exact")


def test_scan_readout_near_the_window_edge_is_the_arm_angle(tmp_path, capsys):
    # with arm A at -88 degrees the shipped offsets put it at -91.37 in the
    # analyzer frame: the representative in [-90, 90) there is 88.63, and
    # with the offsets taken off the scan printed 92.000000, outside [-90, 90)
    cfg = golden_edited(tmp_path, "scan.ini",
                        lambda text: text.replace("angle_deg = 20.0", "angle_deg = -88.0"))
    assert main(["scan", "--config", cfg, "--exact"]) == 0
    assert capsys.readouterr().out == "-88.000000\n"


_SCAN_DEGREES = st.floats(-720.0, 720.0)


def scan_config(tmp_path_factory, theta_a, offsets=None) -> str:
    """scan.ini with arm A at theta_a degrees, and with the offsets
    (pbs_a_deg, pbs_b_deg, hwp_deg) if given."""
    text = (GOLDEN_INPUTS / "scan.ini").read_text().replace(
        "angle_deg = 20.0", f"angle_deg = {theta_a!r}")
    for key, value in zip(("pbs_a_deg", "pbs_b_deg", "hwp_deg"), offsets or ()):
        text = re.sub(rf"{key} = \S+", f"{key} = {value!r}", text)
    cfg = tmp_path_factory.mktemp("scan") / "scan.ini"
    cfg.write_text(text)
    return str(cfg)


def exact_scan_readout(cfg) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["scan", "--config", cfg, "--exact"]) == 0, err.getvalue()
    return out.getvalue()


@settings(max_examples=60, deadline=None)
@given(theta_a=_SCAN_DEGREES, offsets=st.tuples(*[st.floats(-20.0, 20.0)] * 3))
def test_scan_readout_is_the_arm_angle_in_the_half_turn_window(tmp_path_factory,
                                                               theta_a, offsets):
    # exact scan: the printed readout lies in [-90, 90), like the analyzer
    # ids, and is theta_a mod 180 degrees to the printed 1e-6 deg
    readout = float(exact_scan_readout(scan_config(tmp_path_factory, theta_a, offsets)))
    assert -90.0 <= readout < 90.0
    turns = (readout - theta_a) / 180.0
    assert abs(turns - round(turns)) * 180.0 <= 1e-6


@pytest.mark.parametrize("theta_a", [
    90.0, math.nextafter(90.0, 0.0), math.nextafter(90.0, 180.0), -90.0,
    math.nextafter(-90.0, 0.0), math.nextafter(-90.0, -180.0), 270.0, -270.0])
def test_scan_readout_at_the_window_edges_is_minus_90(tmp_path_factory, theta_a):
    # 90 and -90 degrees are one arm-A angle mod 180, which reads at the
    # window's closed end; so do their float neighbours, whose readouts
    # round to +-90 at the printed six decimals (89.99999999999999,
    # -90.00000000000001 and 270 printed 90.000000)
    assert exact_scan_readout(scan_config(tmp_path_factory, theta_a)) == "-90.000000\n"


@pytest.mark.parametrize("theta_a, printed", [
    (20.0, "20.000000"), (200.0, "20.000000"), (-160.0, "20.000000"),
    (560.0, "20.000000"), (-700.0, "20.000000"), (110.0, "-70.000000"),
    (-110.0, "70.000000"), (180.0, "0.000000"), (-180.0, "0.000000")])
def test_scan_readout_lies_in_the_half_turn_window(tmp_path_factory, theta_a, printed):
    # every arm-A angle reads as its one representative mod 180 degrees in
    # [-90, 90), whichever half-turn it was set in; a zero prints unsigned
    assert exact_scan_readout(scan_config(tmp_path_factory, theta_a)) == printed + "\n"


@pytest.mark.parametrize("theta_a", [200.0, -160.0, 380.0, -340.0])
def test_sampled_scan_half_turns_on_print_the_scan_golden(tmp_path_factory, capsys,
                                                          theta_a):
    # arm A turned by whole half-turns prepares the same state, so the same
    # seeded counts give the scan golden's readout byte for byte
    cfg = scan_config(tmp_path_factory, theta_a)
    assert main(["scan", "--config", cfg]) == 0
    captured = capsys.readouterr()
    golden = GOLDEN_INPUTS.parent / "expected" / "scan" / "stdout.txt"
    assert captured.out == golden.read_text()
    assert captured.err == ""


@pytest.mark.parametrize("argv, exponent, plain", [
    (["fisher", "--trials", "10", "--theta-deg"], ["-1e1"], ["-10"])],
    ids=["fisher-theta-deg"])
def test_negative_flag_values_in_exponent_notation(capsys, argv, exponent, plain):
    # argparse read -1e1 as an option and exited 1 (expected one argument);
    # both spellings now run alike
    runs = []
    for values in (exponent, plain):
        runs.append((main(argv + values), capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][1].out and not runs[0][1].err


@pytest.mark.parametrize("sweep, message", [
    ("start = -40\nstop = 40\ncount = 10000000000",
     "[sweep] count must be at most 100,000, got 10,000,000,000"),
    ("values = " + ", ".join(["0"] * 100_001),
     "[sweep] values must hold at most 100,000 entries")],
    ids=["count", "values"])
def test_sweep_above_the_point_limit_exits_2(tmp_path, monkeypatch, capsys, sweep,
                                             message):
    # the count was built into a tuple until memory ran out; the values ran
    # a 100,001-point sweep
    monkeypatch.chdir(tmp_path)
    text = (GOLDEN_INPUTS / "sweep_theta.ini").read_text()
    text = text[:text.index("[sweep]")] + f"[sweep]\nvariable = theta_b\n{sweep}\n"
    (tmp_path / "big.ini").write_text(text)
    assert main(["sweep", "--config", "big.ini", "--exact", "--out", "sweep.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "sampled"])
def test_theta_sweep_of_a_fully_mixed_source(tmp_path, monkeypatch, capsys, exact):
    # at visibility 0 the local angles have no phase to read: every exact
    # branch factor is round-off, below MODULUS_FLOOR, and every sampled one
    # is noise, below the significance rule (sampled counts read a rotation
    # with sigma_minus_deg 17.7-41.7 deg and exited 0 under a constant floor)
    monkeypatch.chdir(tmp_path)
    text = (GOLDEN_INPUTS / "sweep_theta.ini").read_text()
    (tmp_path / "mixed.ini").write_text(text.replace("visibility = 0.9", "visibility = 0.0"))
    argv = ["sweep", "--config", "mixed.ini", "--out", "sweep.csv"]
    assert main(argv + ["--exact"] * exact) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not (tmp_path / "sweep.csv").exists()
    if exact:
        # the modulus is round-off (8.0844e-17 under the SkylakeX kernel)
        modulus = re.fullmatch(r"error: extraction ill-conditioned at stack index \(0,\): "
                               r"\|plus-branch factor\| = (\S+) < 1e-06\n", captured.err)
        assert modulus and float(modulus.group(1)) < 1e-15
    else:
        assert captured.err == ("error: extraction ill-conditioned at stack index (0,): "
                                "|plus-branch factor| = 0.0126752 = 1.36 sigma_F < 4 "
                                "sigma_F\n")


def test_exact_molarity_sweep_of_a_fully_mixed_source_exits_2(tmp_path, monkeypatch,
                                                              capsys):
    # at visibility 0 the exact factor of the psi_minus branch is 0, which has
    # no phase: the sweep printed -86.630000,inf on every row and exited 0,
    # while the theta sweep on the same source exits 2
    monkeypatch.chdir(tmp_path)
    text = (GOLDEN_INPUTS / "sweep_molarity.ini").read_text()
    (tmp_path / "mixed.ini").write_text(text + "\n[noise]\nvisibility = 0.0\n")
    err = run_failing(capsys, ["sweep", "--config", "mixed.ini", "--exact",
                               "--out", "sweep.csv"])
    assert err == ("error: extraction ill-conditioned at stack index (0,): "
                   "|minus-branch factor| = 0 < 1e-06\n")
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("branch", ["plus", "minus"])
def test_extract_zero_factor_exits_2(tmp_path, capsys, recwarn, branch):
    # at --modulus-floor 0 all-zero observables printed "nan, nan" with two
    # RuntimeWarnings and exited 0
    zero, good = tmp_path / "zero.csv", tmp_path / "good.csv"
    zero.write_text("observable,value,sigma\nm_zz,0,0\nm_xz,0,0\nm_zx,0,0\n")
    good.write_text("observable,value,sigma\nm_zz,-1,0\nm_xz,0,0\nm_zx,0,0\n")
    plus, minus = (zero, good) if branch == "plus" else (good, zero)
    assert main(["extract", "--plus", str(plus), "--minus", str(minus)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"|{branch}-branch factor| = 0 < 1e-06" in captured.err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("row", ["m_zz,1e200,0.1", "m_xz,-1.5,0", "m_zx,2,0",
                                 "m_zz,-1,-0.1", "m_xz,0,1.5"])
@pytest.mark.parametrize("branch", ["plus", "minus"])
def test_extract_rejects_a_row_that_is_no_correlation(tmp_path, capsys, recwarn, branch, row):
    # m_zz = 1e200 overflowed in |F|^2 with a RuntimeWarning and printed
    # -39.989902, 39.989902 with exit 0; each value must lie in [-1, 1] and
    # each sigma in [0, 1], and the error names the file and the row
    rows = {"m_zz": "m_zz,-1,0", "m_xz": "m_xz,0,0", "m_zx": "m_zx,0,0"}
    rows[row.split(",")[0]] = row
    bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
    bad.write_text("observable,value,sigma\n" + "\n".join(rows.values()) + "\n")
    good.write_text("observable,value,sigma\nm_zz,-1,0\nm_xz,0,0\nm_zx,0,0\n")
    plus, minus = (bad, good) if branch == "plus" else (good, bad)
    out = tmp_path / "thetas.csv"
    assert main(["extract", "--plus", str(plus), "--minus", str(minus),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    name, value, sigma = row.split(",")
    assert captured.err == (f"error: {bad}: row {name},{float(value):g},{float(sigma):g} is "
                            f"no correlation: its value must lie in [-1, 1] and its sigma "
                            f"in [0, 1]\n")
    assert not out.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_extract_holds_the_file_sigmas_to_the_significance_rule(tmp_path, capsys):
    # the golden observables read at their own sigmas (|F| / sigma_F near
    # 200) and exit 2 once the sigmas of one branch are 60 times larger
    plus, minus = (str(GOLDEN_INPUTS / f"obs_{b}.csv") for b in ("plus", "minus"))
    rows = [line.split(",") for line in Path(minus).read_text().split()]
    wide = tmp_path / "wide.csv"
    wide.write_text("\n".join([",".join(rows[0])] + [f"{name},{value},{60 * float(sigma)!r}"
                                                      for name, value, sigma in rows[1:]]))
    assert main(["extract", "--plus", plus, "--minus", minus]) == 0
    assert capsys.readouterr().out == "20.026790, 10.006594\n"
    assert main(["extract", "--plus", plus, "--minus", str(wide)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: extraction ill-conditioned: \|minus-branch factor\| = "
                        r"0\.930\d+ = \S+ sigma_F < 4 sigma_F\n", captured.err)


@pytest.mark.parametrize("argv", [
    ["extract", "--plus", "x.csv", "--minus", "x.csv", "--modulus-floor", "0"],
    ["scan", "--config", str(GOLDEN_INPUTS / "scan.ini"), "--exact", "--noise-floor", "0"]])
def test_phase_floors_are_not_options(capsys, argv):
    # every readout judges its phase by one rule, |F| >= max(MODULUS_FLOOR,
    # SIGNIFICANCE sigma_F) in measure._branch_rotations, whose constants
    # are not options: a floor flag is an unknown option
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {argv[-2]} 0" in captured.err


@pytest.mark.parametrize("exact, factor", [(True, "0 < 1e-06"),
                                           (False, "0.000265695 = 1.2 sigma_F < 4 sigma_F")],
                         ids=["exact", "sampled"])
def test_scan_of_an_unpolarized_source_exits_2_as_a_flat_response(tmp_path, capsys,
                                                                  exact, factor):
    # at visibility 0 the grid phasors carry no phase: the scan reads its
    # mean phasor as a minus-branch factor under the one rule of
    # measure._branch_rotations, which names |F| and, for sampled counts,
    # |F| / sigma_F (exact data have sigmas, but a zero phasor is below
    # MODULUS_FLOOR)
    text = (GOLDEN_INPUTS / "scan.ini").read_text(encoding="utf-8")
    cfg = write_config(tmp_path, text + "\n[noise]\nvisibility = 0\n")
    assert main(["scan", "--config", cfg, *(["--exact"] if exact else [])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: extraction ill-conditioned: |minus-branch factor| = {factor}\n"


@pytest.mark.parametrize("pair_flux", ["1e2", "1e3", "1e4", "1e5", "1e6"])
@pytest.mark.parametrize("run", ["scan", "sweep"])
def test_an_unpolarized_source_reads_no_rotation_at_any_count(tmp_path, capsys, run,
                                                              pair_flux):
    # a sampled readout of a visibility-0 source is noise at every count, and
    # a constant floor let some through: scan.ini printed -2.312211,
    # -34.126489 and -62.753228 at pair_flux 100, seeds 1-3, and -2.733340
    # at 1e5, seed 3, each with exit 0
    text = (GOLDEN_INPUTS / f"{'scan' if run == 'scan' else 'sweep_theta'}.ini").read_text()
    text = re.sub(r"pair_flux = \d+", f"pair_flux = {pair_flux}", text)
    text = (text.replace("visibility = 0.9", "visibility = 0") if run == "sweep"
            else text + "\n[noise]\nvisibility = 0\n")
    for seed in ("1", "2", "3"):
        cfg = write_config(tmp_path, re.sub(r"seed = \d+", f"seed = {seed}", text))
        argv = [run, "--config", cfg, *(["--out", str(tmp_path / "s.csv")] * (run == "sweep"))]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: extraction ill-conditioned(?: at stack index \(\d+,\))?: "
                            r"\|(plus|minus)-branch factor\| = \S+ = \S+ sigma_F < 4 sigma_F\n",
                            captured.err), captured.err


def test_scan_range_deg_is_not_an_option(capsys):
    # the scan readout lies in [-90, 90); the window flag that picked another
    # representative of the angle mod 180 is an unknown option
    assert main(["scan", "--config", str(GOLDEN_INPUTS / "scan.ini"), "--exact",
                 "--range-deg", "100", "300"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --range-deg 100 300" in captured.err


def test_extract_prints_no_negative_zero(tmp_path, capsys):
    # both branch rotations are -5e-13 rad, so theta_a read -0.000000
    obs = tmp_path / "obs.csv"
    obs.write_text("observable,value,sigma\nm_zz,-1,0\nm_xz,1e-12,0\nm_zx,0,0\n")
    out = tmp_path / "thetas.csv"
    assert main(["extract", "--plus", str(obs), "--minus", str(obs),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == "0.000000, 0.000000\n"
    assert out.read_text().splitlines()[-1] == "0.000000,0.000000"


def test_repeated_main_calls_share_one_parser_and_leak_nothing(capsys):
    # main() builds its parser once per process; each call must still see
    # only its own flags and the defaults, whatever ran before it
    from polarot import cli
    scan = ["scan", "--config", str(GOLDEN_INPUTS / "scan.ini")]
    fisher = ["fisher", "--n-values", "1,2"]
    argvs = [scan + ["--seed", "4"], scan,
             fisher + ["--trials", "20", "--seed", "4", "--theta-deg", "12"], fisher,
             scan + ["--seed", "3", "--exact"], scan,
             ["extract", "--plus", "x"], scan]
    shared = [(main(argv), capsys.readouterr()) for argv in argvs]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append((main(argv), capsys.readouterr()))
    assert shared == fresh
    # the seed and the trials really changed the printed results
    assert shared[0][1].out != shared[1][1].out
    assert shared[2][1].out.splitlines()[0] != shared[3][1].out.splitlines()[0]
    assert shared[6][0] == 1
    parser = cli.build_parser()
    for argv in argvs[:-2]:
        fresh_args = cli.build_parser.__wrapped__().parse_args(argv)
        assert vars(parser.parse_args(argv)) == vars(fresh_args)
    assert (parser.parse_args(scan).seed, parser.parse_args(scan).exact) == (None, False)


@pytest.mark.parametrize("missing", ["start", "stop", "count"])
def test_sweep_range_missing_key_exits_2(tmp_path, monkeypatch, capsys, missing):
    sweep = "".join(f"{key} = {value}\n" for key, value in
                    (("start", "0"), ("stop", "4"), ("count", "3")) if key != missing)
    text = SWEEP_TEMPLATE.replace("values = 0, 1.0, 2.0, 3.0, 4.0\n", sweep)
    monkeypatch.setenv("POLAROT_OUT", str(tmp_path))
    assert main(["sweep", "--config", write_config(tmp_path, text)]) == 2
    assert f"[sweep] range is missing '{missing}'" in capsys.readouterr().err


VERIFY_CHECKS = [
    "pauli-algebra", "rotation-group", "bell-nonlocal-equivalence",
    "joint-observable-closed-forms", "separable-contrast-amplitude",
    "extraction-round-trip", "chsh-analytic", "tomography-design-rank",
    "mle-exact-self-consistency", "qfi-closed-form", "noise-physicality",
]


def verify_report(capsys):
    """The verify report as {check name: status}, in printed order."""
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    return dict(l.split(" (")[0].split(": ")[::-1] for l in lines)


def test_verify_command(capsys):
    assert main(["verify"]) == 0
    report = verify_report(capsys)
    assert list(report) == VERIFY_CHECKS
    assert set(report.values()) == {"ok"}


ROTATE_ARM = cli.rotate_arm


def offset_rotations(rho, theta, arm):
    return ROTATE_ARM(rho, np.add(theta, 0.1), arm)


def arm_b_flipped_rotations(rho, theta, arm):
    return ROTATE_ARM(rho, np.negative(theta) if arm == 1 else theta, arm)


def arm_a_offset_rotations(rho, theta, arm):
    return ROTATE_ARM(rho, np.add(theta, 0.1) if arm == 0 else theta, arm)


def raising_rotations(rho, theta, arm):
    raise ValueError("no rotation")


# a constant offset breaks the group law and the closed forms, but not the
# nonlocal equivalence, which a sign flip on one arm breaks; an arm-A offset
# moves the separable contrast |cos 2 theta_a| off its grid, and breaks the
# group law on arm A alone, so the law must be checked on both arms; a kernel that
# raises fails the checks that call it, and the report still lists them all
@pytest.mark.parametrize("check, broken", [
    ("rotation-group", offset_rotations),
    ("bell-nonlocal-equivalence", arm_b_flipped_rotations),
    ("joint-observable-closed-forms", offset_rotations),
    ("separable-contrast-amplitude", arm_a_offset_rotations),
    ("rotation-group", arm_a_offset_rotations),
    ("rotation-group", raising_rotations),
])
def test_verify_fails_on_a_broken_rotation_kernel(monkeypatch, capsys, check, broken):
    monkeypatch.setattr(cli, "rotate_arm", broken)
    assert main(["verify"]) == 2
    report = verify_report(capsys)
    assert list(report) == VERIFY_CHECKS
    assert report[check] == "FAIL"


EXACT_OBSERVABLES = cli.exact_observables


def zx_flipped_observables(rho):
    return EXACT_OBSERVABLES(rho) * np.array([1.0, 1.0, -1.0])


def narrow_window_extraction(m_plus, m_minus, sigma_plus, sigma_minus):
    # wraps both angles into +-43.5 deg, a quarter turn of 87 deg, instead of
    # +-45 deg; the round-trip grid ends at +-44 deg
    m = np.stack((m_plus, m_minus))
    thetas, _ = measure._branch_rotations(("psi_plus", "psi_minus"), m[..., 0], m[..., 1])
    return measure._local_angles(*thetas, quarter_turn=math.radians(87.0))


# each check that reads the correlation arrays fails alone when its reading
# is broken: the M_zx column, and the window of the extraction
@pytest.mark.parametrize("name, broken, check, detail", [
    ("exact_observables", zx_flipped_observables, "joint-observable-closed-forms",
     "max deviation 2.00e+00"),
    ("extract_thetas", narrow_window_extraction, "extraction-round-trip",
     "max angle error 1.52e+00 rad"),
], ids=["m-zx-flipped", "window-narrowed"])
def test_verify_fails_on_a_broken_readout(monkeypatch, capsys, name, broken, check, detail):
    monkeypatch.setattr(cli, name, broken)
    assert main(["verify"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" (")[0] for line in lines] == [
        f"{'FAIL' if c == check else 'ok'}: {c}" for c in VERIFY_CHECKS]
    assert f"FAIL: {check} ({detail})" in lines


def test_cli_import_loads_no_scipy():
    # the runtime needs numpy only; scipy is a test dependency
    code = ("import sys, polarot.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(polarot.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_out_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("POLAROT_OUT", str(tmp_path / "outputs"))
    cfg = write_config(tmp_path, EXACT_TEMPLATE.format(kind="psi_plus"))
    assert main(["simulate", "--config", cfg, "--exact", "--out", "run/c.csv"]) == 0
    assert (tmp_path / "outputs" / "run" / "c.csv").exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_input_exits_2(tmp_path, capsys, bad):
    header = "setting_a_id,setting_b_id,n_pp,n_pm,n_mp,n_mm\n"
    table = tmp_path / "table.csv"
    table.write_text(header + f"Z,Z,{bad},10,10,10\nX,Z,10,10,10,10\n"
                     "Z,X,10,10,10,10\n")
    assert main(["observables", "--table", str(table)]) == 2
    chsh = tmp_path / "chsh.csv"
    chsh.write_text(header + f"lin:0,lin:22.5,{bad},1,1,1\n"
                    "lin:0,lin:67.5,1,1,1,1\nlin:45,lin:22.5,1,1,1,1\n"
                    "lin:45,lin:67.5,1,1,1,1\n")
    assert main(["chsh", "--table", str(chsh)]) == 2
    good = tmp_path / "good.csv"
    good.write_text("observable,value,sigma\nm_zz,-1,0\nm_xz,0,0\nm_zx,0,0\n")
    for row in (f"m_zz,{bad},0", f"m_zz,-1,{bad}"):
        obs = tmp_path / "obs.csv"
        obs.write_text(f"observable,value,sigma\n{row}\nm_xz,0,0\nm_zx,0,0\n")
        assert main(["extract", "--plus", str(obs), "--minus", str(good)]) == 2
        assert main(["extract", "--plus", str(good), "--minus", str(obs)]) == 2
    assert "nan" not in capsys.readouterr().out



CONFIG_NUMBER_KEYS = ("pair_flux", "duration", "angle_deg", "molarity",
                      "slope_deg_per_molar", "pbs_a_deg", "pbs_b_deg", "hwp_deg",
                      "values")


@pytest.mark.parametrize("command", [["sweep"], ["sweep", "--exact"], ["scan"],
                                     ["simulate"]],
                         ids=["sweep", "sweep-exact", "scan", "simulate"])
@pytest.mark.parametrize("key", CONFIG_NUMBER_KEYS)
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_config_number_exits_2(tmp_path, monkeypatch, capsys, command,
                                          key, bad):
    value = f"0, 1.0, {bad}" if key == "values" else bad
    text = "\n".join(f"{key} = {value}" if line.startswith(f"{key} =") else line
                     for line in SWEEP_TEMPLATE.splitlines())
    monkeypatch.setenv("POLAROT_OUT", str(tmp_path))
    assert main([*command, "--config", write_config(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert key in err and bad in err


def with_key(text, section, key, value):
    """Config text with `key = value` set in [section]."""
    parser = configparser.ConfigParser()
    parser.read_string(text)
    if not parser.has_section(section):
        parser.add_section(section)
    parser[section][key] = value
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


@pytest.mark.parametrize("command", ["sweep", "simulate"])
@pytest.mark.parametrize("section, key, value, name", [
    ("arm_a", "transmission", "1.5", "transmission_a"),
    ("arm_b", "transmission", "1.5", "transmission_b"),
    ("noise", "visibility", "1.2", "visibility"),
    ("statistics", "pair_flux", "-1", "pair_flux"),
    ("statistics", "duration", "-1", "duration")],
    ids=["transmission_a", "transmission_b", "visibility", "pair_flux", "duration"])
def test_out_of_range_detection_value_exits_2(tmp_path, monkeypatch, capsys, command,
                                              section, key, value, name):
    # simulate reads no [sweep]
    template = SWEEP_TEMPLATE if command == "sweep" else SWEEP_TEMPLATE.split("[sweep]")[0]
    text = with_key(template, section, key, value)
    monkeypatch.setenv("POLAROT_OUT", str(tmp_path))
    assert main([command, "--config", write_config(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert name in err and value in err


@pytest.mark.parametrize("flags", [[], ["--exact"]], ids=["sampled", "exact"])
def test_an_accidental_fraction_exits_2_naming_the_visibility_it_equals(tmp_path, capsys,
                                                                        flags):
    # sim.ini set visibility 0.95 and accidental_fraction 0.02 until the key
    # went: uniform accidentals are Werner noise, so the config now sets
    # their product V (1 - f) = 0.931, and its goldens kept every count
    golden = (GOLDEN_INPUTS / "sim.ini").read_text()
    text = golden.replace("visibility = 0.931\n",
                          "visibility = 0.95\naccidental_fraction = 0.02\n")
    assert text != golden
    out = tmp_path / "counts.csv"
    assert main(["simulate", "--config", write_config(tmp_path, text), *flags,
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: [noise] accidental_fraction is no longer read: "
                            "accidentals uniform over the four outcomes are Werner "
                            "noise, so set [noise] visibility = V * (1 - f) = 0.931 "
                            "instead\n")
    assert not out.exists()
    # without a visibility key the folded value is the default's, 1 - f
    text = golden.replace("visibility = 0.931\n", "accidental_fraction = 0.25\n")
    assert main(["simulate", "--config", write_config(tmp_path, text), *flags,
                 "--out", str(out)]) == 2
    assert "visibility = V * (1 - f) = 0.75 instead" in capsys.readouterr().err
    assert not out.exists()
