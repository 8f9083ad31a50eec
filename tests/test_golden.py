"""Byte-for-byte golden outputs of the CLI (cases in golden/cases.py;
regenerate with `python tests/golden/regen.py`)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__

import blas_core
import polarot
import test_measure
from golden.cases import CASES, EXPECTED, run_case


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    code, files = run_case(name, tmp_path / "run")
    assert code == 0
    expected_dir = EXPECTED / name
    assert sorted(files) == sorted(p.name for p in expected_dir.iterdir())
    for file_name, data in files.items():
        expected = (expected_dir / file_name).read_bytes()
        assert data == expected, (f"{name}/{file_name} differs from its golden; "
                                  f"{blas_core.pin_note()}")


def test_openblas_core_is_named():
    # the core the failure message above names, read from numpy's bundled
    # OpenBLAS ('unknown' only where numpy bundles none)
    name = blas_core.core_name()
    assert name and name.isprintable()
    assert name != "unknown" or not blas_core.bundled_libraries()


def test_pin_note_names_the_core_and_the_simd_targets():
    # a pin that fails under another kernel names both of its causes
    note = blas_core.pin_note()
    assert f"OpenBLAS core {blas_core.core_name()}" in note
    assert f"numpy SIMD targets {blas_core.simd_targets()}" in note


# the names OpenBLAS gives the SSE3 core that OPENBLAS_CORETYPE=Prescott forces
PRESCOTT_NAMES = ("Prescott", "Katmai")
PRESCOTT = {"OPENBLAS_CORETYPE": "Prescott"}
# every target numpy can dispatch to switched off: numpy at its baseline
NUMPY_BASELINE = {"NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__)}


def run_under(env, code, *args) -> list:
    """Run code in a fresh interpreter under the variables env (OpenBLAS and
    numpy read theirs when they load), with the tests and the sources on its
    path, and return the words of the line it prints after its own header.
    Skips when env does not take effect on this machine."""
    header = "import blas_core; print(blas_core.core_name(), blas_core.simd_targets() == [])\n"
    full_env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parent), str(Path(polarot.__file__).parents[1])]))
    run = subprocess.run([sys.executable, "-c", header + code, *args], env=full_env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    (core, baseline), words = (line.split() for line in run.stdout.splitlines())
    if env is PRESCOTT and core not in PRESCOTT_NAMES:
        pytest.skip(f"OPENBLAS_CORETYPE=Prescott ran on OpenBLAS core {core}")
    if env is NUMPY_BASELINE and baseline != "True":
        pytest.skip("NPY_DISABLE_CPU_FEATURES left numpy SIMD targets on")
    return words


# runs one golden case and prints the exit code and the names of the files
# that differ from their goldens
_RUN_CASE = """
import sys
from pathlib import Path
from golden.cases import EXPECTED, run_case
name = sys.argv[1]
code, files = run_case(name, Path(sys.argv[2]))
print(code, *sorted(
    file for file, data in files.items() if data != (EXPECTED / name / file).read_bytes()))
"""
# the golden cases whose bytes hold on every kernel; tomo's solver output
# still moves with the BLAS core and numpy's SIMD level
KERNEL_FREE_CASES = ["simulate", "simulate_exact", "sweep_theta_exact", "sweep_theta",
                     "sweep_molarity", "sweep_molarity_exact", "scan", "scan_exact",
                     "extract"]


@pytest.mark.parametrize("name", KERNEL_FREE_CASES)
def test_golden_output_under_the_prescott_core(name, tmp_path):
    # a cell of sweep_theta_exact read -0.000000 on the Prescott core, 0.000000
    # on others, and rows of simulate_exact's exact.csv moved in the last digits
    code, *differing = run_under(PRESCOTT, _RUN_CASE, name, str(tmp_path / "run"))
    assert code == "0"
    assert not differing, f"{name}: {differing} differ from their goldens under Prescott"


@pytest.mark.parametrize("name", KERNEL_FREE_CASES)
def test_golden_output_at_the_numpy_baseline(name, tmp_path):
    code, *differing = run_under(NUMPY_BASELINE, _RUN_CASE, name, str(tmp_path / "run"))
    assert code == "0"
    assert not differing, f"{name}: {differing} differ from their goldens at numpy's baseline"


@pytest.mark.parametrize("env", [PRESCOTT, NUMPY_BASELINE], ids=["prescott", "numpy-baseline"])
def test_projector_pin_under_other_kernels(env):
    # the projector-tensor digest of test_measure, on another BLAS core and
    # at numpy's SIMD baseline
    digest, = run_under(env, "import test_measure; print(test_measure.projector_digest())")
    assert digest == test_measure.PROJECTOR_DIGEST
