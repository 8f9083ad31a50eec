"""Byte-for-byte golden outputs of the CLI (cases in golden/cases.py;
regenerate with `python tests/golden/regen.py`)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import blas_core
import polarot
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


# runs one golden case and prints the OpenBLAS core, the exit code and the
# names of the files that differ from their goldens
_RUN_CASE = """
import sys
from pathlib import Path
import blas_core
from golden.cases import EXPECTED, run_case
name = sys.argv[1]
code, files = run_case(name, Path(sys.argv[2]))
print(blas_core.core_name(), code, *sorted(
    file for file, data in files.items() if data != (EXPECTED / name / file).read_bytes()))
"""
# the names OpenBLAS gives the SSE3 core that OPENBLAS_CORETYPE=Prescott forces
PRESCOTT_NAMES = ("Prescott", "Katmai")


@pytest.mark.parametrize("name", ["sweep_theta_exact"])
def test_golden_output_under_the_prescott_core(name, tmp_path):
    # a cell of this case read -0.000000 on the Prescott core, 0.000000 on
    # others. OpenBLAS reads OPENBLAS_CORETYPE when it loads, so the case
    # runs in a fresh interpreter.
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parent), str(Path(polarot.__file__).parents[1])]))
    run = subprocess.run([sys.executable, "-c", _RUN_CASE, name, str(tmp_path / "run")],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    core, code, *differing = run.stdout.split()
    if core not in PRESCOTT_NAMES:
        pytest.skip(f"OPENBLAS_CORETYPE=Prescott ran on OpenBLAS core {core}")
    assert code == "0"
    assert not differing, f"{name}: {differing} differ from their goldens under {core}"
