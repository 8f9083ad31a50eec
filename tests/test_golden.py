"""Byte-for-byte golden outputs of the CLI (cases in golden/cases.py;
regenerate with `python tests/golden/regen.py`)."""

import pytest

import blas_core
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
