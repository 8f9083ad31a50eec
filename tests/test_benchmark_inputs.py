"""The benchmark's generated inputs run through the command line: a config
or flag check that refused them would fail every op of a benchmark run.
Its tracer's counters read the arguments and results of the functions they
count, so they are held to those functions' signatures here."""

import shutil
import types
from pathlib import Path

import pytest

from golden.cases import CASES, INPUTS
from polarot.cli import OUT_ENV, main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    # compiled from its source, so that no bytecode lands under perfbench/
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("workload", ["sweep", "scan", "tomo", "fisher"])
def test_the_first_benchmark_ops_run(tmp_path, capsys, workload):
    workloads = _load("workloads")
    pool = tmp_path / "pool"
    ops = workloads.generate_pool(workload, 1, pool, size=2)
    for i, op in enumerate(ops):
        out = workloads.output_path(workload, tmp_path / "out", i)
        assert main(workloads.command(workload, op, pool, out)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        checked = workloads.check_output(workload, op, captured.out, out)
        assert checked["violations"] == []


def test_the_tracer_counters_read_the_traced_calls(tmp_path, monkeypatch):
    # the counters take trials from variance_scaling's second argument and
    # the length of its result, solver iterations from mle_reconstruct's
    # result and written bytes from the path argument of save_state
    monkeypatch.delenv(OUT_ENV, raising=False)
    shutil.copytree(INPUTS, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    tracer = _load("spans").Tracer()
    tracer.install()
    try:
        assert main(["fisher", "--n-values", "1,2,4,8,16", "--trials", "1000"]) == 0
        assert main(CASES["tomo"][0]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counters["metrology.trials"] == 5000
    assert tracer.counters["tomography.mle.iters"] > 0
    assert tracer.counters["io.bytes_written"] == (tmp_path / "rho.txt").stat().st_size
