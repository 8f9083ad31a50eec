"""The benchmark's generated inputs run through the command line: a config
or flag check that refused them would fail every op of a benchmark run."""

import types
from pathlib import Path

import pytest

from polarot.cli import main

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    # compiled from its source, so that no bytecode lands under perfbench/
    module = types.ModuleType("perfbench_workloads")
    exec(compile(WORKLOADS_PY.read_text(encoding="utf-8"), str(WORKLOADS_PY), "exec"),
         module.__dict__)
    return module


@pytest.mark.parametrize("workload", ["sweep", "scan", "tomo", "fisher"])
def test_the_first_benchmark_ops_run(tmp_path, capsys, workload):
    workloads = _load_workloads()
    pool = tmp_path / "pool"
    ops = workloads.generate_pool(workload, 1, pool, size=2)
    for i, op in enumerate(ops):
        out = workloads.output_path(workload, tmp_path / "out", i)
        assert main(workloads.command(workload, op, pool, out)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        checked = workloads.check_output(workload, op, captured.out, out)
        assert checked["violations"] == []
