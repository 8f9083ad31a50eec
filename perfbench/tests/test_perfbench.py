"""Tests of the benchmark itself: input generation, self-time arithmetic,
the tail-percentile rule and the refusal to run without program sources.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import trace_report  # noqa: E402
import workloads  # noqa: E402


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(tmp_path, workload):
    first = workloads.generate_pool(workload, 7, tmp_path / "a", size=12)
    second = workloads.generate_pool(workload, 7, tmp_path / "b", size=12)
    other = workloads.generate_pool(workload, 8, tmp_path / "c", size=12)
    assert first == second
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert workloads.load_pool(tmp_path / "a") == json.loads(json.dumps(first))


def test_tomo_visibilities_cycle_to_the_pure_boundary(tmp_path):
    levels = len(workloads.TOMO_VISIBILITIES)
    ops = workloads.generate_pool("tomo", 1, tmp_path, size=2 * levels)
    assert [op["visibility"] for op in ops] == list(workloads.TOMO_VISIBILITIES) * 2
    assert {0.97867, 1.0} <= set(workloads.TOMO_VISIBILITIES)


def test_self_times_on_a_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap, and
    # c [9, 12], which outlives it; a has the grandchild g [2, 3]
    spans = {"root": (0.0, 10.0, -1), "a": (1.0, 4.0, 0), "b": (3.0, 6.0, 0),
             "g": (2.0, 3.0, 1), "c": (9.0, 12.0, 0)}
    start, end, parent = zip(*spans.values())
    own = trace_report.self_times(start, end, parent)
    expected = {"root": 10.0 - 5.0 - 1.0, "a": 3.0 - 1.0, "b": 3.0, "g": 1.0, "c": 3.0}
    assert dict(zip(spans, own)) == pytest.approx(expected)


def test_layer_table_groups_self_times_and_counts_per_op():
    names = ["cli.main", "measure.simulate_counts", "measure.outcome_probabilities",
             "tomography.mle_reconstruct", "states.ket"]
    # two ops: main -> simulate_counts -> 2 x outcome_probabilities, and
    # main -> mle_reconstruct -> ket
    rows = [(0, 0.0, 10.0, -1, 0), (1, 1.0, 5.0, 0, 0), (2, 2.0, 3.0, 1, 0),
            (2, 3.0, 4.0, 1, 0), (0, 20.0, 30.0, -1, 1), (3, 21.0, 29.0, 4, 1),
            (4, 22.0, 23.0, 5, 1)]
    func, start, end, parent, op = (np.array(c) for c in zip(*rows))
    spans = {"names": np.array(names), "func": func, "start": start, "end": end,
             "parent": parent, "op": op, "op_wall": np.array([10.5, 10.5]),
             "meta": {"counters": {"tomography.mle.iters": 40,
                                   "tomography.mle.converged": 0,
                                   "metrology.trials": 0, "io.bytes_written": 0}}}
    metrics, coverage = trace_report.layer_table(spans)
    assert metrics["cli.self_s"] == pytest.approx((6.0 + 2.0) / 2)
    assert metrics["measure.sampling.self_s"] == pytest.approx(2.0 / 2)
    assert metrics["measure.born.self_s"] == pytest.approx(2.0 / 2)
    assert metrics["measure.born.calls"] == pytest.approx(1.0)
    assert metrics["tomography.mle.self_s"] == pytest.approx(7.0 / 2)
    assert metrics["states.other.self_s"] == pytest.approx(1.0 / 2)
    assert metrics["tomography.mle.iters"] == pytest.approx(20.0)
    assert metrics["tomography.mle.nonconverged"] == pytest.approx(0.5)
    assert metrics["tomography.mle.converged_ratio"] == 0.0
    assert set(metrics) == set(trace_report.UNITS)
    assert coverage["self_sum_s"] == pytest.approx(20.0)
    assert coverage["gap"] == pytest.approx(1.0 / 21.0)
    assert coverage["ok"]


@pytest.mark.parametrize("n, percentile", [
    (1, 50), (19, 50), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
    (199, 90), (200, 95), (999, 95), (1000, 99), (9999, 99), (10000, 99.9),
    (50000, 99.9)])
def test_tail_percentile_rule(n, percentile):
    q = run.tail_percentile(n)
    assert q == percentile
    beyond = n * (100 - q) / 100
    assert beyond >= 10 - 1e-9 or q == 50
    higher = [p for p in run.TAIL_PERCENTILES if p > q]
    assert all(n * (100 - p) / 100 < 10 for p in higher)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_count_is_fixed_and_clear_of_percentile_changes(workload):
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
    n = workloads.op_count(workload, seconds)
    assert n == workloads.op_count(workload, float(seconds)) >= 1
    q = run.tail_percentile(n)
    assert run.tail_percentile(round(0.8 * n)) == q == run.tail_percentile(round(1.2 * n))


def test_fisher_exact_variance_matches_a_large_sample():
    rng = np.random.default_rng(3)
    theta = np.radians(30.0)
    for n in (1, 2, 5):
        n_z, n_x = (n + 1) // 2, n // 2
        m_z = 2.0 * rng.binomial(n_z, 0.5 * (1 - np.cos(2 * theta)), 10**6) / n_z - 1.0
        m_x = (2.0 * rng.binomial(n_x, 0.5 * (1 - np.sin(2 * theta)), 10**6) / n_x - 1.0
               if n_x else np.zeros(10**6))
        sample = 0.5 * np.arctan2(-m_x, -m_z)
        # relative standard error of the sample variance is below 0.4% here
        assert np.var(sample) == pytest.approx(workloads.separable_variance(n, theta), rel=0.02)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
