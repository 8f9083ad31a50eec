"""Turn a span file into the per-layer table.

    python3 perfbench/trace_report.py .perfbench_runs/<workload>-seed<n>.spans.npz

A span's self time is its duration minus the part of its interval that
its child spans cover. Self times are grouped into the per-layer metrics
below, divided by the number of traced ops and brought to nominal machine
speed with the run's calibration factor (see speed.py). The report also checks
that the self times of all spans add up to the harness-measured wall time
of the traced ops within COVERAGE_TOL; the remainder is time the harness
spent around each call outside any span.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

import numpy as np

COVERAGE_TOL = 0.05

# traced function -> per-layer self-time metric; functions not listed here
# count towards "<layer>.other.self_s"
SELF_GROUPS = {
    "cli.main": "cli.self_s",
    "config.load_config": "config.load_config.self_s",
    "config.loads_config": "config.load_config.self_s",
    "states.validate_state": "states.validate_state.self_s",
    "states.fidelity": "states.fidelity.self_s",
    "channels.apply_local": "channels.apply_local.self_s",
    "sweeps.configured_state": "sweeps.configured_state.self_s",
    "sweeps.run_theta_sweep": "sweeps.run.self_s",
    "sweeps.run_molarity_sweep": "sweeps.run.self_s",
    "measure.outcome_probabilities": "measure.born.self_s",
    "measure.simulate_counts": "measure.sampling.self_s",
    "measure.exact_table": "measure.exact_table.self_s",
    "measure.estimate_observables": "measure.estimators.self_s",
    "measure.estimate_correlation": "measure.estimators.self_s",
    "measure.rotation_from_observables": "measure.estimators.self_s",
    "measure.extract_thetas": "measure.estimators.self_s",
    "measure.scan_theta_a": "measure.scan.self_s",
    "tomography.mle_reconstruct": "tomography.mle.self_s",
    "tomography.linear_inversion": "tomography.mle.self_s",
    "tomography.bootstrap_sigmas": "tomography.bootstrap.self_s",
    "metrology.variance_scaling": "metrology.variance_scaling.self_s",
    "measure.read_table": "io.read_s",
    "tomography.read_tomo_counts": "io.read_s",
    "states.load_state": "io.read_s",
    "sweeps.read_xy_csv": "io.read_s",
    "measure.write_table": "io.write_s",
    "tomography.write_tomo_counts": "io.write_s",
    "states.save_state": "io.write_s",
    "sweeps.write_sweep": "io.write_s",
}

CALL_COUNTS = {
    "measure.born.calls": "measure.outcome_probabilities",
    "states.validate_state.calls": "states.validate_state",
    "tomography.mle.calls": "tomography.mle_reconstruct",
}

OTHER_GROUPS = tuple(f"{layer}.other.self_s" for layer in (
    "states", "channels", "measure", "tomography", "metrology", "config", "sweeps"))

# every metric `layer_table` returns, in report order, with its unit
UNITS = {
    **{name: "s/op" for name in dict.fromkeys(SELF_GROUPS.values())},
    **{name: "s/op" for name in OTHER_GROUPS},
    **{name: "calls/op" for name in CALL_COUNTS},
    "tomography.mle.iters": "iters/op",
    "tomography.mle.nonconverged": "fits/op",
    "tomography.mle.converged_ratio": "ratio",
    "metrology.trials": "trials/op",
    "io.bytes_written": "B/op",
    "trace.harness_s": "s/op",
    "trace.spans": "spans/op",
}


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span's own interval."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    out = end - start
    children = defaultdict(list)
    for idx, par in enumerate(np.asarray(parent)):
        if par >= 0:
            children[int(par)].append(idx)
    for par, kids in children.items():
        lo, hi = start[par], end[par]
        covered, run_lo, run_hi = 0.0, None, None
        for k in sorted(kids, key=lambda k: start[k]):
            a, b = max(start[k], lo), min(end[k], hi)
            if b <= a:
                continue
            if run_hi is None or a > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = a, b
            else:
                run_hi = max(run_hi, b)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[par] -= covered
    return out


def load_spans(path) -> dict:
    with np.load(path) as data:
        spans = {key: data[key] for key in data.files}
    spans["meta"] = json.loads(str(spans["meta"]))
    return spans


def layer_table(spans: dict) -> tuple[dict, dict]:
    """Per-op per-layer metrics of a span file, plus the coverage check:
    returns (metrics, coverage) where coverage holds the summed self time,
    the summed op wall time, their relative gap and whether it is within
    COVERAGE_TOL."""
    names = [str(n) for n in spans["names"]]
    func = spans["func"]
    n_ops = max(len(spans["op_wall"]), 1)
    own = self_times(spans["start"], spans["end"], spans["parent"])
    metrics = dict.fromkeys(UNITS, 0.0)
    self_by_func = np.bincount(func, weights=own, minlength=len(names))
    calls_by_func = np.bincount(func, minlength=len(names))
    for fid, name in enumerate(names):
        group = SELF_GROUPS.get(name, name.split(".")[0] + ".other.self_s")
        metrics[group] += self_by_func[fid] / n_ops
    for metric, name in CALL_COUNTS.items():
        if name in names:
            metrics[metric] = calls_by_func[names.index(name)] / n_ops
    counters = spans["meta"]["counters"]
    fits = metrics["tomography.mle.calls"] * n_ops
    converged = counters["tomography.mle.converged"]
    metrics["tomography.mle.iters"] = counters["tomography.mle.iters"] / n_ops
    metrics["tomography.mle.nonconverged"] = (fits - converged) / n_ops
    metrics["tomography.mle.converged_ratio"] = converged / fits if fits else 0.0
    metrics["metrology.trials"] = counters["metrology.trials"] / n_ops
    metrics["io.bytes_written"] = counters["io.bytes_written"] / n_ops
    wall = float(np.sum(spans["op_wall"]))
    traced = float(own.sum())
    metrics["trace.harness_s"] = (wall - traced) / n_ops
    metrics["trace.spans"] = len(func) / n_ops
    scale = spans["meta"].get("scale", 1.0)
    for name, unit in UNITS.items():
        if unit == "s/op":
            metrics[name] *= scale
    gap = abs(wall - traced) / wall if wall > 0 else 0.0
    coverage = {"self_sum_s": traced, "wall_s": wall, "gap": gap,
                "tolerance": COVERAGE_TOL, "ok": gap <= COVERAGE_TOL}
    return metrics, coverage


def format_table(metrics: dict, units: dict, coverage: dict, n_ops: int) -> str:
    lines = [f"per-layer metrics over {n_ops} traced ops"]
    for name, unit in units.items():
        lines.append(f"  {name:40s} {metrics[name]:14.6g} {unit}")
    lines.append(f"  self times sum to {coverage['self_sum_s']:.6f} s of "
                 f"{coverage['wall_s']:.6f} s traced wall time (gap "
                 f"{coverage['gap']:.2%}, tolerance {coverage['tolerance']:.0%}): "
                 f"{'ok' if coverage['ok'] else 'FAIL'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: trace_report.py SPANS.npz", file=sys.stderr)
        return 1
    spans = load_spans(argv[0])
    metrics, coverage = layer_table(spans)
    print(format_table(metrics, UNITS, coverage, len(spans["op_wall"])))
    return 0 if coverage["ok"] else 2


if __name__ == "__main__":
    sys.exit(main())
