"""Benchmark of the polarot command line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload sweep,scan,tomo,fisher --seed 1

Run from the root of a checkout; the program is imported from its src/.
One client (this process, no extra threads) runs a closed loop: each op is
one in-process `polarot.cli.main(argv)` call, issued after the previous one
returned, on inputs generated from --seed. With --trace 0 it prints every
end-to-end metric; with --trace 1 it runs the same ops untraced and then
traced, and prints the per-layer metrics and the tracing overhead. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Full results (environment, every metric,
output hashes) go to .perfbench_runs/.
"""

import os

# one compute thread: the benchmark client is a single-threaded process
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import trace_report  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_runs"

SETUP_REPEATS = 3
WARMUP_OPS = 1
WALL_CAP_S = 120.0     # safety stop for the op loop, far above a run's usual length
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)
HASH_OPS = 16          # outputs of the first 16 ops are hashed
SETUP_TIMEOUT_S = 60

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
    "truth_err": "1",
}

TRACE_UNITS = {**trace_report.UNITS, "import.polarot_s": "s",
               "import.scipy_optimize_s": "s", "trace.overhead_frac": "ratio"}


def tail_percentile(n: int) -> float:
    """Highest of the percentiles 99.9, 99, 95, 90 and 75 with at least ten
    of n samples beyond it; the median when none has."""
    for q in TAIL_PERCENTILES:
        if n * (100 - q) >= 1000 - 1e-9:
            return q
    return 50


@dataclass
class OpResult:
    index: int
    latency: float
    kernel: float       # mean reference-kernel time right before and after the op
    code: int | None
    stdout: str
    out: Path | None
    error: str | None


def run_ops(cli, workload, pool, pool_dir, out_dir, count, tracer=None):
    """Closed loop over the pool: ops 0 to count - 1, so the same seed and
    count run the same ops. Runs of the reference kernel separate the ops.
    Stops early only if the loop has taken WALL_CAP_S."""
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    kernel = speed.kernel_seconds()
    deadline = time.perf_counter() + WALL_CAP_S
    while len(results) < count and time.perf_counter() < deadline:
        i = len(results)
        op = pool[i % len(pool)]
        out = wl.output_path(workload, out_dir, i)
        argv = wl.command(workload, op, pool_dir, out)
        captured = io.StringIO()
        if tracer is not None:
            tracer.current_op = i
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), \
                    contextlib.redirect_stderr(io.StringIO()):
                code, error = cli.main(argv), None
        except Exception as exc:  # a crashing op is a failed op; the loop goes on
            code, error = None, repr(exc)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.op_wall.append(t1 - t0)
        after = speed.kernel_seconds()
        results.append(OpResult(i, t1 - t0, 0.5 * (kernel + after), code,
                                captured.getvalue(), out, error))
        kernel = after
    return results


def evaluate(workload, pool, results) -> dict:
    """Check every op's output. An op fails if it raised, exited non-zero
    or left missing or non-finite output; the run is incorrect if a
    completed op's output breaks a check or an op exited 0 without usable
    output."""
    failures, violations = [], []
    accuracy = {"angle_err_deg": [], "infidelity": [], "var_rel_err": []}
    for r in results:
        op = pool[r.index % len(pool)]
        problem = r.error or (None if r.code == 0 else f"exit code {r.code}")
        try:
            checked = wl.check_output(workload, op, r.stdout, r.out)
        except (ValueError, KeyError, IndexError, OSError) as exc:
            if r.code == 0:
                violations.append(f"op {r.index}: exit 0 with bad output: {exc}")
            problem = problem or f"bad output: {exc}"
        else:
            violations += [f"op {r.index}: {v}" for v in checked["violations"]]
            for key, values in accuracy.items():
                value = checked.get(key)
                if value is not None:
                    values.extend(value if isinstance(value, list) else [value])
        if problem:
            failures.append(f"op {r.index}: {problem}")
    return {"failures": failures, "violations": violations, "accuracy": accuracy}


def truth_err(workload, accuracy) -> dict:
    """The end-to-end accuracy metric and its per-workload components."""
    if workload in ("sweep", "scan"):
        rms_deg = math.sqrt(np.mean(np.square(accuracy["angle_err_deg"])))
        return {"truth_err": math.radians(rms_deg), "angle_err_deg": rms_deg}
    if workload == "tomo":
        mean = float(np.mean(accuracy["infidelity"]))
        return {"truth_err": mean, "infidelity": mean}
    rms = math.sqrt(np.mean(np.square(accuracy["var_rel_err"])))
    return {"truth_err": rms, "var_rel_err": rms}


def outputs_sha256(workload, results) -> str:
    digest = hashlib.sha256()
    for r in results[:HASH_OPS]:
        digest.update(f"op {r.index} exit {r.code}\n".encode())
        if workload != "sweep":
            digest.update(r.stdout.encode())
        if r.out is not None and r.out.is_file():
            digest.update(r.out.read_bytes())
    return digest.hexdigest()


def _import_times(stderr: str) -> dict:
    """Cumulative import times (s) of polarot.cli and scipy.optimize from
    the interpreter's -X importtime report. scipy loads its subpackages
    lazily, so the report may have no line for scipy.optimize itself; its
    time is then the sum over the shallowest scipy.optimize.* lines."""
    polarot_s, optimize = 0.0, []
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 \
                or not parts[1].strip().isdigit():
            continue
        seconds = int(parts[1]) * 1e-6
        name = parts[2].lstrip()
        if name == "polarot.cli":
            polarot_s = seconds
        elif name == "scipy.optimize" or name.startswith("scipy.optimize."):
            optimize.append((len(parts[2]) - len(name), seconds))
    top = min((depth for depth, _ in optimize), default=0)
    return {"import.polarot_s": polarot_s,
            "import.scipy_optimize_s": sum(s for depth, s in optimize if depth == top)}


def nominal_latencies(results) -> np.ndarray:
    """Op latencies at nominal machine speed (see speed.py)."""
    return np.array([r.latency * speed.REF_NOMINAL_S / r.kernel for r in results])


def set_up(workload, seed, pool_dir, trace) -> dict:
    """SETUP_REPEATS fresh interpreters each import polarot.cli and write
    the inputs; set-up time is the median wall time of one, at nominal
    speed."""
    walls, scales, imports = [], [], []
    flags = ["-X", "importtime"] if trace else []
    for _ in range(SETUP_REPEATS):
        before = speed.kernel_seconds()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *flags, str(HERE / "setup_child.py"), workload,
             str(seed), str(pool_dir)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        scales.append(2.0 * speed.REF_NOMINAL_S / (before + speed.kernel_seconds()))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr[-2000:]}")
        imports.append(_import_times(proc.stderr))
    scale = statistics.median(scales)
    return {"setup_s": statistics.median(w * k for w, k in zip(walls, scales)),
            "raw_setup_s": statistics.median(walls), "scale": scale,
            **{key: scale * statistics.median(i[key] for i in imports)
               for key in imports[0]}}


def environment() -> dict:
    import scipy

    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        lines = proc.stdout.split()
        if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import polarot.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"polarot was imported from {cli.__file__}, not from {src}")
    return cli


def end_to_end(workload, results, setup, checked) -> tuple[dict, dict]:
    """End-to-end metrics, with times at nominal speed, and the extra
    figures printed next to them (raw times among them)."""
    raw = np.array([r.latency for r in results])
    calibrated = nominal_latencies(results)
    n = len(raw)
    ok = n - len(checked["failures"])
    q = tail_percentile(n)
    metrics = {
        "ops_per_s": ok / calibrated.sum(),
        "op_p50_ms": float(np.percentile(calibrated, 50)) * 1e3,
        "op_tail_ms": float(np.percentile(calibrated, q)) * 1e3,
        "setup_s": setup["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": ok / n,
    }
    accuracy = truth_err(workload, checked["accuracy"])
    metrics["truth_err"] = accuracy.pop("truth_err")
    extra = {"tail_percentile": q, "tail_samples_beyond": int(n * (100 - q) / 100 + 1e-9),
             "ops": n, "failed_frac": 1.0 - ok / n, **accuracy,
             "raw_ops_per_s": ok / raw.sum(),
             "raw_op_p50_ms": float(np.percentile(raw, 50)) * 1e3,
             "raw_op_tail_ms": float(np.percentile(raw, q)) * 1e3,
             "raw_setup_s": setup["raw_setup_s"],
             "kernel_ms": statistics.median(r.kernel for r in results) * 1e3}
    return metrics, extra


def run_workload(workload, seed, seconds, trace) -> dict:
    work = RUN_DIR / f"work-{workload}-{seed}-{os.getpid()}"
    pool_dir = work / "inputs"
    try:
        setup = set_up(workload, seed, pool_dir, trace)
        cli = import_program()
        pool = wl.load_pool(pool_dir)
        run_ops(cli, workload, pool, pool_dir, work / "warmup", WARMUP_OPS)
        report = {"workload": workload, "seed": seed, "seconds": seconds,
                  "trace": trace, "environment": environment(),
                  "setup": setup}
        if not trace:
            results = run_ops(cli, workload, pool, pool_dir, work / "out",
                              wl.op_count(workload, seconds))
            checked = evaluate(workload, pool, results)
            metrics, extra = end_to_end(workload, results, setup, checked)
            report.update(metrics=metrics, extra=extra)
            units = END_TO_END
        else:
            plain = run_ops(cli, workload, pool, pool_dir, work / "out",
                            wl.op_count(workload, seconds / 2.0))
            tracer = Tracer()
            with tracer:
                traced = run_ops(cli, workload, pool, pool_dir, work / "traced",
                                 len(plain), tracer=tracer)
            traced_nominal = nominal_latencies(traced).sum()
            span_file = RUN_DIR / f"{workload}-seed{seed}.spans.npz"
            tracer.save(span_file, {"workload": workload, "seed": seed, "scale":
                                    traced_nominal / sum(r.latency for r in traced)})
            metrics, coverage = trace_report.layer_table(trace_report.load_spans(span_file))
            metrics["import.polarot_s"] = setup["import.polarot_s"]
            metrics["import.scipy_optimize_s"] = setup["import.scipy_optimize_s"]
            metrics["trace.overhead_frac"] = (
                traced_nominal / nominal_latencies(plain).sum() - 1.0)
            results = plain + traced
            checked = evaluate(workload, pool, results)
            if not coverage["ok"]:
                checked["violations"].append("span self times do not cover the traced wall time")
            units = TRACE_UNITS
            report.update(metrics=metrics, coverage=coverage, span_file=str(span_file),
                          table=trace_report.format_table(metrics, units, coverage,
                                                          len(traced)))
        report.update(
            units=units, attempted=len(results), failed=len(checked["failures"]),
            correct=not checked["violations"], failures=checked["failures"],
            violations=checked["violations"],
            outputs_sha256=outputs_sha256(workload, results))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report


def print_report(report) -> None:
    print(f"workload {report['workload']}, seed {report['seed']}, "
          f"{report['attempted']} ops, {report['failed']} failed")
    if report["trace"]:
        print(report["table"])
        print(f"  tracing overhead {report['metrics']['trace.overhead_frac']:.2%} "
              f"(traced vs untraced run of the same ops); spans in {report['span_file']}")
    else:
        extra = report["extra"]
        for name, unit in report["units"].items():
            line = f"{name} = {report['metrics'][name]:.6g} {unit}"
            if name == "op_tail_ms":
                line += (f" (p{extra['tail_percentile']:g} of {extra['ops']} ops, "
                         f"{extra['tail_samples_beyond']} beyond)")
            print(line)
        for name in ("failed_frac", "angle_err_deg", "infidelity", "var_rel_err",
                     "raw_ops_per_s", "raw_op_p50_ms", "raw_op_tail_ms", "raw_setup_s",
                     "kernel_ms"):
            if name in extra:
                print(f"{name} = {extra[name]:.6g}")
    for line in report["failures"][:10] + report["violations"][:10]:
        print(f"  {line}")
    print(f"outputs sha256 (first {HASH_OPS} ops) {report['outputs_sha256']}")


def summary(report) -> dict:
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {name: {"value": report["metrics"][name], "unit": unit}
                        for name, unit in report["units"].items()}}


def run_many(names, args) -> int:
    """Run each workload in its own process and combine their summaries."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help=f"comma-separated subset of {', '.join(wl.WORKLOADS)}")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = args.workload.split(",")
    unknown = sorted(set(names) - set(wl.WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}")
    if not (ROOT / "src" / "polarot" / "__init__.py").is_file():
        print(f"error: no polarot sources under {ROOT / 'src'}; run the benchmark "
              f"from a full checkout", file=sys.stderr)
        return 2
    if len(names) > 1:
        return run_many(names, args)
    RUN_DIR.mkdir(exist_ok=True)
    report = run_workload(names[0], args.seed, args.seconds, bool(args.trace))
    name = f"{report['workload']}-seed{report['seed']}-trace{int(report['trace'])}.json"
    (RUN_DIR / name).write_text(json.dumps(
        {k: v for k, v in report.items() if k != "table"}, indent=1, default=str),
        encoding="utf-8")
    print_report(report)
    print(json.dumps(summary(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
