"""Inputs, commands and output checks of the four benchmark workloads.

Every input is generated here from the workload seed with numpy and the
standard library only, so the ground truth never depends on the program
under test. The program sees only the files written by `generate_pool`.

Each workload is a list of ops; op i is one `polarot` command. The pool
holds POOL_SIZE ops and the closed loop cycles through it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep", "scan", "tomo", "fisher")
POOL_SIZE = 256

# sweep and scan: shipped calibration defaults (no [offsets] section, 0.75
# transmission per arm) plus Werner noise on the source state
WERNER_VISIBILITY = 0.9
SWEEP_POINTS = 101
SWEEP_THETA_A_DEG = 15.0        # arm-A rotation drawn from +-15 deg
SWEEP_HALF_SPAN_DEG = 25.0      # arm-B sweep spans +-25 deg around a centre
SWEEP_CENTRE_DEG = 5.0          # drawn from +-5 deg
SCAN_THETA_A_DEG = 75.0         # hidden arm-A rotation drawn from +-75 deg

# tomo: Werner visibilities from the interior to the pure boundary, cycled
# in this order. Solver cost rises steeply towards p = 1; the levels are
# dense around the median op (0.97867, the acceptance-criterion 5b state)
# so that the latency median does not jump between isolated cost clusters.
TOMO_VISIBILITIES = (0.80, 0.90, 0.95, 0.97, 0.97867, 0.985, 0.99, 0.995, 1.0)
TOMO_FLUX = 4e4                 # mean 1e4 counts per basis
TOMO_BOOTSTRAP = 3

FISHER_N = (1, 2, 4, 8, 16)
FISHER_TRIALS = 1000
FISHER_THETA_DEG = (10.0, 40.0)

# ops per second of --seconds: a run is a fixed number of ops, so that the
# same seed and --seconds run the same ops and fail the same ones. The rates
# are the program's own at nominal machine speed (see speed.py) when the
# benchmark was written, so a run lasts about --seconds for that program.
OPS_PER_S = {"sweep": 4.0, "scan": 14.0, "tomo": 7.5, "fisher": 7.5}

# output checks
SIGMA_LIMIT = 6.0               # sweep theta_plus/minus within 6 own sigmas
SCAN_LIMIT_DEG = 5.0            # scan angle within 5 deg of the truth
INFIDELITY_LIMIT = 0.05         # tomo 1 - F(rho_hat, rho_true)
QFI_RTOL = 1e-9

_STREAM = {name: k for k, name in enumerate(WORKLOADS)}

_S2 = 1.0 / math.sqrt(2.0)
_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([_S2, _S2], dtype=complex),
    "R": np.array([_S2, -1j * _S2], dtype=complex),
    "L": np.array([_S2, 1j * _S2], dtype=complex),
}
TOMO_LABELS = ([("H", g) for g in "HVDL"] + [("V", g) for g in "HVDL"]
               + [("R", g) for g in "HVDL"] + [("D", d) for d in "HVDR"])


def _deg(value: float) -> str:
    return f"{value:.6f}"


def _config_text(theta_a: str, op_seed: int, sweep_values: str | None) -> str:
    lines = ["[state]", "kind = psi_minus",
             "[noise]", f"visibility = {WERNER_VISIBILITY}",
             "[arm_a]", f"angle_deg = {theta_a}",
             "[arm_b]", "angle_deg = 0.0",
             "[statistics]", f"seed = {op_seed}"]
    if sweep_values is not None:
        lines += ["[sweep]", "variable = theta_b", f"values = {sweep_values}"]
    return "\n".join(lines) + "\n"


def werner_psi_plus(p: float) -> np.ndarray:
    psi = np.array([0.0, _S2, _S2, 0.0], dtype=complex)
    return p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(4) / 4.0


def tomo_probabilities(rho: np.ndarray) -> np.ndarray:
    kets = np.array([np.kron(_KETS[a], _KETS[b]) for a, b in TOMO_LABELS])
    return np.einsum("ki,ij,kj->k", kets.conj(), rho, kets).real


def generate_pool(workload: str, seed: int, pool_dir, size: int = POOL_SIZE) -> list[dict]:
    """Write the input files of `size` ops into pool_dir and return the op
    specs (also written to pool_dir/manifest.json). Same workload and seed
    give byte-identical files."""
    if workload not in _STREAM:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    pool_dir = Path(pool_dir)
    pool_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, _STREAM[workload]])
    ops = []
    for i in range(size):
        op_seed = int(rng.integers(0, 2**31 - 1))
        op = {"index": i, "seed": op_seed}
        if workload == "sweep":
            theta_a = _deg(rng.uniform(-SWEEP_THETA_A_DEG, SWEEP_THETA_A_DEG))
            centre = rng.uniform(-SWEEP_CENTRE_DEG, SWEEP_CENTRE_DEG)
            values = [_deg(v) for v in centre + np.linspace(
                -SWEEP_HALF_SPAN_DEG, SWEEP_HALF_SPAN_DEG, SWEEP_POINTS)]
            text = _config_text(theta_a, op_seed, ",".join(values))
            op.update(input=f"op{i:04d}.ini", theta_a_deg=float(theta_a),
                      theta_b_deg=[float(v) for v in values])
        elif workload == "scan":
            theta_a = _deg(rng.uniform(-SCAN_THETA_A_DEG, SCAN_THETA_A_DEG))
            text = _config_text(theta_a, op_seed, None)
            op.update(input=f"op{i:04d}.ini", theta_a_deg=float(theta_a))
        elif workload == "tomo":
            p = TOMO_VISIBILITIES[i % len(TOMO_VISIBILITIES)]
            counts = rng.poisson(TOMO_FLUX * tomo_probabilities(werner_psi_plus(p)))
            rows = [f"{a},{b},{int(n)}" for (a, b), n in zip(TOMO_LABELS, counts)]
            text = "basis_label_a,basis_label_b,count\n" + "\n".join(rows) + "\n"
            op.update(input=f"op{i:04d}.csv", visibility=p)
        else:
            theta = _deg(rng.uniform(*FISHER_THETA_DEG))
            text = None
            op.update(theta_deg=theta)
        if text is not None:
            (pool_dir / op["input"]).write_text(text, encoding="utf-8")
        ops.append(op)
    (pool_dir / "manifest.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "ops": ops}, sort_keys=True),
        encoding="utf-8")
    return ops


def op_count(workload: str, seconds: float) -> int:
    """Number of ops in a run of `seconds`."""
    return max(1, round(seconds * OPS_PER_S[workload]))


def load_pool(pool_dir) -> list[dict]:
    return json.loads((Path(pool_dir) / "manifest.json").read_text(encoding="utf-8"))["ops"]


def output_path(workload: str, out_dir, i: int) -> Path | None:
    suffix = {"sweep": ".csv", "tomo": ".state"}.get(workload)
    return None if suffix is None else Path(out_dir) / f"op{i:05d}{suffix}"


def command(workload: str, op: dict, pool_dir, out: Path | None) -> list[str]:
    """argv of one op for polarot.cli.main."""
    seed = str(op["seed"])
    if workload == "sweep":
        return ["sweep", "--config", str(Path(pool_dir) / op["input"]),
                "--seed", seed, "--out", str(out)]
    if workload == "scan":
        return ["scan", "--config", str(Path(pool_dir) / op["input"]),
                "--exact", "--seed", seed]
    if workload == "tomo":
        return ["tomo", "--counts", str(Path(pool_dir) / op["input"]),
                "--reference", "psi_plus", "--bootstrap", str(TOMO_BOOTSTRAP),
                "--seed", seed, "--out-state", str(out)]
    return ["fisher", "--n-values", ",".join(map(str, FISHER_N)),
            "--trials", str(FISHER_TRIALS), "--seed", seed,
            "--theta-deg", op["theta_deg"]]


# ---------------------------------------------------------------- checks


class OutputError(ValueError):
    """An op's output is missing, does not parse or is not finite."""


def _finite(values, what):
    arr = np.asarray(values, dtype=float)
    if arr.size == 0 or not np.isfinite(arr).all():
        raise OutputError(f"{what} is empty or not finite")
    return arr


def _read_csv(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise OutputError("no CSV header")
    header = lines[0].split(",")
    try:
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    except ValueError as exc:
        raise OutputError(f"unparsable CSV row: {exc}") from None
    if any(len(r) != len(header) for r in rows):
        raise OutputError("ragged CSV rows")
    return header, np.array(rows, dtype=float)


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    w, v = np.linalg.eigh(rho)
    sq = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    ev = np.linalg.eigvalsh(sq @ sigma @ sq)
    return float(min(np.sqrt(np.clip(ev, 0.0, None)).sum() ** 2, 1.0))


def _separable_estimate(k_z: int, n_z: int, k_x: int, n_x: int) -> float:
    # same arithmetic as the program's single-photon estimator, so that
    # signed zeros land on the same branch of atan2
    m_z = 2.0 * k_z / n_z - 1.0
    m_x = 2.0 * k_x / n_x - 1.0 if n_x > 0 else 0.0
    return 0.5 * math.atan2(-m_x, -m_z)


def _binomial_pmf(n: int, p: float) -> list[float]:
    return [math.comb(n, k) * p ** k * (1.0 - p) ** (n - k) for k in range(n + 1)]


def separable_variance(n: int, theta: float) -> float:
    """Exact variance of the separable n-photon estimator at rotation theta
    (radians), by enumerating both binomial outcomes."""
    n_z = (n + 1) // 2
    n_x = n - n_z
    pz = _binomial_pmf(n_z, 0.5 * (1.0 - math.cos(2.0 * theta)))
    px = _binomial_pmf(n_x, 0.5 * (1.0 - math.sin(2.0 * theta))) if n_x else [1.0]
    mean = second = 0.0
    for k_z, w_z in enumerate(pz):
        for k_x, w_x in enumerate(px):
            est = _separable_estimate(k_z, n_z, k_x, n_x)
            mean += w_z * w_x * est
            second += w_z * w_x * est * est
    return second - mean * mean


def check_output(workload: str, op: dict, stdout: str, out: Path | None) -> dict:
    """Parse one op's output and compare it with the op's ground truth.

    Returns {"errors": [...], "violations": [...]} plus the per-op accuracy
    values: `angle_err_deg` (a list of signed angle errors) for sweep and
    scan, `infidelity` for tomo, `var_rel_err` (a list) for fisher.
    Raises OutputError when the output is missing, unparsable or not
    finite.
    """
    violations = []
    if workload == "sweep":
        if out is None or not out.is_file():
            raise OutputError("sweep output file missing")
        header, rows = _read_csv(out.read_text(encoding="utf-8"))
        _finite(rows, "sweep table")
        col = {name: k for k, name in enumerate(header)}
        theta_b = np.array(op["theta_b_deg"])
        if rows.shape[0] != len(theta_b) or not np.allclose(rows[:, col["theta_b_deg"]], theta_b):
            raise OutputError("sweep rows do not match the requested theta_b values")
        theta_a = op["theta_a_deg"]
        errors = []
        for name, truth in (("theta_plus_deg", theta_a + theta_b),
                            ("theta_minus_deg", theta_a - theta_b)):
            err = rows[:, col[name]] - truth
            sigma = rows[:, col[name.replace("theta", "sigma")]]
            bad = np.abs(err) > SIGMA_LIMIT * sigma + 1e-6
            if bad.any():
                violations.append(f"{name} beyond {SIGMA_LIMIT} sigma at "
                                  f"{int(bad.sum())} points")
            errors.append(err)
        errors.append(rows[:, col["theta_a_hat_deg"]] - theta_a)
        errors.append(rows[:, col["theta_b_hat_deg"]] - theta_b)
        return {"violations": violations,
                "angle_err_deg": np.concatenate(errors).tolist()}
    if workload == "scan":
        try:
            theta = float(stdout.strip())
        except ValueError:
            raise OutputError(f"scan printed {stdout.strip()!r}") from None
        _finite([theta], "scan angle")
        err = theta - op["theta_a_deg"]
        if abs(err) > SCAN_LIMIT_DEG:
            violations.append(f"scan angle off by {err:.3f} deg")
        return {"violations": violations, "angle_err_deg": [err]}
    if workload == "tomo":
        values = []
        for line in stdout.splitlines():
            if "=" in line and not line.startswith("converged"):
                values += [float(tok) for tok in line.split("=")[1].split("+-")]
        if len(values) != 9:
            raise OutputError(f"tomo report has {len(values)} numbers, expected 9")
        _finite(values, "tomo report")
        if out is None or not out.is_file():
            raise OutputError("tomo state file missing")
        entries = []
        for line in out.read_text(encoding="utf-8").splitlines():
            if line.strip() and not line.startswith("#"):
                re_s, im_s = line.split()
                entries.append(complex(float(re_s), float(im_s)))
        if len(entries) != 16:
            raise OutputError("tomo state file does not hold 16 entries")
        _finite([(z.real, z.imag) for z in entries], "tomo state")
        rho = np.array(entries).reshape(4, 4)
        if np.abs(rho - rho.conj().T).max() > 1e-8 or abs(np.trace(rho).real - 1.0) > 1e-8:
            violations.append("reconstructed state is not Hermitian with unit trace")
        infidelity = 1.0 - fidelity(rho, werner_psi_plus(op["visibility"]))
        if infidelity > INFIDELITY_LIMIT:
            violations.append(f"infidelity {infidelity:.4f} above {INFIDELITY_LIMIT}")
        return {"violations": violations, "infidelity": infidelity}
    header, rows = _read_csv(stdout)
    if header != ["n", "qfi", "var_entangled_bound", "var_separable_sim"]:
        raise OutputError(f"unexpected fisher header {header}")
    _finite(rows, "fisher table")
    if rows.shape[0] != len(FISHER_N) or list(rows[:, 0]) != list(FISHER_N):
        raise OutputError("fisher rows do not match the requested n values")
    theta = math.radians(float(op["theta_deg"]))
    rel = []
    for n, qfi, bound, var_sim in rows:
        if abs(qfi - 4.0 * n * n) > QFI_RTOL * 4.0 * n * n:
            violations.append(f"qfi({int(n)}) = {qfi!r}, expected {4 * n * n:g}")
        if abs(bound - 1.0 / (4.0 * n * n)) > QFI_RTOL / (4.0 * n * n):
            violations.append(f"bound({int(n)}) = {bound!r}")
        expected = separable_variance(int(n), theta) * (FISHER_TRIALS - 1) / FISHER_TRIALS
        rel.append(var_sim / expected - 1.0)
    return {"violations": violations, "var_rel_err": rel}
