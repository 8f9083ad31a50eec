"""The paper's physics as relations between exact runs through `cli.main`.

The cancellation branch (psi_minus) reads theta_a - theta_b and the
addition branch (psi_plus) theta_a + theta_b, whatever the source noise,
the analyzer offsets or the seed. Each property edits
`tests/golden/inputs/sweep_theta.ini`, runs commands in exact mode (so a
relation holds to round-off, not to a statistical bound) and compares the
printed angles within 1e-6 deg, each modulo its period.
"""

import contextlib
import io
import re
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from polarot.cli import main

SWEEP_THETA = (Path(__file__).parent / "golden" / "inputs" / "sweep_theta.ini").read_text()
# the four angle columns of a theta sweep, each defined modulo its period
ANGLES = {"theta_plus_deg": 180.0, "theta_minus_deg": 180.0,
          "theta_a_hat_deg": 90.0, "theta_b_hat_deg": 90.0}
# two printed values agree to one step of the sixth decimal, plus the
# round-off of the subtraction that compares them
TOLERANCE = 1e-6 + 1e-9
_OFFSET = st.floats(-20.0, 20.0)


def edited(text: str, **values) -> str:
    """`text` with the value of each `key = value` line named replaced; arm
    angles are named arm_a and arm_b, as both keys are angle_deg."""
    for key, value in values.items():
        section, key = (key, "angle_deg") if key.startswith("arm_") else (r"\w+", key)
        text, count = re.subn(rf"(\[{section}\]\n(?:[^\[].*\n)*?{key} = ).*", rf"\g<1>{value}",
                              text)
        assert count == 1, key
    return text


def run(argv) -> str:
    """The stdout of a command that must exit 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    return out.getvalue()


def exact_sweep(tmp_path_factory, text) -> tuple[str, dict]:
    """The sweep file of an exact run of the config `text`, and its
    columns by name."""
    workdir = tmp_path_factory.mktemp("sweep")
    (workdir / "sweep.ini").write_text(text)
    run(["sweep", "--config", str(workdir / "sweep.ini"), "--exact",
         "--out", str(workdir / "sweep.csv")])
    data = (workdir / "sweep.csv").read_text()
    header, *rows = [line for line in data.splitlines() if not line.startswith("#")]
    columns = np.array([[float(v) for v in row.split(",")] for row in rows]).T
    return data, dict(zip(header.split(","), columns))


def assert_angles_moved(before, after, shifts=None):
    """Each angle column of `after` is the one of `before` plus its shift
    (none by default), modulo the column's period."""
    for name, period in ANGLES.items():
        moved = after[name] - before[name] - (shifts or {}).get(name, 0.0)
        off = np.abs(moved - period * np.round(moved / period))
        assert off.max() <= TOLERANCE, (name, before[name], after[name])


@settings(max_examples=20, deadline=None)
@given(visibility=st.floats(0.05, 1.0))
def test_angles_do_not_depend_on_the_visibility(tmp_path_factory, visibility):
    _, base = exact_sweep(tmp_path_factory, SWEEP_THETA)
    _, noisy = exact_sweep(tmp_path_factory, edited(SWEEP_THETA, visibility=visibility))
    assert_angles_moved(base, noisy)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**63))
def test_exact_outputs_differ_only_in_their_seed_and_hash(tmp_path_factory, seed):
    base, _ = exact_sweep(tmp_path_factory, SWEEP_THETA)
    other, _ = exact_sweep(tmp_path_factory, edited(SWEEP_THETA, seed=seed))
    differing = [(a, b) for a, b in zip(base.splitlines(), other.splitlines()) if a != b]
    assert len(base.splitlines()) == len(other.splitlines())
    assert [b.split("=")[0] for _, b in differing] == (
        ["# config_hash", "# seed"] if seed != 21 else [])
    assert f"# seed={seed}\n" in other


@settings(max_examples=20, deadline=None)
@given(delta=st.floats(-400.0, 400.0))
def test_a_common_shift_moves_the_sum_and_not_the_difference(tmp_path_factory, delta):
    # delta on arm A and on every arm-B value: theta_a + theta_b moves by
    # 2 delta, each local angle by delta, and theta_a - theta_b stays
    _, base = exact_sweep(tmp_path_factory, SWEEP_THETA)
    values = ", ".join(repr(v + delta) for v in (-30.0, -10.0, 0.0, 15.0, 40.0))
    assert "values = -30, -10, 0, 15, 40\n" in SWEEP_THETA
    _, shifted = exact_sweep(tmp_path_factory, edited(
        SWEEP_THETA, arm_a=repr(20.0 + delta), values=values))
    assert_angles_moved(base, shifted, {"theta_plus_deg": 2.0 * delta,
                                        "theta_a_hat_deg": delta, "theta_b_hat_deg": delta})


@settings(max_examples=20, deadline=None)
@given(offsets=st.tuples(_OFFSET, _OFFSET, _OFFSET))
def test_offset_corrected_angles_do_not_depend_on_the_offsets(tmp_path_factory, offsets):
    _, base = exact_sweep(tmp_path_factory, SWEEP_THETA)
    _, other = exact_sweep(tmp_path_factory, edited(SWEEP_THETA, **dict(zip(
        ("pbs_a_deg", "pbs_b_deg", "hwp_deg"), map(repr, offsets)))))
    assert_angles_moved(base, other)


_INSIDE = st.floats(-44.9, 44.9)


@settings(max_examples=20, deadline=None)
@given(theta_a=_INSIDE, theta_b=_INSIDE, visibility=st.floats(0.05, 1.0))
def test_simulate_observables_extract_returns_the_configured_angles(
        tmp_path_factory, theta_a, theta_b, visibility):
    # with no analyzer offsets, the two branches' exact tables give back both
    # arm angles inside +-45 degrees
    workdir = tmp_path_factory.mktemp("pipeline")
    text = edited(SWEEP_THETA[:SWEEP_THETA.index("[sweep]")], arm_a=repr(theta_a),
                  arm_b=repr(theta_b), visibility=visibility,
                  pbs_a_deg=0, pbs_b_deg=0, hwp_deg=0)
    for kind in ("psi_plus", "psi_minus"):
        config = workdir / f"{kind}.ini"
        config.write_text(edited(text, kind=kind))
        run(["simulate", "--config", str(config), "--exact",
             "--out", str(workdir / f"{kind}.csv")])
        run(["observables", "--table", str(workdir / f"{kind}.csv"),
             "--out", str(workdir / f"obs_{kind}.csv")])
    printed = run(["extract", "--plus", str(workdir / "obs_psi_plus.csv"),
                   "--minus", str(workdir / "obs_psi_minus.csv"),
                   "--out", str(workdir / "thetas.csv")])
    read_a, read_b = map(float, printed.split(", "))
    assert abs(read_a - theta_a) <= TOLERANCE and abs(read_b - theta_b) <= TOLERANCE
