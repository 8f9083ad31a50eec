"""The paper's physics as relations between exact runs through `cli.main`.

The cancellation branch (psi_minus) reads theta_a - theta_b and the
addition branch (psi_plus) theta_a + theta_b, whatever the source noise,
the analyzer offsets or the seed. Each property edits
`tests/golden/inputs/sweep_theta.ini` (the cancellation property
`sweep_molarity.ini`), runs commands in exact mode (so a relation holds
to round-off, not to a statistical bound) and compares the printed
angles within 1e-6 deg, each modulo its period, or the molarity sweep's
zero crossing within 1e-9 M.

The model symmetries the README states edit `sim.ini` and compare the
exact tables of `simulate --exact`, whose cells print every digit of a
double, within TABLE_TOLERANCE of the pairs per setting: the detection
fields act only through their product, a Bell source sees the offsets
only through one sum, and uniform accidentals are Werner noise.
"""

import contextlib
import io
import re
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from polarot.cli import main
from polarot.sweeps import fit_line, zero_crossing

INPUTS = Path(__file__).parent / "golden" / "inputs"
SWEEP_THETA = (INPUTS / "sweep_theta.ini").read_text()
SWEEP_MOLARITY = (INPUTS / "sweep_molarity.ini").read_text()
SIM = (INPUTS / "sim.ini").read_text()
# sim.ini's pairs per setting, pair_flux * duration * both transmissions
SIM_PAIRS = 100000.0 * 1.0 * 0.8 * 0.7
# the four angle columns of a theta sweep, each defined modulo its period
ANGLES = {"theta_plus_deg": 180.0, "theta_minus_deg": 180.0,
          "theta_a_hat_deg": 90.0, "theta_b_hat_deg": 90.0}
# two printed values agree to one step of the sixth decimal, plus the
# round-off of the subtraction that compares them
TOLERANCE = 1e-6 + 1e-9
# two exact tables agree to round-off of their largest cell, measured
# against the pairs per setting: the three relations below read at most
# 2.6e-16 over 300 examples of each
TABLE_TOLERANCE = 1e-14
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


def exact_table(tmp_path_factory, text) -> np.ndarray:
    """The cells of `simulate --exact` on the config `text`, one row of
    (n_pp, n_pm, n_mp, n_mm) per setting pair."""
    workdir = tmp_path_factory.mktemp("table")
    (workdir / "sim.ini").write_text(text)
    run(["simulate", "--config", str(workdir / "sim.ini"), "--exact",
         "--out", str(workdir / "exact.csv")])
    rows = [line for line in (workdir / "exact.csv").read_text().splitlines()
            if not line.startswith("#")][1:]
    return np.array([[float(v) for v in row.split(",")[2:]] for row in rows])


def assert_tables_agree(table, other, pairs=SIM_PAIRS):
    assert table.shape == other.shape == (5, 4)
    assert np.abs(table - other).max() <= TABLE_TOLERANCE * pairs, (table, other)


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
def test_simulate_extract_returns_the_configured_angles(
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
    printed = run(["extract", "--plus", str(workdir / "psi_plus.csv"),
                   "--minus", str(workdir / "psi_minus.csv")])
    read_a, read_b = map(float, printed.split(", "))
    assert abs(read_a - theta_a) <= TOLERANCE and abs(read_b - theta_b) <= TOLERANCE


@settings(max_examples=20, deadline=None)
@given(molarity=st.integers(1_000, 100_000), slope=st.integers(50, 2_000),
       step=st.integers(10, 10_000), first=st.integers(-4, 0),
       offsets=st.tuples(_OFFSET, _OFFSET, _OFFSET))
def test_cancellation_zero_crossing_is_the_arm_a_molarity(tmp_path_factory, molarity,
                                                          slope, step, first, offsets):
    # arm A a solution at molarity M0 on arm B's slope: the cancellation
    # branch reads slope (M0 - M), whose line crosses 0 at M0. M0 and the
    # five sweep points M0 + k step carry 4 decimals and the slope 2, so each
    # printed theta_deg is exact; the points keep M >= 0 and |slope (M - M0)|
    # <= 80 deg, inside the +-90 deg a branch rotation reads. A step of at
    # least 1e-3 M keeps the fit's own round-off near 1e-12 M (1e-4 M at
    # M0 = 10 reached 1.1e-10)
    step = min(step, molarity // 4)
    values = ", ".join(repr((molarity + k * step) / 1e4) for k in range(first, first + 5))
    text = edited(SWEEP_MOLARITY, slope_deg_per_molar=repr(slope / 100), **dict(zip(
        ("pbs_a_deg", "pbs_b_deg", "hwp_deg"), map(repr, offsets))))
    arm_a, sweep = "[arm_a]\nangle_deg = 20.08\n", "start = 0\nstop = 4\ncount = 5\n"
    assert arm_a in text and sweep in text
    text = text.replace(sweep, f"values = {values}\n").replace(arm_a, (
        f"[arm_a]\nmolarity = {molarity / 1e4!r}\nslope_deg_per_molar = {slope / 100!r}\n"))
    _, columns = exact_sweep(tmp_path_factory, text)
    x0, _ = zero_crossing(fit_line(columns["molarity"], columns["theta_deg"],
                                   columns["sigma_deg"]))
    assert abs(x0 - molarity / 1e4) <= 1e-9


_TRANSMISSION = st.floats(0.05, 1.0)


@settings(max_examples=20, deadline=None)
@given(duration=st.floats(0.01, 100.0), transmission_a=_TRANSMISSION,
       transmission_b=_TRANSMISSION)
def test_the_detection_fields_act_only_through_their_product(
        tmp_path_factory, duration, transmission_a, transmission_b):
    # the product rule: a pair flux that keeps pair_flux * duration *
    # transmission_a * transmission_b at sim.ini's value keeps its table
    flux = SIM_PAIRS / (duration * transmission_a * transmission_b)
    arms = "transmission = 0.8\n", "transmission = 0.7\n"
    assert all(SIM.count(arm) == 1 for arm in arms)
    text = SIM.replace(arms[0], f"transmission = {transmission_a!r}\n").replace(
        arms[1], f"transmission = {transmission_b!r}\n")
    text = edited(text, duration=repr(duration), pair_flux=repr(flux))
    assert_tables_agree(exact_table(tmp_path_factory, SIM),
                        exact_table(tmp_path_factory, text))


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["psi_plus", "psi_minus"]), shift=_OFFSET, free=_OFFSET)
def test_a_bell_source_sees_the_offsets_through_one_sum(tmp_path_factory, kind, shift,
                                                        free):
    # the offset rule: psi_plus reads pbs_a + pbs_b (and no hwp), psi_minus
    # pbs_a + hwp - pbs_b, so a shift that keeps the sum keeps the table,
    # whose analyzer-frame cells carry the offsets as they are
    base = edited(SIM, kind=kind)
    pbs_a, pbs_b, hwp = -4.75, 4.09, 5.47
    if kind == "psi_plus":
        moved = (pbs_a + shift, pbs_b - shift, hwp + free)
    else:
        moved = (pbs_a + shift, pbs_b + free, hwp + free - shift)
    text = edited(base, **dict(zip(("pbs_a_deg", "pbs_b_deg", "hwp_deg"),
                                   map(repr, moved))))
    assert_tables_agree(exact_table(tmp_path_factory, base),
                        exact_table(tmp_path_factory, text))


def test_the_readme_offset_shift_leaves_the_exact_sweep_rows_byte_identical(
        tmp_path_factory):
    # (+7, -7, -14) deg keeps pbs_a + pbs_b and pbs_a + hwp - pbs_b, so both
    # branches, their analyzer-frame correlations included, keep every bit
    base, _ = exact_sweep(tmp_path_factory, SWEEP_THETA)
    other, _ = exact_sweep(tmp_path_factory, edited(
        SWEEP_THETA, pbs_a_deg="2.25", pbs_b_deg="-2.91", hwp_deg="-8.53"))
    rows = [[line for line in data.splitlines() if not line.startswith("#")]
            for data in (base, other)]
    assert rows[0] == rows[1] and len(rows[0]) == 6


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["psi_plus", "psi_minus", "phi_plus", "phi_minus",
                             "separable"]),
       visibility=st.floats(0.0, 1.0), fraction=st.floats(0.0, 0.99))
def test_uniform_accidentals_are_werner_noise(tmp_path_factory, kind, visibility,
                                              fraction):
    # the former accidental rule: the table at visibility V (1 - f) is the
    # table at V with a fraction f of the pairs per setting N moved into
    # uniform accidentals, (1 - f) table(V) + f N / 4, for every source kind
    base = edited(SIM, kind=kind)
    table = exact_table(tmp_path_factory, edited(base, visibility=repr(visibility)))
    folded = exact_table(tmp_path_factory, edited(
        base, visibility=repr(visibility * (1.0 - fraction))))
    assert_tables_agree(folded, (1.0 - fraction) * table + fraction * SIM_PAIRS / 4.0)
