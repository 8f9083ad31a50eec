import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import jones
from polarot import channels, config, measure, states, sweeps
from test_acceptance import rotate_locally

BASE_MOLARITY_CONFIG = """
[state]
kind = {kind}

[arm_a]
angle_deg = 20.08
transmission = 1.0

[arm_b]
molarity = 0
slope_deg_per_molar = 7.01
transmission = 1.0

[offsets]
pbs_a_deg = -4.75
pbs_b_deg = 4.09
hwp_deg = 5.47

[statistics]
pair_flux = 100000
duration = 1.0
seed = {seed}

[sweep]
variable = molarity_b
values = 0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0
"""

THETA_CONFIG = """
[state]
kind = psi_minus

[arm_a]
angle_deg = 20.0
transmission = 1.0

[arm_b]
angle_deg = 0.0
transmission = 1.0

[offsets]
{offsets}

[statistics]
pair_flux = 100000
duration = 1.0
seed = {seed}

[sweep]
variable = theta_b
start = -40
stop = 40
count = 17
"""


# ---------------------------------------------------------------- fit_line

def test_fit_line_exact_calibration_line():
    xs = [0.0, 1.0, 2.0, 3.0, 4.0]
    fit = sweeps.fit_line(xs, [7.01 * x + 4.09 for x in xs], [0.04] * 5)
    assert abs(fit["slope"] - 7.01) < 1e-12
    assert abs(fit["intercept"] - 4.09) < 1e-12


def test_fit_line_constant_y():
    fit = sweeps.fit_line([0.0, 1.0, 2.0], [2.0, 2.0, 2.0], [0.1, 0.1, 0.1])
    assert fit["slope"] == 0.0
    with pytest.raises(ValueError, match="zero slope"):
        sweeps.zero_crossing(fit)


def test_fit_line_validation():
    with pytest.raises(ValueError, match="at least 3"):
        sweeps.fit_line([0.0, 1.0], [1.0, 2.0], [0.1, 0.1])
    with pytest.raises(ValueError, match="degenerate"):
        sweeps.fit_line([1.0, 1.0, 1.0], [0.0, 1.0, 2.0], [0.1, 0.1, 0.1])
    with pytest.raises(ValueError, match="positive"):
        sweeps.fit_line([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [0.0, 0.1, 0.1])


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e-150, 1e150])
def test_fit_line_scales_with_tiny_and_huge_sigmas(scale):
    # the weights 1 / sigma^2 overflowed: sigma = 1e-150 returned nan after
    # overflow warnings (an error here), and 1e-160 and 1e-300 did too
    xs = np.arange(5.0)
    unit = sweeps.fit_line(xs, 2.0 * xs + 1.0, 1.0)
    fit = sweeps.fit_line(xs, 2.0 * xs + 1.0, scale)
    # round-off of the weighted sums, as at sigma = 1e-10 (intercept 1 + 2.2e-15)
    assert abs(fit["slope"] - 2.0) <= 1e-14 and abs(fit["intercept"] - 1.0) <= 1e-14
    # measured: 2.3e-16 relative at most, one rounding of scale * sigma
    assert abs(fit["slope_sigma"] / (scale * unit["slope_sigma"]) - 1.0) <= 4.5e-16


@pytest.mark.parametrize("power", [-1000, -500, 500])
def test_fit_line_under_a_power_of_two_keeps_every_bit(power):
    # sigmas times 2**power: the same slope and intercept, and slope_sigma
    # and cov times 2**power and 2**(2 power), bit for bit where they are
    # normal floats
    xs = np.linspace(0.0, 4.236, 9)
    ys = 7.01 * xs + 4.09 + np.random.default_rng(7).normal(0.0, 0.04, xs.size)
    sigma = np.random.default_rng(8).uniform(0.02, 0.06, xs.size)
    fit, scaled = (sweeps.fit_line(xs, ys, np.ldexp(sigma, p)) for p in (0, power))
    assert (scaled["slope"], scaled["intercept"]) == (fit["slope"], fit["intercept"])
    assert scaled["slope_sigma"] == math.ldexp(fit["slope_sigma"], power)
    if power > -500:
        assert np.array_equal(scaled["cov"], np.ldexp(fit["cov"], 2 * power))


def test_fit_line_rejects_a_covariance_past_the_float_range():
    # it raised "degenerate abscissa" on distinct x, as the weights underflowed
    xs = np.arange(5.0)
    with pytest.raises(ValueError, match=r"^the line fit's covariance is past the float "
                                         r"range: sigmas up to 1e\+155 square beyond it$"):
        sweeps.fit_line(xs, 2.0 * xs + 1.0, 1e155)
    assert sweeps.fit_line(xs, 2.0 * xs + 1.0, 1e154)["cov"][1, 1] < math.inf


def test_fit_line_noisy_calibration_recovery():
    # synthetic calibration with the 0.04 deg point scatter
    xs = np.linspace(0.0, 4.236, 9)
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        ys = 7.01 * xs + 4.09 + rng.normal(0.0, 0.04, xs.size)
        fit = sweeps.fit_line(xs, ys, np.full(xs.size, 0.04))
        assert abs(fit["slope"] - 7.01) <= 4.0 * fit["slope_sigma"]
        assert fit["slope_sigma"] < 0.02


def test_zero_crossing_exact():
    xs = np.linspace(0.0, 4.0, 9)
    ys = 20.08 - 7.01 * xs
    x0, sigma = sweeps.zero_crossing(sweeps.fit_line(xs, ys, np.full(xs.size, 0.04)))
    assert abs(x0 - 20.08 / 7.01) < 1e-12
    assert sigma > 0.0


def test_zero_crossing_coverage():
    xs = np.linspace(0.0, 4.0, 9)
    truth = 20.08 / 7.01
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        ys = 20.08 - 7.01 * xs + rng.normal(0.0, 0.1, xs.size)
        x0, sigma = sweeps.zero_crossing(sweeps.fit_line(xs, ys, np.full(xs.size, 0.1)))
        assert abs(x0 - truth) <= 4.0 * sigma


# ------------------------------------------------------------------ sweeps

def molarity_config(kind="psi_minus", seed=77):
    return config.loads_config(BASE_MOLARITY_CONFIG.format(kind=kind, seed=seed))


ZERO_OFFSETS = "pbs_a_deg = 0\npbs_b_deg = 0\nhwp_deg = 0"
SHIPPED_OFFSETS = "pbs_a_deg = -4.75\npbs_b_deg = 4.09\nhwp_deg = 5.47"


def theta_config(seed=78, offsets=ZERO_OFFSETS):
    cfg = config.loads_config(THETA_CONFIG.format(seed=seed, offsets=offsets))
    return cfg


def rotation_observables(counts):
    """(m_zz, m_xz, sigma_zz, sigma_xz) from (..., S, 4) counts whose first
    two settings are (Z,Z) and (X,Z), as the sweeps read them."""
    m, sigma = measure.estimate_correlation(counts)
    return m[..., 0], m[..., 1], sigma[..., 0], sigma[..., 1]


def branch_rotation(kind, m_zz, m_xz, sigma_zz=0.0, sigma_xz=0.0):
    """The rotation and its sigma at each point of one branch of kind `kind`,
    from the readout the sweeps run on their stack of branches."""
    (theta,), (sigma,) = measure._branch_rotations((kind,), m_zz[None], m_xz[None],
                                                   sigma_zz, sigma_xz)
    return theta, sigma


def test_configured_state_folds_offsets():
    cfg = molarity_config()
    rho = sweeps.configured_state(cfg, (cfg.state_kind,), 0.1)[0]
    manual = rotate_locally(
        states.bell_state("psi_minus"),
        jones.rotation_unitary(math.radians(20.08) + cfg.pbs_a + cfg.hwp),
        jones.rotation_unitary(0.1 + cfg.pbs_b))
    assert np.abs(rho - manual).max() < 1e-12


def test_configured_offsets_read_back_as_the_configured_rotation():
    # a state made with non-default offsets, sampled or exact, reads back
    # theta_a + theta_b (psi_plus) or theta_a - theta_b (psi_minus) once
    # _remove_offsets takes its branch's offsets off the extracted angle
    cfg = theta_config(offsets="pbs_a_deg = 3.1\npbs_b_deg = -7.3\nhwp_deg = 11.9")
    theta_a, theta_b = cfg.arm_a.theta(), np.radians(sorted(cfg.sweep_values))
    for kind, sign in (("psi_plus", 1.0), ("psi_minus", -1.0)):
        rho = sweeps.configured_state(cfg, (kind,), theta_b)[0]
        exact = np.moveaxis(measure.exact_observables(rho)[..., :2], -1, 0)
        sampled = rotation_observables(np.random.default_rng(5).poisson(
            measure._mean_counts(rho, measure._NAMED_PROJECTORS[:2], cfg.detection)))
        for obs, bound in ((exact, 1e-12), (sampled, None)):
            theta, sigma = branch_rotation(kind, *obs)
            resid = sweeps._remove_offsets(cfg, kind, theta) - (theta_a + sign * theta_b)
            assert (np.abs(resid) <= (5.0 * sigma if bound is None else bound)).all()
    # the offsets of each branch's rotation: the wave plate in psi_minus only
    for kind, offset_deg in (("psi_plus", 3.1 - 7.3), ("psi_minus", 3.1 + 7.3 + 11.9)):
        assert abs(sweeps._remove_offsets(cfg, kind, 0.0) + math.radians(offset_deg)) < 1e-15


def test_a_library_scan_is_held_to_check_reads():
    # it returned -1.39e-17 silently, though the kind it does not read moves the hash
    with pytest.raises(ValueError, match=r"^scan does not read \[state\] kind: it always "
                                         r"probes psi_minus$"):
        sweeps.run_scan(config.ExperimentConfig(state_kind="psi_plus"), exact=True)


def test_molarity_sweep_exact_line():
    result = sweeps.run_sweep(molarity_config("psi_minus"), exact=True)
    molarities = result.rows[:, 0]
    thetas = result.rows[:, 1]
    expected = 20.08 - 7.01 * molarities
    assert np.abs(thetas - expected).max() < 1e-9
    # sign phenomenology: positive below the matching molarity, negative above
    crossing = 20.08 / 7.01
    assert ((thetas > 0) == (molarities < crossing)).all()


def test_molarity_sweep_exact_zero_crossing():
    result = sweeps.run_sweep(molarity_config("psi_minus"), exact=True)
    x0, _ = sweeps.zero_crossing(sweeps.fit_line(result.rows[:, 0], result.rows[:, 1],
                                                 np.full(len(result.rows), 0.04)))
    assert abs(x0 - 20.08 / 7.01) < 1e-9


def test_molarity_sweep_sampled_zero_crossing():
    result = sweeps.run_sweep(molarity_config("psi_minus"), exact=False)
    sigma = np.maximum(result.rows[:, 2], 1e-6)
    x0, x0_sigma = sweeps.zero_crossing(sweeps.fit_line(result.rows[:, 0],
                                                        result.rows[:, 1], sigma))
    assert abs(x0 - 20.08 / 7.01) <= 4.0 * x0_sigma
    assert x0_sigma < 0.05


def test_molarity_sweep_plus_branch_addition():
    result = sweeps.run_sweep(molarity_config("psi_plus"), exact=True)
    molarities = result.rows[:, 0]
    thetas = result.rows[:, 1]
    assert np.abs(thetas - (20.08 + 7.01 * molarities)).max() < 1e-9
    assert (np.diff(thetas) > 0).all()
    assert (thetas[molarities > 0] > 20.08).all()


def test_molarity_sweep_zero_everything_is_zero():
    text = BASE_MOLARITY_CONFIG.format(kind="psi_minus", seed=5).replace(
        "angle_deg = 20.08", "angle_deg = 0.0").replace(
        "pbs_a_deg = -4.75", "pbs_a_deg = 0").replace(
        "pbs_b_deg = 4.09", "pbs_b_deg = 0").replace(
        "hwp_deg = 5.47", "hwp_deg = 0")
    cfg = config.loads_config(text)
    result = sweeps.run_sweep(cfg, exact=False)
    row = result.rows[0]  # molarity 0: no rotation anywhere
    assert abs(row[1]) <= 3.0 * max(row[2], 1e-4)


def test_run_sweep_applies_the_declared_reads():
    # the library door holds a sweep to config.ACCEPTS as the command does;
    # _molarity_sweep kept a guard of its own ("molarity sweeps need a
    # solution-type arm_b") and ran a theta sweep whatever [state] kind said
    angle_arm = dataclasses.replace(molarity_config(), arm_b=config.ArmConfig(angle=0.0))
    with pytest.raises(ValueError, match=r"^molarity_b sweep needs \[arm_b\] molarity"):
        sweeps.run_sweep(angle_arm)
    plus = dataclasses.replace(theta_config(), state_kind="psi_plus")
    with pytest.raises(ValueError, match=r"^theta_b sweep does not read \[state\] kind"):
        sweeps.run_sweep(plus)


def test_molarity_sweep_validation():
    bad = config.loads_config(
        BASE_MOLARITY_CONFIG.format(kind="separable", seed=1))
    with pytest.raises(ValueError, match="psi_plus or"):
        sweeps.run_sweep(bad)


def fit_phase(theta_b_deg, values):
    # least-squares phase of A cos(2 theta_b + phi)
    arg = 2.0 * np.radians(theta_b_deg)
    basis = np.column_stack([np.cos(arg), np.sin(arg)])
    c1, c2 = np.linalg.lstsq(basis, values, rcond=None)[0]
    return math.atan2(-c2, c1)


def test_theta_sweep_exact_closed_forms():
    result = sweeps.run_sweep(theta_config(), exact=True)
    tb = result.rows[:, 0]
    m_zz_plus = result.rows[:, 1]
    expected = -np.cos(np.radians(2.0 * tb + 40.0))
    assert np.abs(m_zz_plus - expected).max() < 1e-12
    # effective rotations are the sum and difference of the local angles
    assert np.abs(result.rows[:, 9] - (20.0 + tb)).max() < 1e-9
    assert np.abs(result.rows[:, 11] - (20.0 - tb)).max() < 1e-9


def test_theta_sweep_phase_separation():
    result = sweeps.run_sweep(theta_config(), exact=True)
    tb = result.rows[:, 0]
    phi_plus = fit_phase(tb, result.rows[:, 1])
    phi_minus = fit_phase(tb, result.rows[:, 3])
    separation = math.degrees(math.remainder(phi_plus - phi_minus,
                                             2.0 * math.pi)) / 2.0
    assert abs(separation - 2.0 * 20.0) < 1e-9


def test_theta_sweep_extracted_angles_exact():
    for offsets in (ZERO_OFFSETS, SHIPPED_OFFSETS):
        cfg = theta_config(offsets=offsets)
        # the raw arm-B angle carries pbs_b - hwp/2 = +1.355 deg with the
        # shipped offsets; the readout must still wrap at +-45 deg
        cfg = dataclasses.replace(cfg,
                                  sweep_values=cfg.sweep_values + (43.7, 44.0, -46.3))
        result = sweeps.run_sweep(cfg, exact=True)
        tb = result.rows[:, 0]
        assert np.abs(result.rows[:, 13] - 20.0).max() < 1e-9
        assert np.abs(result.rows[:, 14] - ((tb + 45.0) % 90.0 - 45.0)).max() < 1e-9


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "sampled"])
def test_theta_sweep_hats_are_the_local_angles_of_its_branch_columns(exact):
    # one readout of the local angles: the hat columns are the wrapped
    # half-sum and half-difference of the sweep's own offset-corrected
    # branch rotations, bit for bit, also past the +-45 deg window
    cfg = theta_config(offsets=SHIPPED_OFFSETS)
    cfg = dataclasses.replace(cfg, sweep_values=cfg.sweep_values + (43.7, 44.0, -46.3))
    result = sweeps.run_sweep(cfg, exact=exact)
    plus, minus, hat_a, hat_b = (result.rows[:, result.columns.index(name)] for name in (
        "theta_plus_deg", "theta_minus_deg", "theta_a_hat_deg", "theta_b_hat_deg"))
    theta_a, theta_b = measure._local_angles(plus, minus, 90.0)
    assert theta_a.tobytes() == hat_a.tobytes()
    assert theta_b.tobytes() == hat_b.tobytes()


def test_theta_sweep_cancellation_of_addition_branch():
    result = sweeps.run_sweep(theta_config(), exact=False)
    row = result.rows[np.argmin(np.abs(result.rows[:, 0] + 20.0))]
    assert abs(row[0] + 20.0) < 1e-12          # theta_b = -20 is on the grid
    assert abs(row[9]) <= 3.0 * max(row[10], 1e-4)


def test_theta_sweep_sampled_tracks_truth():
    result = sweeps.run_sweep(theta_config(), exact=False)
    tb = result.rows[:, 0]
    for col_theta, col_sigma, truth in ((9, 10, 20.0 + tb), (11, 12, 20.0 - tb)):
        resid = result.rows[:, col_theta] - truth
        sigma = np.maximum(result.rows[:, col_sigma], 1e-4)
        assert (np.abs(resid) <= 5.0 * sigma).all()


def one_branch(cfg, kind, theta_b, exact):
    # the sweep kernel run for one kind, whose counts draw from its own stream
    return rotation_observables(sweeps._rotation_counts(cfg, (kind,), theta_b, exact)[0])


def branch_stream(cfg, kind):
    # the stream (cfg.seed, BELL_KINDS index) a branch of kind `kind` draws from
    key = {"psi_plus": 0, "psi_minus": 1}[kind]
    return np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(key,)))


def test_sampled_sweeps_draw_one_stream_per_branch():
    # every sweep samples a psi_plus branch from the stream (seed, 0) and a
    # psi_minus one from (seed, 1); all points of a branch share its stream.
    # The theta sweep runs both branches as one stacked pass, and each
    # branch's columns equal a one-branch run of the kernel bit for bit,
    # sampled or exact, with or without Werner noise and offsets
    kinds = ("psi_plus", "psi_minus")
    for exact, visibility, offsets in itertools.product(
            (False, True), (1.0, 0.9), (SHIPPED_OFFSETS, ZERO_OFFSETS)):
        cfg = dataclasses.replace(theta_config(offsets=offsets), visibility=visibility)
        result = sweeps.run_sweep(cfg, exact=exact)
        theta_b = np.radians(sorted(cfg.sweep_values))
        plus, minus = (one_branch(cfg, kind, theta_b, exact) for kind in kinds)
        expected = plus[:2] + minus[:2] + plus[2:] + minus[2:]
        (th_p, sig_p), (th_m, sig_m) = (
            branch_rotation(kind, *o) for kind, o in zip(kinds, (plus, minus)))
        expected += tuple(np.degrees((th_p - cfg.pbs_a - cfg.pbs_b, sig_p,
                                      th_m - cfg.pbs_a + cfg.pbs_b - cfg.hwp, sig_m)))
        assert result.rows[:, 1:13].tobytes() == np.column_stack(expected).tobytes()
        if not exact:
            # each branch's counts, of the (Z,Z) and (X,Z) pairs alone, are the
            # Poisson draws of its exact means, from default_rng of its keyed stream
            means = sweeps._rotation_counts(cfg, kinds, theta_b, True)
            counts = sweeps._rotation_counts(cfg, kinds, theta_b, False)
            assert counts.shape == means.shape == (2, theta_b.size, 2, 4)
            for branch, kind in enumerate(kinds):
                assert np.array_equal(counts[branch],
                                      branch_stream(cfg, kind).poisson(means[branch]))
            # the minus branch has a stream of its own: on the plus branch's
            # stream it would draw other counts
            on_plus_stream = branch_stream(cfg, "psi_plus").poisson(means[1])
            assert (counts[1] != on_plus_stream).mean() > 0.9
    # a molarity sweep draws the stream of its kind: a psi_minus one the
    # theta sweep's psi_minus stream, a psi_plus one its psi_plus stream
    for kind in kinds:
        cfg = molarity_config(kind)
        result = sweeps.run_sweep(cfg)
        theta_b = np.radians(7.01 * result.rows[:, 0])
        means = sweeps._rotation_counts(cfg, (kind,), theta_b, True)[0]
        obs = rotation_observables(branch_stream(cfg, kind).poisson(means))
        assert np.array_equal(result.rows[:, 3:], np.column_stack(obs))


def test_configured_state_stacks_kinds_as_the_complex_product():
    # each member of the stack of kinds equals its single-kind call bit for
    # bit, and the oracle u @ rho @ u^T of the Jones matrices to round-off,
    # the complex R/L product source included
    cfg = dataclasses.replace(theta_config(offsets=SHIPPED_OFFSETS), state_kind="separable",
                              ket_a="R", ket_b="L", visibility=0.8)
    theta_b = np.radians(sorted(cfg.sweep_values))
    kinds = ("separable", "psi_plus", "psi_minus")
    stack = sweeps.configured_state(cfg, kinds, theta_b)
    assert stack.shape == (3, theta_b.size, 4, 4)
    for member, kind in zip(stack, kinds):
        source = (states.separable_state(states.ket("R"), states.ket("L"))
                  if kind == "separable" else states.bell_state(kind))
        rho = channels.apply_noise(source, 0.8)
        theta_a = cfg.arm_a.theta() + cfg.pbs_a
        if kind == "psi_minus":
            theta_a += cfg.hwp
        u = jones.local_rotations(theta_a, theta_b + cfg.pbs_b)
        assert np.abs(member - u @ rho @ u.swapaxes(-2, -1)).max() < 1e-15
        single = sweeps.configured_state(cfg, (kind,), theta_b)[0]
        assert single.tobytes() == member.tobytes()
    # one kind and one angle give a stack of one state
    assert sweeps.configured_state(cfg, ("separable",), 0.1).shape == (1, 4, 4)


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


@pytest.mark.parametrize("visibility", [0.9, 0.81])
def test_theta_sweep_sigma_pulls(visibility):
    # Pulls (estimate - truth) / sigma of theta_plus_deg and theta_minus_deg
    # over many seeds of the sampled sweep_theta golden input. With correct
    # sigmas they are N(0, 1), independent across points, branches and
    # seeds; over n pulls the mean has sd 1/sqrt(n) and the sample variance
    # sd sqrt(2/(n - 1)). Both bounds are 4 of those sds. Visibility 0.9 is
    # the golden's, and 0.81 is 0.9 with the accidental fraction 0.1 of an
    # earlier detection model
    cfg = dataclasses.replace(config.load_config(GOLDEN_INPUTS / "sweep_theta.ini"),
                              visibility=visibility)
    theta_a = math.degrees(cfg.arm_a.theta())
    theta_b = np.array(sorted(cfg.sweep_values))
    pulls = {"theta_plus_deg": [], "theta_minus_deg": []}
    for seed in range(200):
        result = sweeps.run_sweep(dataclasses.replace(cfg, seed=seed))
        for name, truth in (("theta_plus_deg", theta_a + theta_b),
                            ("theta_minus_deg", theta_a - theta_b)):
            col = result.columns.index(name)
            err = (result.rows[:, col] - truth + 90.0) % 180.0 - 90.0
            pulls[name].append(err / result.rows[:, col + 1])
    for name, values in pulls.items():
        values = np.concatenate(values)
        n = values.size
        assert abs(values.mean()) < 4.0 / math.sqrt(n), name
        assert abs(values.var(ddof=1) - 1.0) < 4.0 * math.sqrt(2.0 / (n - 1)), name


def test_sweep_rows_sorted():
    # the provenance lines are the command's: test_cli checks them
    result = sweeps.run_sweep(molarity_config(), exact=True)
    assert (np.diff(result.rows[:, 0]) > 0).all()


def test_config_hash_changes_iff_fields_change():
    cfg_1 = molarity_config(seed=77)
    cfg_2 = molarity_config(seed=77)
    assert config.config_hash(cfg_1) == config.config_hash(cfg_2)
    assert config.config_hash(cfg_1) != config.config_hash(molarity_config(seed=78))
    assert config.config_hash(cfg_1) != config.config_hash(
        molarity_config(kind="psi_plus", seed=77))


def loaded_arm_b(molarity, slope_line="slope_deg_per_molar = 7.01"):
    text = BASE_MOLARITY_CONFIG.format(kind="psi_minus", seed=1).replace(
        "molarity = 0\nslope_deg_per_molar = 7.01",
        f"molarity = {molarity!r}\n{slope_line}")
    return config.loads_config(text).arm_b


def test_arm_solution_rotation_examples():
    assert config.ArmConfig(molarity=0.0, slope_deg_per_molar=7.01).theta() == 0.0
    # oracle: plain product slope * molarity
    arm = config.ArmConfig(molarity=2.877, slope_deg_per_molar=7.01)
    assert abs(math.degrees(arm.theta()) - 7.01 * 2.877) < 1e-12
    assert abs(math.degrees(arm.theta()) - 20.17) < 0.005
    arm = config.ArmConfig(molarity=4.236, slope_deg_per_molar=7.01)
    assert abs(math.degrees(arm.theta()) - 29.69) < 0.005


def test_arm_rejects_negative_molarity():
    with pytest.raises(ValueError, match="molarity must be nonnegative"):
        config.ArmConfig(molarity=-0.1, slope_deg_per_molar=7.01)


@pytest.mark.parametrize("kwargs, message", [
    ({}, "exactly one of a fixed angle or a solution"),
    ({"angle": 0.1, "molarity": 1.0}, "exactly one of a fixed angle or a solution"),
    ({"molarity": 1e200, "slope_deg_per_molar": 1e200}, "rotation is not finite: inf"),
    ({"molarity": 1.0, "slope_deg_per_molar": math.nan}, "rotation is not finite: nan"),
    ({"molarity": math.inf, "slope_deg_per_molar": -1.0}, "rotation is not finite: -inf"),
    # accepted, it hashed like the default angle arm, though it is another value
    ({"angle": 0.0, "slope_deg_per_molar": 5.0}, "angle arm must not set slope"),
])
def test_arm_config_rejections(kwargs, message):
    with pytest.raises(ValueError, match=message):
        config.ArmConfig(**kwargs)


@pytest.mark.parametrize("molarity", [0.0, 0.5, 2.877, 4.236, 1e-300])
def test_ini_solution_arm_matches_the_arm_built_in_code(molarity):
    arm = config.ArmConfig(molarity=molarity, slope_deg_per_molar=7.01)
    assert loaded_arm_b(molarity) == arm
    assert loaded_arm_b(molarity).theta() == arm.theta() == math.radians(7.01 * molarity)
    # without a slope key both take the shipped calibration
    assert loaded_arm_b(molarity, "").theta() == config.ArmConfig(molarity=molarity).theta()
    assert config.ArmConfig(molarity=molarity).slope_deg_per_molar == \
        config.DEFAULT_SLOPE_DEG_PER_MOLAR


def test_write_sweep_deterministic(tmp_path):
    cfg = molarity_config()
    path_1 = tmp_path / "a.csv"
    path_2 = tmp_path / "b.csv"
    sweeps.write_sweep(sweeps.run_sweep(cfg), path_1, {"seed": cfg.seed})
    sweeps.write_sweep(sweeps.run_sweep(cfg), path_2, {"seed": cfg.seed})
    assert path_1.read_bytes() == path_2.read_bytes()



def test_write_sweep_prints_no_negative_zero(tmp_path):
    # -1.8e-15 is theta_b_hat_deg of the exact theta sweep's first row under
    # OpenBLAS's Prescott core, where it was written -0.000000
    result = sweeps.SweepResult(("theta_b_deg", "theta_b_hat_deg"),
                                np.array([[0.0, -1.7763568394002505e-15],
                                          [-0.0, -1e-7]]))
    sweeps.write_sweep(result, tmp_path / "sweep.csv", {})
    assert (tmp_path / "sweep.csv").read_text().splitlines()[-2:] == [
        "0.000000,0.000000", "0.000000,0.000000"]
