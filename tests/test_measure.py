import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jones
from blas_core import pin_note
from polarot import channels, config, measure, states, sweeps
from test_acceptance import rotate_locally, werner


def evolved_bell(kind, theta_a, theta_b, visibility=1.0):
    rho = channels.apply_noise(states.bell_state(kind), visibility)
    return rotate_locally(rho, jones.rotation_unitary(theta_a),
                          jones.rotation_unitary(theta_b))


def oracle_kets(setting_id):
    # the (+1, -1) port kets of a setting id, from states.ket and the
    # Jones matrices of the oracle module alone
    kind, *values = setting_id.split(":")
    if not values:
        return [states.ket(label) for label in {"Z": "HV", "X": "DA", "Y": "LR"}[kind]]
    angles = [math.radians(float(v)) for v in values]
    if kind == "lin":
        u = jones.rotation_unitary(angles[0])
        return [u @ states.ket("H"), u @ states.ket("V")]
    w = jones.qwp_matrix(angles[1]) @ jones.hwp_matrix(angles[0])
    return [w.conj().T @ states.ket("H"), w.conj().T @ states.ket("V")]


def born_probabilities(rho, a, b):
    # independent oracle: explicit projector expectation values
    pa, pb = ([states.ket_to_dm(k) for k in oracle_kets(s)] for s in (a, b))
    return np.array([np.trace(rho @ np.kron(pa[i], pb[j])).real
                     for i in (0, 1) for j in (0, 1)])


# ---------------------------------------------------------------- analyzers

def test_named_bases_projector_kets():
    z_plus, z_minus = measure.parse_setting("Z")[1]
    assert np.allclose(z_plus, states.ket("H"))
    assert np.allclose(z_minus, states.ket("V"))
    x_plus, _ = measure.parse_setting("X")[1]
    assert abs(abs(np.vdot(x_plus, states.ket("D"))) - 1.0) < 1e-12
    y_plus, y_minus = measure.parse_setting("Y")[1]
    assert abs(abs(np.vdot(y_plus, states.ket("L"))) - 1.0) < 1e-12
    assert abs(abs(np.vdot(y_minus, states.ket("R"))) - 1.0) < 1e-12


def test_waveplate_analyzer_recipes():
    # HWP/QWP at (0, 0), (22.5deg, 0), (0, 45deg) measure Z, X, Y
    for setting_id, target in (("wp:0:0", states.ket("H")),
                               ("wp:22.5:0", states.ket("D")),
                               ("wp:0:45", states.ket("L"))):
        plus, _ = measure.parse_setting(setting_id)[1]
        assert abs(abs(np.vdot(plus, target)) - 1.0) < 1e-12


def test_analyzer_completeness():
    rng = np.random.default_rng(0)
    for _ in range(20):
        h, q = np.degrees(rng.uniform(-1.5, 1.5, 2))
        plus, minus = measure.parse_setting(f"wp:{h}:{q}")[1]
        p_plus, p_minus = states.ket_to_dm(plus), states.ket_to_dm(minus)
        assert np.abs(p_plus + p_minus - np.eye(2)).max() < 1e-12
        assert abs(np.vdot(plus, minus)) < 1e-12


def test_closed_form_ports_match_the_jones_oracle():
    # lin ports are the oracle's rotated H and V bit for bit; the wp +1 port
    # is its (QWP HWP)^dag |H> to within round-off (the -1 port, the
    # complement of the +1 port, differs from (QWP HWP)^dag |V> by a phase).
    # The kets are those of the canonical id, whose angles are reduced
    rng = np.random.default_rng(11)
    for v in rng.uniform(-400, 400, 2000).tolist():
        canonical, kets = measure.parse_setting(f"lin:{v!r}")
        assert kets.tobytes() == np.array(oracle_kets(canonical)).tobytes()
    for h, q in rng.uniform(-400, 400, (2000, 2)).tolist():
        canonical, kets = measure.parse_setting(f"wp:{h!r}:{q!r}")
        assert np.abs(kets[0] - oracle_kets(canonical)[0]).max() < 1.3e-16


def six_decimals(micro: int) -> str:
    """The decimal text of micro * 1e-6, exactly."""
    sign = "-" if micro < 0 else ""
    return f"{sign}{abs(micro) // 10**6}.{abs(micro) % 10**6:06d}"


_MICRO_DEGREES = st.integers(-400 * 10**6, 400 * 10**6)
_TURNS = st.integers(-1000, 1000)


@settings(max_examples=300, deadline=None)
@given(h=_MICRO_DEGREES, q=_MICRO_DEGREES, j=_TURNS, k=_TURNS)
def test_one_analyzer_has_one_id_and_one_pair_of_kets(h, q, j, k):
    # an analyzer is fixed by its angles modulo 180 degrees, and by its
    # half-wave plate angle modulo 90 (HWP(h + 90) = -HWP(h)): every such turn
    # of them parses to one id and bit-identical kets, and every id parses to
    # itself and the same kets
    quarter_turn, half_turn = 90 * 10**6, 180 * 10**6
    for first, second in (
            (f"lin:{six_decimals(h)}", f"lin:{six_decimals(h + half_turn * k)}"),
            (f"wp:{six_decimals(h)}:{six_decimals(q)}",
             f"wp:{six_decimals(h + quarter_turn * j)}:{six_decimals(q + half_turn * k)}")):
        canonical, kets = measure.parse_setting(first)
        other, other_kets = measure.parse_setting(second)
        assert (other, other_kets.tobytes()) == (canonical, kets.tobytes())
        again, again_kets = measure.parse_setting(canonical)
        assert (again, again_kets.tobytes()) == (canonical, kets.tobytes())
        kind, *angles = canonical.split(":")
        halves = (45.0, 90.0) if kind == "wp" else (90.0,)
        assert all(-half <= float(v) < half for v, half in zip(angles, halves))


def check_ports(setting_id, rng):
    # orthonormal ports that resolve the identity, and an exact table of a
    # random state whose rows each hold the mean pairs per setting
    plus, minus = measure.parse_setting(setting_id)[1]
    assert abs(np.vdot(plus, plus) - 1.0) < 1e-12
    assert abs(np.vdot(minus, minus) - 1.0) < 1e-12
    assert abs(np.vdot(plus, minus)) < 1e-12
    assert np.abs(states.ket_to_dm(plus) + states.ket_to_dm(minus)
                  - np.eye(2)).max() < 1e-12
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
    detection = measure.Detection(pair_flux=1e5, duration=1.0)
    table = measure.exact_table(rho, [(setting_id, setting_id), (setting_id, "Z")],
                                detection)
    assert np.abs(table.counts.sum(axis=1) - detection.mean_pairs()).max() < 1e-7


# finite angles in degrees, far beyond the range where an angle plus 90
# degrees still differs from the angle
_SETTING_ANGLE = st.floats(-1e300, 1e300)


@settings(max_examples=200, deadline=None)
@given(setting_id=st.builds("lin:{!r}".format, _SETTING_ANGLE)
       | st.builds("wp:{!r}:{!r}".format, _SETTING_ANGLE, _SETTING_ANGLE),
       seed=st.integers(0, 2**32 - 1))
def test_every_finite_angle_gives_complementary_ports(setting_id, seed):
    check_ports(setting_id, np.random.default_rng(seed))


@pytest.mark.parametrize("setting_id", ["lin:941171", "lin:1e6"])
def test_large_linear_angles_parse(setting_id):
    # the -1 port was the +1 port rotated by a further 90 degrees, which
    # rounds away from about 9.4e5 degrees on
    check_ports(setting_id, np.random.default_rng(7))


@pytest.mark.parametrize("setting_id", ["lin:inf", "wp:nan:0", "wp:0:inf"])
def test_non_finite_angles_raise_naming_the_id(setting_id):
    with pytest.raises(ValueError, match=f"analyzer setting '{setting_id}': "
                                         f"angles must be finite"):
        measure.parse_setting(setting_id)


def test_analyzer_id_round_trip():
    for setting_id in ("X", "lin:22.5", f"wp:{math.degrees(0.3)}:{math.degrees(-0.2)}"):
        canonical, kets = measure.parse_setting(setting_id)
        clone_id, clone_kets = measure.parse_setting(canonical)
        assert clone_id == canonical
        # ids carry angles at six decimals in degrees, so compare overlaps
        assert abs(abs(np.vdot(clone_kets[0], kets[0])) - 1.0) < 1e-12


@pytest.mark.parametrize("template, canonical", [
    ("lin:{}", "lin:0.000000"), ("wp:{}:10", "wp:0.000000:10.000000"),
    ("wp:10:{}", "wp:10.000000:0.000000")])
def test_analyzer_id_of_a_zero_angle_has_no_sign(template, canonical):
    # lin:-0.0000001 and lin:-0 read as lin:-0.000000, lin:0 as lin:0.000000,
    # so one analyzer had two ids
    ids = {measure.parse_setting(template.format(v))[0]
           for v in ("-0.0000001", "-0", "0", "0.0000001", "-0.0000004")}
    assert ids == {canonical}


def test_table_reads_a_zero_angle_as_one_arm_setting():
    # a table with rows at lin:-0.0000001 and lin:0 counted two arm-A settings
    rows = [(a, b) for a in ("lin:-0.0000001", "lin:0", "lin:45") for b in ("Z", "X")]
    table = measure.CoincidenceTable(rows, np.ones((6, 4)))
    assert table.settings[0] == table.settings[2] == ("lin:0.000000", "Z")
    s, _ = measure.chsh_from_counts(table)  # two settings per arm, not three
    assert s == 0.0


def pinned_family_pairs():
    # linear polarizers and wave plates at angles uniform over +-400 degrees
    # (written at full precision, so parsed ids round to six decimals), the
    # edge cases -0 and 90, and one of each named or short form
    rng = np.random.default_rng(20)
    ids = [f"lin:{v!r}" for v in rng.uniform(-400, 400, 40).tolist()]
    ids += [f"wp:{h!r}:{q!r}" for h, q in rng.uniform(-400, 400, (40, 2)).tolist()]
    ids += ["lin:-0", "lin:90", "Y", "lin:22.5", "wp:10:20", "X", "Z"]
    return list(zip(ids, ids[::-1]))


PROJECTOR_DIGEST = "196254edc635c8058f86984d35a41a547cfd47601b05aa933381d61d246bac36"


def projector_digest() -> str:
    """sha256 of every byte of the named triple's tensor and of a family's
    tensor, and of the canonical id of every setting."""
    digest = hashlib.sha256()
    for pairs in (measure.NAMED_PAIRS, pinned_family_pairs()):
        digest.update(measure.projector_tensor(pairs).tobytes())
        digest.update(" ".join(f"{measure.parse_setting(a)[0]}/"
                               f"{measure.parse_setting(b)[0]}"
                               for a, b in pairs).encode())
    return digest.hexdigest()


def test_projector_tensor_is_pinned_bit_for_bit():
    # the digest is of this platform's libm, and the same on any BLAS core
    # or numpy SIMD level (test_golden runs it under others)
    assert projector_digest() == PROJECTOR_DIGEST, pin_note()


def test_analyzer_bad_ids():
    with pytest.raises(ValueError):
        measure.parse_setting("W")
    with pytest.raises(ValueError):
        measure.parse_setting("circ:10")


# ----------------------------------------------------- outcome probabilities

def one_pair(rho, a, b):
    # the Born probabilities of the one setting pair (a, b), shape (..., 4)
    projectors = measure.projector_tensor([(a, b)])
    return measure.outcome_probabilities(rho, projectors)[..., 0, :]


def test_outcome_probabilities_singlet_anticorrelated():
    rho = states.bell_state("psi_minus")
    assert np.abs(one_pair(rho, "Z", "Z")
                  - [0.0, 0.5, 0.5, 0.0]).max() < 1e-12
    # anticorrelation holds in the X basis as well (oracle cross-check)
    p = one_pair(rho, "X", "X")
    assert np.abs(p - born_probabilities(rho, "X", "X")).max() < 1e-12
    assert np.abs(p - [0.0, 0.5, 0.5, 0.0]).max() < 1e-12


def test_outcome_probabilities_mixed_uniform():
    rho = states.maximally_mixed()
    a = f"lin:{math.degrees(0.3)}"
    b = f"wp:{math.degrees(0.1)}:{math.degrees(1.0)}"
    p = one_pair(rho, a, b)
    assert np.abs(p - 0.25).max() < 1e-12


def test_outcome_probabilities_sum_to_one():
    rng = np.random.default_rng(1)
    rho = evolved_bell("psi_plus", 0.4, -0.2, visibility=0.9)
    for _ in range(10):
        a = "wp:{}:{}".format(*np.degrees(rng.uniform(-1, 1, 2)))
        b = f"lin:{math.degrees(rng.uniform(-1, 1))}"
        p = one_pair(rho, a, b)
        assert (p >= 0).all()
        assert abs(p.sum() - 1.0) < 1e-12


# every setting family on each arm: named bases, linear polarizers, wave plates
FAMILY_IDS = ("Z", "X", "Y", "lin:22.5", "lin:-61.3", "wp:10:20", "wp:-33.3:71.9")
FAMILY_SETTINGS = [(a, b) for a in FAMILY_IDS for b in FAMILY_IDS]


def random_states(n, seed):
    # random pure states mixed with I/4, from the maximally mixed (p = 0)
    # through Werner-like mixtures to pure (p = 1)
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    p = np.linspace(0.0, 1.0, n)[:, None, None]
    return p * np.einsum("ni,nj->nij", psi, psi.conj()) + (1 - p) * np.eye(4) / 4


def test_born_kernel_matches_reference():
    rhos = random_states(12, seed=8)
    probs = measure.outcome_probabilities(rhos, measure.projector_tensor(FAMILY_SETTINGS))
    assert probs.shape == (12, len(FAMILY_SETTINGS), 4)
    for n, rho in enumerate(rhos):
        for k, (a, b) in enumerate(FAMILY_SETTINGS):
            reference = np.clip(born_probabilities(rho, a, b), 0.0, None)
            assert np.abs(probs[n, k] - reference).max() < 1e-14
            single = one_pair(rho, a, b)
            assert np.abs(single - reference).max() < 1e-14
            assert np.array_equal(single, probs[n, k])
    # a stack of one analyzer pair gives the same rows as the tensor
    a, b = FAMILY_SETTINGS[-1]
    assert np.array_equal(one_pair(rhos, a, b), probs[:, -1])


def test_born_kernel_validates_the_stack():
    rhos = random_states(5, seed=9)
    rhos[3] = np.diag([0.7, 0.5, 0.0, -0.2])
    with pytest.raises(ValueError, match=r"stack index \(3,\).*positive semidefinite"):
        measure.outcome_probabilities(rhos, measure.projector_tensor(FAMILY_SETTINGS))


STACK_DETECTION = measure.Detection(pair_flux=3e4, duration=1.5, transmission_a=0.8,
                                    transmission_b=0.7)


def stack_states():
    # six random states at visibility 0.97: the stack the accidental
    # fraction 0.03 of an earlier detection model gave
    return channels.apply_noise(random_states(6, seed=10), 0.97)


def test_sampled_table_is_one_stream_per_seed(tmp_path):
    # the draw the sweeps run on a stack of states, Poisson counts of the
    # exact means, and the table door on one state
    rhos = stack_states()
    settings = FAMILY_SETTINGS[::5]
    means = measure._mean_counts(rhos, measure.projector_tensor(settings), STACK_DETECTION)

    def draw(seed):
        return np.random.default_rng(seed).poisson(means)

    # the same int seed, or the same (seed, key) stream, gives the same counts
    assert np.array_equal(draw(101), draw(101))
    branch = [draw(np.random.SeedSequence(101, spawn_key=(k,))) for k in (0, 1, 0)]
    assert np.array_equal(branch[0], branch[2])
    # different branch keys, and a key against the bare seed, give different counts
    assert (branch[0] != branch[1]).mean() > 0.9
    assert (branch[0] != draw(101)).mean() > 0.9
    # the door records its int seed and draws the Poisson counts of that one
    # state's means from default_rng(seed)
    table = measure.simulate_counts(rhos[0], settings, STACK_DETECTION, seed=101)
    assert table.metadata == dict(dataclasses.asdict(STACK_DETECTION),
                                  rng_seed=101, exact=0)
    assert np.array_equal(table.counts, np.random.default_rng(101).poisson(means[0]))
    measure.write_table(table, tmp_path / "t.csv")
    loaded = measure.read_table(tmp_path / "t.csv")
    assert loaded.metadata["rng_seed"] == "101"
    assert np.array_equal(loaded.counts, table.counts)
    # a keyed seed is not the door's: its metadata records an int seed
    with pytest.raises(TypeError):
        measure.simulate_counts(rhos[0], settings, STACK_DETECTION,
                                seed=np.random.SeedSequence(101, spawn_key=(1, 2)))


def test_stacked_table_mean_counts_match_exact_table():
    # Every cell of a sampled table is an independent Poisson count with the
    # exact table's mean mu (mu > 300 here, thanks to the Werner noise): the
    # draw simulate_counts and the sweeps run, as the stream tests pin.
    # Over K tables the mean count of a cell has z = (mean - mu) / sqrt(mu / K)
    # ~ N(0, 1). Bounds: every |z| within the two-sided Bonferroni quantile at
    # a family-wise rate of 1e-4 over the M cells, and sum z^2 within 5 sd of
    # its chi-square mean M. The dispersion: a cell's sample variance s^2
    # over the K tables has (K - 1) s^2 / mu ~ chi-square with K - 1 dof (the
    # Poisson excess adds (K - 1)^2 / (K mu) < 0.1 to its variance 2 (K - 1)),
    # so the sum over the M cells is within 5 sd of M (K - 1); a model with a
    # fixed total per setting has cell variances mu (1 - p) and fails it.
    from statistics import NormalDist
    rhos = stack_states()
    settings = FAMILY_SETTINGS[::5]
    n_tables = 20
    mu = measure._mean_counts(rhos, measure.projector_tensor(settings), STACK_DETECTION)
    tables = np.array([np.random.default_rng(seed).poisson(mu) for seed in range(n_tables)])
    mean = tables.mean(axis=0)
    assert mean.shape == mu.shape == (6, len(settings), 4)
    # the exact-table door gives the kernel's means of one state
    assert np.array_equal(measure.exact_table(rhos[5], settings, STACK_DETECTION).counts,
                          mu[5])
    z = (mean - mu) / np.sqrt(mu / n_tables)
    cells = z.size
    assert np.abs(z).max() < NormalDist().inv_cdf(1.0 - 1e-4 / (2 * cells))
    assert abs((z * z).sum() - cells) < 5.0 * math.sqrt(2.0 * cells)
    dof = cells * (n_tables - 1)
    chi2 = ((n_tables - 1) * tables.var(axis=0, ddof=1) / mu).sum()
    assert abs(chi2 - dof) < 5.0 * math.sqrt(2.0 * dof)


# ------------------------------------------------------- joint expectations

def test_joint_expectation_examples():
    # equal rotations leave the cancellation branch fully anticorrelated
    for theta in (0.0, 0.4, -1.1):
        rho = evolved_bell("psi_minus", theta, theta)
        assert abs(measure.exact_observables(rho)[0] + 1.0) < 1e-12
    # oracle: full matrix evaluation of Tr[rho sz x sz]
    rho = evolved_bell("psi_plus", math.radians(20), math.radians(10))
    oracle = float(np.trace(rho @ np.kron(states.PAULI_Z, states.PAULI_Z)).real)
    assert abs(oracle - (-0.5)) < 1e-12
    assert abs(measure.exact_observables(rho)[0] - oracle) < 1e-12
    rho = evolved_bell("psi_minus", math.radians(20), math.radians(10))
    m_xz = measure.exact_observables(rho)[1]
    assert abs(m_xz - (-math.sin(math.radians(20)))) < 1e-12


def test_closed_forms_random_angles():
    rng = np.random.default_rng(2)
    for _ in range(200):
        ta, tb = rng.uniform(-math.pi, math.pi, 2)
        kind, sign = ("psi_plus", 1.0) if rng.random() < 0.5 else ("psi_minus", -1.0)
        m_zz, m_xz, m_zx = measure.exact_observables(evolved_bell(kind, ta, tb))
        tpm = ta + sign * tb
        assert abs(m_zz + math.cos(2 * tpm)) < 1e-12
        assert abs(m_xz + math.sin(2 * tpm)) < 1e-12
        assert abs(m_xz - sign * m_zx) < 1e-12


def test_exact_observables_stack_equals_its_members():
    # a (2, 3, 4, 4) stack: both Bell branches, noisy, at three angle pairs
    angles = ((0.3, -0.7), (1.1, 0.2), (-2.5, 2.9))
    stack = np.array([[evolved_bell(kind, ta, tb, visibility=0.8) for ta, tb in angles]
                      for kind in ("psi_plus", "psi_minus")])
    # the last axis holds M_zz, M_xz, M_zx, and no sigmas
    obs = measure.exact_observables(stack)
    assert obs.shape == (2, 3, 3) and obs.dtype == float
    for idx in np.ndindex(2, 3):
        single = measure.exact_observables(stack[idx])
        assert single.shape == (3,) and single.dtype == float
        for k in range(3):
            assert obs[idx][k] == single[k], (idx, k)


def test_entangled_extrema_full_swing():
    # the swing of m_zz over theta_b reaches the extreme values +-1 exactly
    # (at theta_b = -+theta_a) and never exceeds them
    for kind, sign in (("psi_plus", 1.0), ("psi_minus", -1.0)):
        for ta in (0.3, -0.9, 1.2):
            peak = measure.exact_observables(evolved_bell(kind, ta, -sign * ta))[0]
            assert abs(peak + 1.0) < 1e-12
            values = [measure.exact_observables(evolved_bell(kind, ta, tb))[0]
                      for tb in np.linspace(-math.pi / 2, math.pi / 2, 61)]
            assert max(np.abs(values)) <= 1.0 + 1e-12


# ------------------------------------------------------ separable contrast

def separable_observables(theta_a, theta_b):
    # |H>|V> rotated by rotate_arm, read as `polarot verify` reads it
    rho = channels.rotate_arm(channels.rotate_arm(
        states.separable_state(states.ket("H"), states.ket("V")), theta_a, 0), theta_b, 1)
    return measure.exact_observables(rho)


def test_separable_expectations_against_born_oracle():
    # closed forms: m_zz = -cos 2ta cos 2tb, m_xz = -sin 2ta cos 2tb and
    # m_zx = -cos 2ta sin 2tb; the swing of each is bounded by the other
    # arm's cosine factor instead of reaching +-1
    rng = np.random.default_rng(3)
    for _ in range(25):
        ta, tb = rng.uniform(-math.pi, math.pi, 2)
        rho = rotate_locally(
            states.separable_state(states.ket("H"), states.ket("V")),
            jones.rotation_unitary(ta), jones.rotation_unitary(tb))
        m_zz, m_xz, m_zx = separable_observables(ta, tb)
        ca, sa = math.cos(2.0 * ta), math.sin(2.0 * ta)
        cb, sb = math.cos(2.0 * tb), math.sin(2.0 * tb)
        for (a, b), value, closed in ((("Z", "Z"), m_zz, -ca * cb),
                                      (("X", "Z"), m_xz, -sa * cb),
                                      (("Z", "X"), m_zx, -ca * sb)):
            p = born_probabilities(rho, a, b)
            assert abs((p[0] - p[1] - p[2] + p[3]) - value) < 1e-12
            assert abs(closed - value) < 1e-12


def test_separable_expectation_values():
    m_zz, m_xz, _ = separable_observables(0.0, 0.0)
    assert abs(abs(m_zz) - 1.0) < 1e-15
    assert abs(m_xz) < 1e-15
    m_zz, m_xz, _ = separable_observables(math.radians(22.5), 0.0)
    assert abs(abs(m_zz) - math.sqrt(2) / 2) < 1e-12
    assert abs(m_xz + math.sqrt(2) / 2) < 1e-12
    for ta in np.linspace(-1.5, 1.5, 7):
        assert abs(separable_observables(ta, math.radians(45))[0]) < 1e-12


def test_separable_amplitude_bounded_by_cosine():
    rng = np.random.default_rng(4)
    for _ in range(100):
        ta, tb = rng.uniform(-math.pi, math.pi, 2)
        assert abs(separable_observables(ta, tb)[0]) <= abs(math.cos(2 * tb)) + 1e-12


# ------------------------------------------------------------- Monte Carlo

def make_named_settings():
    return [("Z", "Z"), ("X", "Z"), ("Z", "X")]


def test_simulate_counts_deterministic():
    rho = evolved_bell("psi_plus", 0.2, 0.1)
    kwargs = dict(detection=measure.Detection(pair_flux=1e4, duration=1.0), seed=42)
    t1 = measure.simulate_counts(rho, make_named_settings(), **kwargs)
    t2 = measure.simulate_counts(rho, make_named_settings(), **kwargs)
    assert np.array_equal(t1.counts, t2.counts)
    t3 = measure.simulate_counts(rho, make_named_settings(),
                                 measure.Detection(1e4, 1.0), seed=43)
    assert not np.array_equal(t1.counts, t3.counts)


def test_simulate_counts_law_of_large_numbers():
    rho = evolved_bell("psi_plus", 0.3, -0.1, visibility=0.95)
    settings = make_named_settings()
    n = 400000
    table = measure.simulate_counts(rho, settings, measure.Detection(n, 1.0), seed=7)
    for k, (a, b) in enumerate(settings):
        p = one_pair(rho, a, b)
        total = table.counts[k].sum()
        freq = table.counts[k] / total
        bound = 3.0 * np.sqrt(p * (1 - p) / total) + 1e-9
        assert (np.abs(freq - p) <= bound).all()


def test_simulate_counts_transmission_scaling():
    rho = states.bell_state("psi_plus")
    settings = make_named_settings()
    lam = 2e5
    table = measure.simulate_counts(rho, settings,
                                    measure.Detection(pair_flux=lam, duration=1.0,
                                                      transmission_a=0.75,
                                                      transmission_b=0.75),
                                    seed=11)
    expected = lam * 0.75 * 0.75  # 0.5625 of the lossless rate
    totals = table.counts.sum(axis=1)
    for total in totals:
        assert abs(total - expected) <= 4.0 * math.sqrt(expected)


def test_simulate_counts_of_a_nearly_mixed_source_are_uniform():
    # visibility 0.001, once the accidental fraction 0.999, is uniform over outcomes
    rho = channels.apply_noise(states.separable_state(states.ket("H"), states.ket("V")),
                               0.001)
    table = measure.simulate_counts(rho, [("Z", "Z")],
                                    measure.Detection(pair_flux=4e5, duration=1.0),
                                    seed=3)
    freq = table.counts[0] / table.counts[0].sum()
    assert np.abs(freq - 0.25).max() < 0.01


def test_simulate_counts_validation():
    rho = states.bell_state("psi_plus")
    with pytest.raises(ValueError, match="must not be empty"):
        measure.simulate_counts(rho, [], measure.Detection(pair_flux=1.0, duration=1.0),
                                seed=0)
    with pytest.raises(ValueError, match="positive"):
        measure.simulate_counts(rho, make_named_settings(),
                                measure.Detection(pair_flux=1.0, duration=0.0), seed=0)
    with pytest.raises(ValueError, match="transmission_a"):
        measure.simulate_counts(rho, make_named_settings(),
                                measure.Detection(pair_flux=1.0, duration=1.0,
                                                  transmission_a=1.5), seed=0)


@pytest.mark.parametrize("name, value", [
    ("pair_flux", -1.0), ("pair_flux", math.inf), ("duration", 0.0),
    ("duration", -1.0), ("transmission_a", 1.5), ("transmission_a", -0.1),
    ("transmission_b", 1.5)])
def test_detection_validation(name, value):
    # every out-of-range value is rejected by a message that names its field
    with pytest.raises(ValueError, match=name):
        measure.Detection(**{"pair_flux": 1.0, "duration": 1.0, name: value})


def test_detection_mean_is_one_numpy_can_draw():
    # MAX_POISSON_MEAN is numpy's own bound: a Poisson draw takes it and
    # rejects the next float up
    bound = measure.MAX_POISSON_MEAN
    rng = np.random.default_rng(0)
    rng.poisson(bound)
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(np.nextafter(bound, math.inf))
    # a detection at the bound samples a table; above it, the message names
    # the fields whose product is the mean
    detection = measure.Detection(bound, 1.0)
    table = measure.simulate_counts(channels.apply_noise(states.bell_state("psi_plus"), 0.7),
                                    make_named_settings(), detection, seed=1)
    assert np.all(np.abs(table.counts.sum(axis=1) / bound - 1.0) < 1e-8)
    with pytest.raises(ValueError, match=r"^pair_flux \* duration \* transmission_a \* "
                                         r"transmission_b = 1e\+19 pairs per setting is "
                                         r"above 9\.22337e\+18"):
        measure.Detection(1e10, 1e9)
    with pytest.raises(ValueError, match="= inf pairs per setting"):
        measure.Detection(1e300, 1e300)


def test_detection_mean_and_metadata():
    detection = measure.Detection(2e4, 1.5, 0.8, 0.5)
    assert detection.mean_pairs() == 2e4 * 1.5 * 0.8 * 0.5
    rho = states.bell_state("psi_plus")
    exact = measure.exact_table(rho, make_named_settings(), detection)
    assert exact.metadata == dict(pair_flux=2e4, duration=1.5, transmission_a=0.8,
                                  transmission_b=0.5, exact=1)
    sampled = measure.simulate_counts(rho, make_named_settings(), detection, seed=5)
    assert sampled.metadata == dict(exact.metadata, rng_seed=5, exact=0)


def test_exact_table_matches_born():
    rho = evolved_bell("psi_minus", 0.25, 0.1, visibility=0.9)
    settings = make_named_settings()
    table = measure.exact_table(rho, settings,
                                measure.Detection(pair_flux=1e5, duration=2.0,
                                                  transmission_a=0.75,
                                                  transmission_b=0.75))
    lam = 1e5 * 2.0 * 0.5625
    for k, (a, b) in enumerate(settings):
        p = one_pair(rho, a, b)
        assert np.abs(table.counts[k] - lam * p).max() < 1e-6


# -------------------------------------------------------------- estimators

def test_estimate_correlation_examples():
    m, sigma = measure.estimate_correlation([0, 500, 500, 0])
    assert m == -1.0 and sigma == 0.0
    n = 10000
    m, sigma = measure.estimate_correlation([n / 4] * 4)
    assert m == 0.0
    assert abs(sigma - 1.0 / math.sqrt(n)) < 1e-15
    with pytest.raises(ValueError, match="zero total counts$"):
        measure.estimate_correlation([0, 0, 0, 0])
    # in a stack, the first empty row is named by its index
    rows = np.ones((2, 3, 4))
    rows[1, 2] = rows[1, 1, 0] = 0.0
    with pytest.raises(ValueError, match=r"zero total counts at stack index \(1, 2\)$"):
        measure.estimate_correlation(rows)
    # a stack of no rows gives no estimates
    assert [a.shape for a in measure.estimate_correlation(np.zeros((0, 4)))] == [(0,), (0,)]


@pytest.mark.parametrize("row", [[5, -1, 0, 0], [math.nan, 1, 1, 1], [math.inf, 1, 1, 1],
                                 [-math.inf, 1, 1, 1]], ids=["negative", "nan", "inf", "minus-inf"])
def test_estimate_correlation_rejects_bad_counts(recwarn, row):
    # [5, -1, 0, 0] read (1.5, 0.0), NaN read (nan, nan) and inf warned;
    # in a stack the first bad row is named by its index
    with pytest.raises(ValueError, match="^cannot estimate a correlation from negative or "
                                         "non-finite counts or total$"):
        measure.estimate_correlation(row)
    rows = np.ones((2, 3, 4))
    rows[0, 1] = rows[1, 0] = row
    with pytest.raises(ValueError, match=r"non-finite counts or total at stack index "
                                         r"\(0, 1\)$"):
        measure.estimate_correlation(rows)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


_COUNT = st.one_of(st.just(0.0), st.floats(1e-300, 1e300))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(*[_COUNT] * 4).filter(any), min_size=1, max_size=6),
       fortran=st.booleans())
def test_estimate_correlation_of_finite_nonnegative_rows_is_in_the_unit_interval(rows,
                                                                                  fortran):
    # |((a - b) - c) + d| <= the row sum in floating point, so 1 - m^2 never
    # falls below 0 and the sigma needs no floor, in either memory layout
    counts = np.array(rows)
    m, sigma = measure.estimate_correlation(np.asfortranarray(counts) if fortran else counts)
    assert (1.0 - m * m >= 0.0).all()
    assert np.isfinite(sigma).all() and (sigma >= 0.0).all()


_COUNT_ROWS = st.lists(st.lists(st.integers(0, 10**12), min_size=4, max_size=4)
                       .filter(lambda row: sum(row) > 0), min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(rows=_COUNT_ROWS)
def test_estimate_correlation_properties(rows):
    stacked_m, stacked_sigma = measure.estimate_correlation(np.array(rows))
    for row, m_row, sigma_row in zip(rows, stacked_m, stacked_sigma):
        m, sigma = measure.estimate_correlation(row)
        assert abs(m) <= 1.0 and sigma >= 0.0
        # the stack gives each row's values, bit for bit
        assert (m, sigma) == (m_row, sigma_row)
        # the two anticorrelated outcomes enter symmetrically
        n_pp, n_pm, n_mp, n_mm = row
        assert measure.estimate_correlation([n_pp, n_mp, n_pm, n_mm]) == (m, sigma)


@settings(max_examples=200, deadline=None)
@given(theta=st.floats(-math.pi / 2, math.pi / 2, exclude_min=True))
def test_branch_rotation_round_trip(theta):
    (theta_hat,), (sigma,) = measure._branch_rotations(
        ("psi_plus",), np.array([-math.cos(2 * theta)]), np.array([-math.sin(2 * theta)]))
    assert -math.pi / 2 < theta_hat <= math.pi / 2
    assert abs(theta_hat - theta) <= 1e-12 and sigma == 0.0


# inside the +-45 deg window, clear of its edges, where the wrap may take
# either sign
_WINDOW_ANGLE = st.floats(-math.pi / 4 + 1e-6, math.pi / 4 - 1e-6)


@settings(max_examples=200, deadline=None)
@given(theta_a=_WINDOW_ANGLE, theta_b=_WINDOW_ANGLE)
def test_extract_thetas_round_trip_in_window(theta_a, theta_b):
    def branch(angle):
        return np.array([-math.cos(2 * angle), -math.sin(2 * angle)])
    ta_hat, tb_hat = measure.extract_thetas(branch(theta_a + theta_b),
                                            branch(theta_a - theta_b), 0.0, 0.0)
    assert abs(ta_hat - theta_a) <= 1e-9 and abs(tb_hat - theta_b) <= 1e-9


def test_estimate_observables_statistical():
    rho = evolved_bell("psi_plus", math.radians(20), math.radians(10))
    table = measure.simulate_counts(rho, make_named_settings(),
                                    measure.Detection(1e5, 1.0), seed=19)
    m, sigma = measure.estimate_observables(table)
    assert abs(m[0] - (-0.5)) <= 3.0 * sigma[0]
    assert abs(m[1] - (-math.sin(math.radians(60)))) <= 3.0 * sigma[1]


PULL_TABLES = 2000


def assert_standard_normal(pulls, name):
    # n independent N(0, 1) pulls: the mean has sd 1/sqrt(n) and the sample
    # variance sd sqrt(2/(n - 1)); both bounds are 4 of those sds
    n = pulls.size
    assert abs(pulls.mean()) < 4.0 / math.sqrt(n), name
    assert abs(pulls.var(ddof=1) - 1.0) < 4.0 * math.sqrt(2.0 / (n - 1)), name


def repeated_counts(rho, settings, detection, seed):
    """The counts of PULL_TABLES independent tables of one state, drawn in
    one call as the sweeps draw them: Poisson counts of the exact means."""
    means = measure._mean_counts(np.repeat(rho[None], PULL_TABLES, axis=0),
                                 measure.projector_tensor(settings), detection)
    return np.random.default_rng(seed).poisson(means)


@pytest.mark.parametrize("visibility", [0.9, 0.81])
def test_estimate_observables_sigma_pulls(visibility):
    # Pulls (estimate - exact) / sigma of each observable over independent
    # tables are N(0, 1); the exact values come from the exact table, and the
    # estimates from the estimator kernel the sweeps run on the stack of
    # tables. Visibility 0.81 is 0.9 with the accidental fraction 0.1 of an
    # earlier detection model
    rho = evolved_bell("psi_minus", math.radians(20), math.radians(-5), visibility)
    detection = measure.Detection(1e5, 1.0)
    exact, _ = measure.estimate_observables(
        measure.exact_table(rho, make_named_settings(), detection))
    counts = repeated_counts(rho, make_named_settings(), detection, seed=41)
    m, sigma = measure.estimate_correlation(counts)
    # the table door reads the same values from one table
    single = measure.estimate_observables(
        measure.CoincidenceTable(make_named_settings(), counts[7]))
    assert np.array_equal(single, (m[7], sigma[7]))
    for k, name in enumerate(("zz", "xz", "zx")):
        assert_standard_normal((m[:, k] - exact[k]) / sigma[:, k], name)


def test_estimate_observables_missing_pair():
    table = measure.CoincidenceTable([("Z", "Z")], np.array([[1.0, 2.0, 3.0, 4.0]]))
    with pytest.raises(ValueError, match=r"\(X, Z\)"):
        measure.estimate_observables(table)


def test_exact_mode_estimation_reproduces_closed_forms():
    ta, tb = math.radians(20), math.radians(10)
    rho = evolved_bell("psi_plus", ta, tb)
    table = measure.exact_table(rho, make_named_settings(), measure.Detection(1e5, 1.0))
    m, _ = measure.estimate_observables(table)
    assert abs(m[0] + math.cos(2 * (ta + tb))) < 1e-12
    assert abs(m[1] + math.sin(2 * (ta + tb))) < 1e-12


def test_branch_rotation():
    ta = math.radians(33.0)
    (theta,), (sigma,) = measure._branch_rotations(
        ("psi_minus",), np.array([-math.cos(2 * ta)]), np.array([-math.sin(2 * ta)]))
    assert abs(theta - ta) < 1e-12
    assert sigma == 0.0


# --------------------------------------------------------------- extraction

def test_extract_thetas_trivial():
    obs = np.array([-1.0, 0.0, 0.0])
    ta, tb = measure.extract_thetas(obs, obs, 0.0, 0.0)
    assert abs(ta) < 1e-15 and abs(tb) < 1e-15


@pytest.mark.parametrize("ta_deg,tb_deg", [(20.0, 10.0), (-30.0, 5.0),
                                           (44.0, -44.0), (1.0, 43.0)])
def test_extract_thetas_round_trip(ta_deg, tb_deg):
    ta, tb = math.radians(ta_deg), math.radians(tb_deg)
    obs_p = measure.exact_observables(evolved_bell("psi_plus", ta, tb))
    obs_m = measure.exact_observables(evolved_bell("psi_minus", ta, tb))
    ta_hat, tb_hat = measure.extract_thetas(obs_p, obs_m, 0.0, 0.0)
    assert abs(ta_hat - ta) < 1e-9
    assert abs(tb_hat - tb) < 1e-9


def test_extract_thetas_branch_wrap_outside_window():
    # one degree outside the +-45 deg validity window the principal branch
    # wraps the answer by 90 degrees
    ta = math.radians(46.0)
    obs_p = measure.exact_observables(evolved_bell("psi_plus", ta, 0.0))
    obs_m = measure.exact_observables(evolved_bell("psi_minus", ta, 0.0))
    ta_hat, tb_hat = measure.extract_thetas(obs_p, obs_m, 0.0, 0.0)
    assert abs(ta_hat - (ta - math.pi / 2)) < 1e-9
    assert abs(tb_hat) < 1e-9


def test_extract_thetas_ill_conditioned():
    obs = np.zeros(3)
    with pytest.raises(ValueError, match="ill-conditioned"):
        measure.extract_thetas(obs, obs, 0.0, 0.0)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def test_readout_stack_equals_scalar_calls():
    # random observables plus the corner cases of the readout: m_zz =
    # m_xz = 0 (no phase, ill-conditioned) and signed zeros, whose sign
    # picks the branch of atan2
    rng = np.random.default_rng(7)
    m = rng.uniform(-1.0, 1.0, (4, 40))
    sigmas = rng.uniform(0.0, 0.1, (2, 40))
    m[:2, :4] = [[0.0, -0.0, 0.0, -0.0], [0.0, 0.0, -0.0, -0.0]]
    m[1, 4:8] = m[3, 4:8] = [0.0, -0.0, 0.0, -0.0]
    m[0, 4:8] = m[2, 4:8] = [-0.5, -0.5, 0.5, 0.5]
    kinds = ("psi_plus",)
    # each m_zz = m_xz = 0 member raises, alone and at its index in a stack
    for k in range(4):
        with pytest.raises(ValueError, match=r"ill-conditioned: \|plus-branch factor\| "
                                             r"= 0 < 1e-06"):
            measure._branch_rotations(kinds, *m[:2, None, k])
        stack = np.insert(m[:2, 4:], k, m[:2, k], axis=1)
        with pytest.raises(ValueError, match=rf"ill-conditioned at stack index \({k},\): "
                                             rf"\|plus-branch factor\| = 0 < 1e-06"):
            measure._branch_rotations(kinds, *stack[:, None])
    (theta,), (sigma,) = measure._branch_rotations(kinds, *m[:2, None, 4:],
                                                   *sigmas[:, None, 4:])
    assert np.isfinite(sigma).all()
    # the signed zeros: +0.0 and -0.0 in m_xz read -0.0 and 0.0 at m_zz < 0,
    # and -pi/2 and pi/2 at m_zz > 0
    assert _bits(theta[:4]) == _bits([-0.0, 0.0, -math.pi / 2, math.pi / 2])
    members = list(zip(*m[:2, 4:].tolist(), *sigmas[:, 4:].tolist()))
    scalar = [measure._branch_rotations(kinds, *np.array(args)[:2, None], *args[2:])
              for args in members]
    assert _bits(theta) == _bits([t for (t,), _ in scalar])
    assert _bits(sigma) == _bits([s for _, (s,) in scalar])
    # the scalar formulas in Python floats, to a few float64 epsilons:
    # math.atan2 and pow(x, 2) may differ from numpy's in the last bit
    for (m_zz, m_xz, s_zz, s_xz), ((t,), (s,)) in zip(members, scalar):
        assert abs(t - 0.5 * math.atan2(-m_xz, -m_zz)) <= 1e-15 * abs(t)
        r2 = m_zz ** 2 + m_xz ** 2
        ref = math.sqrt((0.5 * m_xz / r2) ** 2 * s_zz ** 2
                        + (0.5 * m_zz / r2) ** 2 * s_xz ** 2)
        assert abs(s - ref) <= 1e-15 * ref

    # each branch as (member, (m_zz, m_xz)) rows
    plus, minus = m[:2, 4:].T, m[2:, 4:].T
    theta_a, theta_b = measure.extract_thetas(plus, minus, 0.0, 0.0)
    scalar = []
    for args in zip(*m[:, 4:].tolist()):
        one = measure.extract_thetas(np.array(args[:2]), np.array(args[2:]), 0.0, 0.0)
        scalar.append(one)
        # the half-sum and half-difference of the branch rotations, wrapped
        # into the +-45 deg window, in Python floats
        t_plus, t_minus = measure._branch_rotations(
            ("psi_plus", "psi_minus"), np.array(args[::2]), np.array(args[1::2]))[0].tolist()
        halves = ((t_plus + t_minus) / 2.0, (t_plus - t_minus) / 2.0)
        assert one == tuple(x - math.pi / 2 * round(x / (math.pi / 2)) for x in halves)
    assert _bits(theta_a) == _bits([a for a, _ in scalar])
    assert _bits(theta_b) == _bits([b for _, b in scalar])
    # the m_zz = m_xz = 0 members make the whole stack ill-conditioned,
    # and the error names the first of them
    with pytest.raises(ValueError, match=r"ill-conditioned at stack index \(0,\)"):
        measure.extract_thetas(m[:2].T, m[2:].T, 0.0, 0.0)


@pytest.mark.parametrize("branch", ["plus", "minus"])
def test_extract_thetas_names_the_ill_conditioned_member(branch):
    m_zz = np.full((2, 3), -1.0)
    m_zz[1, 2] = 0.0
    good = np.stack((np.full((2, 3), -1.0), np.zeros((2, 3))), -1)
    bad = np.stack((m_zz, np.zeros((2, 3))), -1)
    obs = (bad, good) if branch == "plus" else (good, bad)
    with pytest.raises(ValueError, match=rf"ill-conditioned at stack index \(1, 2\): "
                                         rf"\|{branch}-branch factor\| = 0 < 1e-06"):
        measure.extract_thetas(*obs, 0.0, 0.0)


@pytest.mark.parametrize("branch", ["plus", "minus"])
def test_extract_thetas_rejects_a_zero_factor(branch):
    # a zero factor has no phase: at floor 0 it gave nan angles with warnings
    m_zz = np.full(4, -1.0)
    m_zz[2] = 0.0
    good = np.stack((np.full(4, -1.0), np.zeros(4)), -1)
    bad = np.stack((m_zz, np.zeros(4)), -1)
    obs = (bad, good) if branch == "plus" else (good, bad)
    with pytest.raises(ValueError, match=rf"ill-conditioned at stack index \(2,\): "
                                         rf"\|{branch}-branch factor\| = 0 < 1e-06"):
        measure.extract_thetas(*obs, 0.0, 0.0)


@pytest.mark.parametrize("m", [np.array([-1.0]), -1.0], ids=["one-value", "scalar"])
def test_extract_thetas_names_the_expected_layout(m):
    # a branch with no M_xz on its last axis raised IndexError
    with pytest.raises(ValueError, match=r"^extract_thetas needs M_zz and M_xz on the last "
                                         r"axis of each branch, got shapes \S+ and \S+$"):
        measure.extract_thetas(m, m, 0.0, 0.0)
    with pytest.raises(ValueError, match=r"got shapes \(3,\) and \(1,\)$"):
        measure.extract_thetas(np.array([-1.0, 0.0, 0.0]), np.array([-1.0]), 0.0, 0.0)


_NOT_CORRELATIONS = (r"^extract_thetas needs M_zz and M_xz in \[-1, 1\] and their sigmas in "
                     r"\[0, 1\] in each branch$")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e200, -1.0000000000000002,
                                   1.5], ids=["nan", "inf", "-inf", "1e200", "below-minus-1",
                                              "1.5"])
@pytest.mark.parametrize("branch, column", [(0, 0), (0, 1), (1, 0), (1, 1)],
                         ids=["plus-zz", "plus-xz", "minus-zz", "minus-xz"])
def test_extract_thetas_rejects_observables_that_are_no_correlations(branch, column, value):
    # without the check, ([nan, .5, 0], [-1, 0, 0]) read (nan, nan),
    # ([inf, 0, 0], [-1, 0, 0]) read (-pi/4, -pi/4) and ([-inf, .5, 0],
    # [-1, 0, 0]) read (0, 0), all silently, and M_zz = 1e200 overflowed
    obs = [np.array([-1.0, 0.5, 0.0]), np.array([-1.0, 0.0, 0.0])]
    obs[branch][column] = value
    with pytest.raises(ValueError, match=_NOT_CORRELATIONS):
        measure.extract_thetas(*obs, 0.0, 0.0)
    # M_zx is not read, so it is not checked
    obs[branch][column], obs[branch][2] = -1.0, value
    measure.extract_thetas(*obs, 0.0, 0.0)


@pytest.mark.parametrize("sigma", [-1e-9, 1.5, math.nan, math.inf],
                         ids=["negative", "above-1", "nan", "inf"])
def test_extract_thetas_rejects_sigmas_outside_the_unit_interval(sigma):
    obs = np.array([-1.0, 0.0, 0.0])
    for sigmas in ((sigma, 0.0), (0.0, np.array([0.0, sigma, 0.0]))):
        with pytest.raises(ValueError, match=_NOT_CORRELATIONS):
            measure.extract_thetas(obs, obs, *sigmas)
    # the sigma of M_zx is not read either
    measure.extract_thetas(obs, obs, 0.0, np.array([0.0, 0.0, sigma]))


def test_extract_thetas_holds_each_branch_to_the_significance_rule():
    # the same observables read at small sigmas and raise at large ones,
    # where |F| / sigma_F falls below SIGNIFICANCE; |F| is 0.5 in each branch
    plus, minus = np.array([-0.5, 0.0, 0.0]), np.array([0.0, -0.5, 0.0])
    assert measure.extract_thetas(plus, minus, 0.01, 0.01) == pytest.approx(
        measure.extract_thetas(plus, minus, 0.0, 0.0))
    # at m_xz = 0 sigma_F is sigma_xz alone: 0.5 / 0.125 = 4 reads, 0.13 does not
    measure.extract_thetas(plus, minus, np.array([0.9, 0.125, 0.0]), 0.0)
    with pytest.raises(ValueError, match=r"^extraction ill-conditioned: \|plus-branch "
                                         r"factor\| = 0.5 = 3.85 sigma_F < 4 sigma_F$"):
        measure.extract_thetas(plus, minus, np.array([0.9, 0.13, 0.0]), 0.0)
    with pytest.raises(ValueError, match=r"^extraction ill-conditioned: \|minus-branch "
                                         r"factor\| = 0.5 = 2 sigma_F < 4 sigma_F$"):
        measure.extract_thetas(plus, minus, 0.0, 0.25)


# --------------------------------------------------------------------- scan

def exact_probe(ta):
    def probe(tbs):
        return np.array([measure.exact_observables(evolved_bell("psi_minus", ta, tb))
                         for tb in tbs])
    return probe


def scan(probe):
    """The scan's phase estimator on the exact observables `probe` gives at
    the scan grid, a (grid angle, (m_zz, m_xz, m_zx)) array, with sigmas 0."""
    return sweeps._scan_phase(probe(sweeps._SCAN_GRID)[:, :2], np.zeros((36, 2)))


def test_scan_exact_zero():
    theta = scan(exact_probe(0.0))
    assert abs(theta) < math.radians(0.01)


def zero_offset_config(theta_a: float = 0.0) -> config.ExperimentConfig:
    """A config with arm A at theta_a (radians) and no analyzer offsets."""
    return config.ExperimentConfig(arm_a=config.ArmConfig(angle=theta_a),
                                   pbs_a=0.0, pbs_b=0.0, hwp=0.0)


def test_scan_exact_wide_angle():
    # 100 degrees lies outside the closed-form window; the scan reads it mod
    # 180 degrees, as -80, and so does run_scan, whose readout lies in [-90, 90)
    ta = math.radians(100.0)
    theta = scan(exact_probe(ta))
    assert abs(theta - (ta - math.pi)) < math.radians(0.01)
    assert abs(sweeps.run_scan(zero_offset_config(ta), exact=True) - (ta - math.pi)) \
        < math.radians(0.01)


def test_scan_exact_negative_angle():
    ta = math.radians(-70.0)
    assert abs(scan(exact_probe(ta)) - ta) < math.radians(0.01)
    assert abs(sweeps.run_scan(zero_offset_config(ta), exact=True) - ta) < math.radians(0.01)


def test_scan_noisy_repeatability():
    # tolerance frozen from a repeatability study at 1e5 pairs per point
    ta = math.radians(20.0)
    rho0 = states.bell_state("psi_minus")

    for rep in range(5):
        m, sigma = [], []
        for k, tb in enumerate(sweeps._SCAN_GRID, 1):
            rho = rotate_locally(rho0, jones.rotation_unitary(ta), jones.rotation_unitary(tb))
            seed = int(np.random.SeedSequence(
                entropy=1000 + rep, spawn_key=(k,)).generate_state(1)[0])
            table = measure.simulate_counts(rho, make_named_settings(),
                                            measure.Detection(1e5, 1.0), seed=seed)
            for values, estimates in zip((m, sigma), measure.estimate_observables(table)):
                values.append(estimates[:2])
        assert abs(sweeps._scan_phase(np.array(m), np.array(sigma)) - ta) < math.radians(0.5)


def mixed_probe(tbs):
    return np.array([measure.exact_observables(states.maximally_mixed())
                     for _ in tbs])


def test_scan_flat_response_rejected():
    # a grid of pure sampling noise with unequal sigmas: the mean phasor P is
    # a few sigma_F at most, below the significance rule, and the error
    # gives |P| / sigma_F with sigma_F from the full covariance of (Re P,
    # Im P), here built from the Jacobian of P in the 72 correlations
    rng = np.random.default_rng(3)
    sigma = rng.uniform(0.005, 0.02, (36, 2))
    m = rng.normal(0.0, sigma)
    grid = sweeps._SCAN_GRID
    phasor = np.mean((-m[:, 0] - 1j * m[:, 1]) * np.exp(2j * grid))
    c, s = np.cos(2 * grid) / 36, np.sin(2 * grid) / 36
    jacobian = np.array([np.concatenate((-c, s)), np.concatenate((-s, -c))])
    cov = jacobian @ np.diag(np.concatenate((sigma[:, 0], sigma[:, 1])) ** 2) @ jacobian.T
    across = np.array([-phasor.imag, phasor.real]) / abs(phasor)
    ratio = abs(phasor) / math.sqrt(across @ cov @ across)
    assert ratio < measure.SIGNIFICANCE
    with pytest.raises(ValueError, match=rf"^extraction ill-conditioned: \|minus-branch "
                                         rf"factor\| = {abs(phasor):g} = {ratio:.3g} "
                                         rf"sigma_F < 4 sigma_F$"):
        sweeps._scan_phase(m, sigma)


def test_scan_zero_phasor_rejected_at_the_noise_floor():
    # a fully mixed source gives a mean phasor of exactly 0, which has no
    # phase: with sigmas 0 the rule is the round-off floor MODULUS_FLOOR
    with pytest.raises(ValueError, match=r"^extraction ill-conditioned: \|minus-branch "
                                         r"factor\| = 0 < 1e-06$"):
        scan(mixed_probe)


def test_scan_readout_is_the_old_phasor_angle_bit_for_bit():
    # the scan reads its mean phasor P through _branch_rotations as the
    # branch factor of (m_zz, m_xz) = (-Re P, -Im P); its angle must be the
    # bits of the old estimator 0.5 np.angle(P), the oracle here, on seeded
    # random grids whose P has modulus near 1, 1e-3 and 1.2e-6 (above the
    # floor), with sigmas 0 and small enough to pass the significance rule
    rng = np.random.default_rng(46)
    turn = np.exp(2j * sweeps._SCAN_GRID)
    for k in range(3000):
        f = rng.uniform(-0.5, 0.5, 36) + 1j * rng.uniform(-0.5, 0.5, 36)
        f -= np.mean(f * turn) / turn  # a grid whose mean phasor is round-off
        modulus = (1.0, 1e-3, 1.2e-6)[k % 3] * rng.uniform(0.9, 1.1)
        f += modulus * np.exp(1j * rng.uniform(-math.pi, math.pi)) / turn
        m = np.stack((-f.real, -f.imag), -1)
        sigma = rng.uniform(0.0, 1e-9, (36, 2)) if k % 2 else np.zeros((36, 2))
        oracle = 0.5 * float(np.angle(np.mean((-m[:, 0] - 1j * m[:, 1]) * turn)))
        assert _bits(sweeps._scan_phase(m, sigma)) == _bits(oracle), k


def test_scan_probes_the_grid_once(monkeypatch):
    # one half-turn of arm B, -90 to 85 deg in 5-deg steps, once per run:
    # +90 deg would repeat the state of -90 deg
    calls = []
    rotation_counts = sweeps._rotation_counts

    def recorded(cfg, kinds, theta_b, exact):
        calls.append(np.array(theta_b))
        return rotation_counts(cfg, kinds, theta_b, exact)

    monkeypatch.setattr(sweeps, "_rotation_counts", recorded)
    cfg = zero_offset_config(math.radians(20.0))
    for _ in range(3):
        theta = sweeps.run_scan(cfg, exact=True)
        assert abs(theta - math.radians(20.0)) < 1e-12
    assert len(calls) == 3
    for grid in calls:
        assert np.allclose(grid, np.radians(np.arange(-90.0, 90.0, 5.0)), rtol=0, atol=1e-15)


def tie_probe(tbs):
    # -m_zz - i m_xz is -1 at the grid angle 0 (where exp(2i tb) is exactly
    # 1) and 0 elsewhere: the mean phasor is real and negative with a +0
    # imaginary part, so the scan reads theta = pi/2 exactly
    m_zz = np.where(tbs == 0.0, 1.0, 0.0)
    return np.stack((m_zz, np.zeros(tbs.size), np.zeros(tbs.size)), -1)


def enumerated_representative(theta: float) -> float:
    # every theta + k pi in exact rational arithmetic (|theta| < 60 here),
    # the one in [-pi/2, pi/2), rounded once to a float
    pi = Fraction(math.pi)
    inside = [r for r in (Fraction(theta) + k * pi for k in range(-20, 21))
              if -pi / 2 <= r < pi / 2]
    assert len(inside) == 1
    return float(inside[0])


def scan_reading(theta: float, cfg: config.ExperimentConfig) -> float:
    """run_scan's readout when its phase estimator finds theta (radians)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweeps, "_scan_phase", lambda m, sigma: theta)
        return sweeps.run_scan(cfg, exact=True)


_HALF_TURN_EDGES = [edge for half in (math.pi / 2, -math.pi / 2)
                    for edge in (half, math.nextafter(half, 0.0),
                                 math.nextafter(half, 2.0 * half))]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(-math.pi / 2, math.pi / 2), st.sampled_from(_HALF_TURN_EDGES)),
       st.tuples(*[st.one_of(st.floats(-12.0, 12.0), st.sampled_from(
           [0.0, math.pi / 2, -math.pi, 3.0 * math.pi]))] * 3))
def test_scan_representative_matches_the_enumeration(theta, offsets):
    # the readout is the one theta_a + k pi in [-pi/2, pi/2), where theta_a
    # is the scan's half phase with the offsets off; it must be the one an
    # exact enumeration of the representatives picks, bit for bit
    pbs_a, pbs_b, hwp = offsets
    cfg = config.ExperimentConfig(pbs_a=pbs_a, pbs_b=pbs_b, hwp=hwp)
    expected = enumerated_representative(sweeps._remove_offsets(cfg, "psi_minus", theta))
    readout = scan_reading(theta, cfg)
    assert -math.pi / 2 <= readout < math.pi / 2
    assert _bits(readout) == _bits(expected)


@pytest.mark.parametrize("theta", [math.pi / 2, -math.pi / 2], ids=["plus", "minus"])
def test_scan_tie_between_two_representatives(theta):
    # at theta = pi/2, -pi/2 and pi/2 lie equally near 0: both read -pi/2,
    # the closed end of the window, as an analyzer angle of 90 deg reads -90
    assert scan(tie_probe) == math.pi / 2
    cfg = zero_offset_config()
    assert sweeps._remove_offsets(cfg, "psi_minus", theta) == theta
    result = scan_reading(theta, cfg)
    assert _bits(result) == _bits(enumerated_representative(theta)) == _bits(-math.pi / 2)


# --------------------------------------------------------------------- CHSH

CHSH_DEGREES = (0.0, 45.0, 22.5, 67.5)


def chsh_settings(degrees=CHSH_DEGREES):
    a, ap, b, bp = degrees
    return [(f"lin:{x}", f"lin:{y}") for x in (a, ap) for y in (b, bp)]


def exact_chsh(rho, degrees=CHSH_DEGREES):
    """The Born-rule S of linear analyzers at (a, a', b, b') degrees, read
    from the exact table."""
    table = measure.exact_table(rho, chsh_settings(degrees), measure.Detection(1.0, 1.0))
    return measure.chsh_from_counts(table)[0]


def test_chsh_maximal_violation():
    for kind in states.BELL_KINDS:
        s = exact_chsh(states.bell_state(kind))
        assert abs(s - 2.0 * math.sqrt(2.0)) < 1e-9


def test_chsh_mixed_state_zero():
    assert abs(exact_chsh(states.maximally_mixed())) < 1e-12


def test_chsh_werner_scaling():
    p = (4.0 * 0.984 - 1.0) / 3.0
    s = exact_chsh(werner(p))
    assert abs(s - 2.0 * math.sqrt(2.0) * p) < 1e-9
    assert abs(s - 2.768) < 2e-3


def test_chsh_separable_classical_bound():
    rng = np.random.default_rng(6)
    for _ in range(50):
        ka = rng.normal(size=2) + 1j * rng.normal(size=2)
        kb = rng.normal(size=2) + 1j * rng.normal(size=2)
        rho = states.separable_state(ka / np.linalg.norm(ka), kb / np.linalg.norm(kb))
        angles = rng.uniform(-math.pi, math.pi, 4)
        assert exact_chsh(rho, np.degrees(angles)) <= 2.0 + 1e-9


def test_chsh_from_counts_ideal():
    rho = states.bell_state("psi_plus")
    table = measure.simulate_counts(rho, chsh_settings(), measure.Detection(1e5, 1.0),
                                    seed=21)
    s, sigma = measure.chsh_from_counts(table)
    assert abs(s - 2.8284) <= 3.0 * sigma


@pytest.mark.parametrize("visibility", [0.9, 0.81])
def test_chsh_from_counts_sigma_pulls(visibility):
    # as test_estimate_observables_sigma_pulls, for the plug-in S and its
    # quadrature sigma; every |E| is near 0.64, and the largest CHSH form
    # leads the next by about 2.5, far from the kinks of |.| and of max.
    # The stack is read with the correlation estimator and the CHSH formula
    # written out, and chsh_from_counts must read each of its first tables alike
    rho = channels.apply_noise(states.bell_state("psi_plus"), visibility)
    detection = measure.Detection(1e5, 1.0)
    s_exact, _ = measure.chsh_from_counts(
        measure.exact_table(rho, chsh_settings(), detection))
    counts = repeated_counts(rho, chsh_settings(), detection, seed=43)
    e, sigmas = measure.estimate_correlation(counts)
    s = np.abs(e.sum(axis=-1, keepdims=True) - 2.0 * e).max(axis=-1)
    sigma = np.sqrt(np.square(sigmas).sum(axis=-1))
    assert_standard_normal((s - s_exact) / sigma, "S")
    for k in range(20):
        s_k, sigma_k = measure.chsh_from_counts(
            measure.CoincidenceTable(chsh_settings(), counts[k]))
        assert type(s_k) is float and type(sigma_k) is float
        assert s_k == s[k]
        assert abs(sigma_k - sigma[k]) <= 2e-16 * sigma_k


def test_chsh_from_counts_separable_bounded():
    rho = states.separable_state(states.ket("H"), states.ket("V"))
    table = measure.simulate_counts(rho, chsh_settings(), measure.Detection(1e5, 1.0),
                                    seed=22)
    s, sigma = measure.chsh_from_counts(table)
    assert s <= 2.0 + 3.0 * sigma


def test_chsh_sigma_scales_inverse_sqrt_n():
    rho = states.bell_state("psi_plus")
    sigmas = []
    for n in (1e3, 1e4, 1e5):
        table = measure.simulate_counts(rho, chsh_settings(), measure.Detection(n, 1.0),
                                        seed=23)
        sigmas.append(measure.chsh_from_counts(table)[1])
    assert abs(sigmas[0] / sigmas[1] - math.sqrt(10.0)) < 0.6
    assert abs(sigmas[1] / sigmas[2] - math.sqrt(10.0)) < 0.6


def test_chsh_from_counts_validation():
    table = measure.CoincidenceTable([("Z", "Z")], np.array([[1.0, 1.0, 1.0, 1.0]]))
    with pytest.raises(ValueError, match="two analyzer settings"):
        measure.chsh_from_counts(table)
    table = measure.CoincidenceTable([("lin:0", f"lin:{math.degrees(0.4)}")],
                                     np.array([[1.0, 1.0, 1.0, 1.0]]))
    with pytest.raises(ValueError, match="two analyzer settings"):
        measure.chsh_from_counts(table)


def exact_pairs_chsh(rho, arm_a, arm_b):
    """The exact-table S of every pair of arm_a's and arm_b's settings."""
    pairs = [(a, b) for a in arm_a for b in arm_b]
    return measure.chsh_from_counts(
        measure.exact_table(rho, pairs, measure.Detection(1.0, 1.0)))[0]


@pytest.mark.parametrize("rho, arm_a, arm_b, expected", [
    # every E is +-1 and they sum to 0: the old hand-signed form read 4
    (states.separable_state(states.ket("H"), states.ket("H")),
     ("lin:0", "lin:90"), ("lin:0", "lin:90"), 2.0),
    # E(Z,Z) = E(X,X) = -1 and E(Z,X) = E(X,Z) = 0
    (states.bell_state("psi_minus"), ("Z", "X"), ("Z", "X"), 2.0),
    # Z and X analyze as lin:0 and lin:45, so this is the Tsirelson setting
    (states.bell_state("psi_minus"), ("Z", "X"), ("lin:22.5", "lin:67.5"),
     2.0 * math.sqrt(2.0)),
    (states.bell_state("phi_plus"), ("wp:0:0", "wp:22.5:0"), ("lin:-22.5", "lin:22.5"),
     2.0 * math.sqrt(2.0))],
    ids=["HH-lin-0-90", "psi_minus-ZX-ZX", "psi_minus-ZX-lin", "phi_plus-wp-lin"])
def test_chsh_reads_any_two_settings_per_arm(rho, arm_a, arm_b, expected):
    assert abs(exact_pairs_chsh(rho, arm_a, arm_b) - expected) <= 1e-12


_ANALYZER_ANGLE = st.floats(-180.0, 180.0)


def plus_projector(setting_id):
    """The +1-port projector of a setting's canonical id, which a table stores."""
    plus = measure.parse_setting(measure.parse_setting(setting_id)[0])[1][0]
    return np.outer(plus, plus.conj())


# named bases, linear analyzers and wave-plate analyzers; two per arm whose
# canonical ids have different +1 ports (chsh_from_counts rejects two ids of
# one analyzer)
_ARM_SETTINGS = st.lists(
    st.one_of(st.sampled_from(["Z", "X", "Y"]),
              _ANALYZER_ANGLE.map(lambda deg: f"lin:{deg}"),
              st.tuples(_ANALYZER_ANGLE, _ANALYZER_ANGLE).map(
                  lambda plates: f"wp:{plates[0]}:{plates[1]}")),
    min_size=2, max_size=2).filter(
    lambda ids: np.abs(plus_projector(ids[0]) - plus_projector(ids[1])).max() > 1e-12)
_UNIT_INTERVAL = st.floats(-1.0, 1.0)


def complex_vector(reals):
    """The normalized complex vector of interleaved real and imaginary parts."""
    v = np.asarray(reals[::2]) + 1j * np.asarray(reals[1::2])
    return v / np.linalg.norm(v)


def nonzero_parts(size):
    return st.lists(_UNIT_INTERVAL, min_size=size, max_size=size).filter(
        lambda v: np.linalg.norm(v) > 1e-3)


@settings(max_examples=200, deadline=None)
@given(columns=st.lists(nonzero_parts(8), min_size=1, max_size=4),
       arm_a=_ARM_SETTINGS, arm_b=_ARM_SETTINGS)
def test_chsh_of_any_state_is_at_most_tsirelson(columns, arm_a, arm_b):
    # a state of rank len(columns): sum_k |v_k><v_k| / len(columns)
    rho = sum(states.ket_to_dm(complex_vector(c)) for c in columns) / len(columns)
    assert exact_pairs_chsh(rho, arm_a, arm_b) <= 2.0 * math.sqrt(2.0) + 1e-12


@settings(max_examples=200, deadline=None)
@given(ket_a=nonzero_parts(4), ket_b=nonzero_parts(4),
       arm_a=_ARM_SETTINGS, arm_b=_ARM_SETTINGS)
def test_chsh_of_a_product_state_is_at_most_2(ket_a, ket_b, arm_a, arm_b):
    rho = states.separable_state(complex_vector(ket_a), complex_vector(ket_b))
    assert exact_pairs_chsh(rho, arm_a, arm_b) <= 2.0 + 1e-12


@pytest.mark.parametrize("arm_b", [("lin:0", "lin:180"), ("wp:22.5:0", "X"),
                                   ("Y", "wp:0:45"), ("wp:10:20", "wp:100:20")])
def test_chsh_rejects_one_analyzer_under_two_ids(arm_b):
    # equal +1 projectors, whatever the phase of the kets; lin:0 and lin:180,
    # or wp:10:20 and wp:100:20, share one canonical id, so the table holds
    # one arm-B setting
    pairs = [(a, b) for a in ("Z", "X") for b in arm_b]
    table = measure.exact_table(states.bell_state("psi_plus"), pairs,
                                measure.Detection(1.0, 1.0))
    canonical = [measure.parse_setting(b)[0] for b in arm_b]
    message = ("CHSH needs two analyzer settings per arm" if canonical[0] == canonical[1]
               else f"{canonical[0]} and {canonical[1]} have the same \\+1 port")
    with pytest.raises(ValueError, match=message):
        measure.chsh_from_counts(table)


# ------------------------------------------------------------------- files

def test_table_file_round_trip(tmp_path):
    rho = evolved_bell("psi_plus", 0.11, -0.07)
    settings = make_named_settings() + [
        ("lin:22.5", f"wp:{math.degrees(0.1)}:{math.degrees(0.2)}")]
    table = measure.simulate_counts(rho, settings, measure.Detection(5e3, 1.0),
                                    seed=31)
    path = tmp_path / "counts.csv"
    measure.write_table(table, path)
    loaded = measure.read_table(path)
    assert np.array_equal(loaded.counts, table.counts)
    assert loaded.settings == table.settings
    assert loaded.metadata["rng_seed"] == "31"
    assert loaded.metadata["pair_flux"] == "5000.0"


def test_table_rejects_negative_counts():
    with pytest.raises(ValueError, match="nonnegative"):
        measure.CoincidenceTable([("Z", "Z")], np.array([[1.0, -2.0, 0.0, 0.0]]))


@pytest.mark.parametrize("door", ["simulate_counts", "exact_table"])
def test_table_doors_reject_a_stack_of_states(door):
    # a coincidence table holds the counts of one state
    with pytest.raises(ValueError, match=r"counts must have shape \(3, 4\), "
                                         r"got \(2, 3, 4\)$"):
        getattr(measure, door)(random_states(2, seed=3), make_named_settings(),
                               STACK_DETECTION)


def test_read_table_requires_header(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("Z,Z,1,2,3,4\n")
    with pytest.raises(ValueError, match="header"):
        measure.read_table(path)
