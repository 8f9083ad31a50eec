import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jones
from polarot import channels, measure, states, sweeps
from polarot.config import ExperimentConfig


def oracle_rotation(rho, theta_a, theta_b):
    """The oracle u rho u^T, u = U(theta_a) (x) U(theta_b) from the Jones
    matrices of the test oracle module."""
    u = jones.local_rotations(theta_a, theta_b)
    return u @ rho @ u.swapaxes(-2, -1)


def apply_local(rho, theta_a, theta_b):
    """Both arm rotations of channels.rotate_arm applied to rho."""
    return channels.rotate_arm(channels.rotate_arm(rho, theta_a, 0), theta_b, 1)


@pytest.mark.parametrize("arm", [0, 1])
def test_rotate_arm_special_values(arm):
    rho = states.separable_state(states.ket("H"), states.ket("H"))
    assert np.array_equal(channels.rotate_arm(rho, 0.0, arm), rho)
    labels = ("V", "H")[::1 - 2 * arm]
    quarter = channels.rotate_arm(rho, math.pi / 2, arm)
    expect = states.separable_state(*map(states.ket, labels))
    assert np.abs(quarter - expect).max() < 1e-15


def test_rotate_arm_rotates_h_toward_v():
    # levorotation on arm A takes |H>|H> to (cos |H> + sin |V>) |H>
    theta = math.radians(20.08)
    rho = states.separable_state(states.ket("H"), states.ket("H"))
    psi = np.array([math.cos(theta), 0.0, math.sin(theta), 0.0])
    out = channels.rotate_arm(rho, theta, 0)
    assert np.abs(out - np.outer(psi, psi)).max() < 1e-15


def random_states(draw_seed, shape):
    rng = np.random.default_rng(draw_seed)
    g = rng.normal(size=shape + (4, 4)) + 1j * rng.normal(size=shape + (4, 4))
    rho = g @ g.conj().swapaxes(-2, -1)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


_ANGLE = st.floats(-1e3, 1e3)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t1=_ANGLE, t2=_ANGLE,
       bad=st.sampled_from([math.nan, math.inf, -math.inf]), arm=st.sampled_from([0, 1]))
def test_rotate_arm_matches_the_jones_oracle(seed, t1, t2, bad, arm):
    # complex states and angles up to 1e3 rad: each arm matches the Kronecker
    # product of the oracle, t1 then t2 is t1 + t2, the arms commute, and a
    # non-finite angle raises. The sum t1 + t2 rounds by up to half its ulp,
    # which moves a rotated state by at most one ulp of it.
    rho = random_states(seed, (3,))
    rotate = channels.rotate_arm
    assert np.abs(apply_local(rho, t1, t2) - oracle_rotation(rho, t1, t2)).max() < 1e-14
    assert (np.abs(rotate(rotate(rho, t1, arm), t2, arm) - rotate(rho, t1 + t2, arm)).max()
            < 1e-14 + math.ulp(t1 + t2))
    assert np.abs(apply_local(rho, t1, t2)
                  - rotate(rotate(rho, t2, 1), t1, 0)).max() < 1e-14
    with pytest.raises(ValueError, match="rotation angles must be finite"):
        rotate(rho, [t1, bad], arm)


def test_rotate_arm_broadcasts_angles_against_the_stack():
    # a (2, 1) stack of states and 5 angles give a (2, 5) stack, each member
    # the one-state call bit for bit
    rho = random_states(3, (2, 1))
    thetas = np.linspace(-1.0, 1.0, 5)
    out = channels.rotate_arm(rho, thetas, 1)
    assert out.shape == (2, 5, 4, 4)
    for k in range(2):
        for n, theta in enumerate(thetas):
            assert out[k, n].tobytes() == channels.rotate_arm(rho[k, 0], theta, 1).tobytes()


def test_rotate_arm_rejects_an_unknown_arm():
    with pytest.raises(ValueError, match="arm must be 0"):
        channels.rotate_arm(states.bell_state("psi_plus"), 0.1, 2)


def test_waveplates_unitary():
    # the oracle module's wave plates are unitary
    rng = np.random.default_rng(2)
    for angle in rng.uniform(-math.pi, math.pi, 20):
        for mat in (jones.hwp_matrix(angle), jones.qwp_matrix(angle)):
            assert np.abs(mat.conj().T @ mat - np.eye(2)).max() < 1e-12


def test_hwp_maps_d_to_h():
    out = jones.hwp_matrix(math.pi / 8) @ states.ket("D")
    assert abs(abs(np.vdot(states.ket("H"), out)) - 1.0) < 1e-12


def test_apply_local_singlet_invariance():
    rho = states.bell_state("psi_minus")
    for theta in (0.3, -1.2, 2.8):
        out = apply_local(rho, theta, theta)
        assert np.abs(out - rho).max() < 1e-12


@pytest.mark.parametrize("kind,sign", [("psi_plus", 1.0), ("psi_minus", -1.0)])
def test_apply_local_nonlocal_equivalence(kind, sign):
    # oracle: independent evaluation of the one-sided rotation
    rng = np.random.default_rng(4)
    rho = states.bell_state(kind)
    eye = np.eye(2, dtype=complex)
    for _ in range(100):
        ta, tb = rng.uniform(-math.pi, math.pi, 2)
        lhs = apply_local(rho, ta, tb)
        ueff = jones.rotation_unitary(ta + sign * tb)
        rhs = np.kron(ueff, eye) @ rho @ np.kron(ueff, eye).conj().T
        assert np.abs(lhs - rhs).max() < 1e-12


@pytest.mark.parametrize("theta, arm", [(math.nan, 0), ([0.1, math.inf], 1)])
def test_rotate_arm_rejects_non_finite_angles(theta, arm):
    with pytest.raises(ValueError, match="rotation angles must be finite"):
        channels.rotate_arm(states.bell_state("psi_plus"), theta, arm)


def test_offset_correct_examples():
    # offset correction now lives in sweeps._remove_offsets, keyed by source kind
    pbs_a, pbs_b, hwp = (math.radians(v) for v in (-4.75, 4.09, 5.47))
    cfg = ExperimentConfig(pbs_a=pbs_a, pbs_b=pbs_b, hwp=hwp)
    # offsets exactly cancel
    theta = sweeps._remove_offsets(cfg, "psi_plus", pbs_a + pbs_b)
    assert abs(theta) < 1e-15
    # no offsets: identity
    bare = ExperimentConfig(pbs_a=0.0, pbs_b=0.0, hwp=0.0)
    assert sweeps._remove_offsets(bare, "psi_minus", 0.7) == 0.7
    # the cancellation branch applies the wave-plate term
    theta = sweeps._remove_offsets(cfg, "psi_minus", 0.0)
    assert abs(theta - (-pbs_a + pbs_b - hwp)) < 1e-15


def test_offset_correct_affine_invertible():
    pbs_a, pbs_b, hwp = 0.1, -0.2, 0.05
    cfg = ExperimentConfig(pbs_a=pbs_a, pbs_b=pbs_b, hwp=hwp)
    rng = np.random.default_rng(8)
    for kind, forward in (("psi_plus", lambda t: t + pbs_a + pbs_b),
                          ("psi_minus", lambda t: t + pbs_a - pbs_b + hwp)):
        for theta in rng.uniform(-1.0, 1.0, 20):
            corrected = sweeps._remove_offsets(cfg, kind, forward(theta))
            assert abs(corrected - theta) < 1e-14


def test_apply_noise_limits():
    rho = states.bell_state("psi_plus")
    assert np.abs(channels.apply_noise(rho, 1.0) - rho).max() == 0.0
    mixed = channels.apply_noise(rho, 0.0)
    assert np.abs(mixed - states.maximally_mixed()).max() < 1e-15


def test_apply_noise_fidelity_target():
    # fidelity of the mixed state against the ideal one is p + (1 - p)/4;
    # solving for 0.984 gives p = (4 * 0.984 - 1)/3
    p = (4.0 * 0.984 - 1.0) / 3.0
    assert abs(p - 0.97867) < 5e-6
    rho = states.bell_state("psi_plus")
    mixed = channels.apply_noise(rho, p)
    assert abs(states.fidelity(mixed, rho) - 0.984) < 1e-10


def test_apply_noise_preserves_physicality():
    rho = states.bell_state("psi_minus")
    for p in np.linspace(0.0, 1.0, 11):
        out = channels.apply_noise(rho, float(p))
        states.validate_state(out)
        assert abs(np.trace(out).real - 1.0) < 1e-12


def test_noise_spec_validation():
    with pytest.raises(ValueError, match="visibility"):
        channels.apply_noise(states.bell_state("psi_plus"), 1.2)
    with pytest.raises(ValueError, match="accidental_fraction"):
        measure.Detection(1.0, 1.0, accidental_fraction=1.0)
