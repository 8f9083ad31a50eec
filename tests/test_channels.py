import math

import numpy as np
import pytest

from polarot import channels, measure, states, sweeps
from polarot.config import ExperimentConfig


def test_rotation_unitary_special_values():
    assert np.abs(channels.rotation_unitary(0.0) - np.eye(2)).max() == 0.0
    quarter = channels.rotation_unitary(math.pi / 2)
    assert np.abs(quarter - np.array([[0, -1], [1, 0]])).max() < 1e-15
    assert np.allclose(quarter @ states.ket("H"), states.ket("V"))


def test_rotation_unitary_rotates_h_toward_v():
    theta = math.radians(20.08)
    out = channels.rotation_unitary(theta) @ states.ket("H")
    assert abs(out[0] - math.cos(theta)) < 1e-15
    assert abs(out[1] - math.sin(theta)) < 1e-15


def test_rotation_unitary_is_special_unitary():
    rng = np.random.default_rng(0)
    for theta in rng.uniform(-2 * math.pi, 2 * math.pi, 50):
        u = channels.rotation_unitary(theta)
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12
        assert abs(np.linalg.det(u) - 1.0) < 1e-12


def test_rotation_group_property():
    rng = np.random.default_rng(1)
    for _ in range(100):
        t1, t2 = rng.uniform(-math.pi, math.pi, 2)
        lhs = channels.rotation_unitary(t1) @ channels.rotation_unitary(t2)
        rhs = channels.rotation_unitary(t1 + t2)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_rotation_unitary_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        channels.rotation_unitary(math.nan)


def test_waveplates_unitary():
    rng = np.random.default_rng(2)
    for angle in rng.uniform(-math.pi, math.pi, 20):
        for mat in (channels.hwp_matrix(angle), channels.qwp_matrix(angle)):
            assert np.abs(mat.conj().T @ mat - np.eye(2)).max() < 1e-12


def test_hwp_maps_d_to_h():
    out = channels.hwp_matrix(math.pi / 8) @ states.ket("D")
    assert abs(abs(np.vdot(states.ket("H"), out)) - 1.0) < 1e-12


def apply_local(rho, theta_a, theta_b):
    """The local rotations of channels.local_rotations applied to rho."""
    u = channels.local_rotations(theta_a, theta_b)
    return u @ rho @ u.conj().swapaxes(-2, -1)


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
        ueff = channels.rotation_unitary(ta + sign * tb)
        rhs = np.kron(ueff, eye) @ rho @ np.kron(ueff, eye).conj().T
        assert np.abs(lhs - rhs).max() < 1e-12


@pytest.mark.parametrize("theta_a, theta_b", [(math.nan, 0.0), (0.0, [0.1, math.inf])])
def test_local_rotations_rejects_non_finite_angles(theta_a, theta_b):
    with pytest.raises(ValueError, match="rotation angles must be finite"):
        channels.local_rotations(theta_a, theta_b)


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
