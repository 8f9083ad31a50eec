import numpy as np
import pytest

from polarot import channels, measure, states, tomography
from test_acceptance import werner


def psi_plus_ket():
    # (|HV> + |VH>)/sqrt(2), built from single-photon kets
    h, v = states.ket("H"), states.ket("V")
    return (np.kron(h, v) + np.kron(v, h)) / np.sqrt(2.0)


def random_ket(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def test_basis_kets_normalized_and_orthogonal():
    assert abs(np.vdot(states.ket("H"), states.ket("V"))) == 0.0
    for label in "HVDARL":
        k = states.ket(label)
        assert abs(np.vdot(k, k) - 1.0) < 1e-12
    assert abs(np.vdot(states.ket("D"), states.ket("A"))) < 1e-12
    assert abs(np.vdot(states.ket("R"), states.ket("L"))) < 1e-12


def test_circular_ket_convention():
    # |R> = (|H> - i|V>)/sqrt(2) and |L> = (|H> + i|V>)/sqrt(2)
    assert np.allclose(states.ket("R"), np.array([1.0, -1.0j]) / np.sqrt(2))
    assert np.allclose(states.ket("L"), np.array([1.0, 1.0j]) / np.sqrt(2))


def test_pauli_algebra():
    paulis = [states.PAULI_X, states.PAULI_Y, states.PAULI_Z]
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k], eps[j, i, k] = 1.0, -1.0
    for j in range(3):
        for k in range(3):
            expect = (j == k) * states.ID2 + 1j * sum(
                eps[j, k, l] * paulis[l] for l in range(3))
            assert np.abs(paulis[j] @ paulis[k] - expect).max() <= 1e-14


def test_pauli_properties():
    for sigma in (states.PAULI_X, states.PAULI_Y, states.PAULI_Z):
        assert np.allclose(sigma, sigma.conj().T)
        assert np.allclose(sigma @ sigma.conj().T, states.ID2)
        assert abs(np.trace(sigma)) == 0.0
        assert np.allclose(np.sort(np.linalg.eigvalsh(sigma)), [-1.0, 1.0])


def test_bell_state_entries():
    rho = states.bell_state("psi_plus")
    # (HH, HV, VH, VV) indices: HV = 1, VH = 2
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = expected[2, 2] = expected[1, 2] = expected[2, 1] = 0.5
    assert np.abs(rho - expected).max() < 1e-15

    rho = states.bell_state("psi_minus")
    expected[1, 2] = expected[2, 1] = -0.5
    assert np.abs(rho - expected).max() < 1e-15

    rho = states.bell_state("phi_plus")
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 3] = expected[0, 3] = expected[3, 0] = 0.5
    assert np.abs(rho - expected).max() < 1e-15


def test_bell_state_purity_and_validity():
    for kind in states.BELL_KINDS:
        rho = states.bell_state(kind)
        states.validate_state(rho)
        assert abs(states._purity(rho) - 1.0) < 1e-12


def test_bell_state_unknown_kind():
    with pytest.raises(ValueError, match="unknown Bell-state kind"):
        states.bell_state("psi")


def test_separable_state_examples():
    rho = states.separable_state(states.ket("H"), states.ket("V"))
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = 1.0
    assert np.abs(rho - expected).max() < 1e-15

    rho = states.separable_state(states.ket("D"), states.ket("D"))
    assert np.abs(rho - 0.25).max() < 1e-15

    # oracle: direct outer product of kron(R, H)
    psi = np.kron(states.ket("R"), states.ket("H"))
    oracle = np.outer(psi, psi.conj())
    rho = states.separable_state(states.ket("R"), states.ket("H"))
    assert np.abs(rho - oracle).max() < 1e-15
    assert abs(rho[0, 0] - 0.5) < 1e-15
    assert abs(rho[2, 2] - 0.5) < 1e-15
    assert abs(rho[0, 2] - 0.5j) < 1e-15


def test_separable_state_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        states.separable_state(np.array([1.0, 1.0]), states.ket("H"))


def test_separable_state_rejects_a_ket_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"must have shape \(2,\), got \(4,\)"):
        states.separable_state(states.ket("H"), np.full(4, 0.5))


def test_fidelity_identity_and_orthogonal():
    rho = states.bell_state("psi_plus")
    sigma = states.bell_state("psi_minus")
    assert abs(states.fidelity(rho, rho) - 1.0) < 1e-12
    assert states.fidelity(rho, sigma) < 1e-12


def test_fidelity_pure_vs_maximally_mixed():
    # oracle for a pure state: F(|psi><psi|, sigma) = <psi|sigma|psi> = 1/4
    psi = psi_plus_ket()
    oracle = float((psi.conj() @ states.maximally_mixed() @ psi).real)
    assert abs(oracle - 0.25) < 1e-15
    f = states.fidelity(states.bell_state("psi_plus"), states.maximally_mixed())
    assert abs(f - oracle) < 1e-10


def test_fidelity_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        g2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g1 @ g1.conj().T
        rho /= np.trace(rho).real
        sigma = g2 @ g2.conj().T
        sigma /= np.trace(sigma).real
        assert abs(states.fidelity(rho, sigma) - states.fidelity(sigma, rho)) < 1e-9


def test_fidelity_rejects_nonphysical():
    bad = np.diag([0.7, 0.5, 0.0, -0.2]).astype(complex)
    with pytest.raises(ValueError, match="positive semidefinite"):
        states.fidelity(bad, states.maximally_mixed())


GOOD = states.maximally_mixed()
COUNTS = np.full(16, 100.0)

# every public function that takes a density matrix, with the state under
# test in one of its state arguments
DOORS = {
    "outcome_probabilities": lambda rho: measure.outcome_probabilities(
        rho, measure.projector_tensor([measure.NAMED_PAIRS[0]]))[..., 0, :],
    "exact_observables": lambda rho: measure.exact_observables(rho),
    "simulate_counts": lambda rho: measure.simulate_counts(
        rho, measure.NAMED_PAIRS, measure.Detection(1e3, 1.0)),
    "exact_table": lambda rho: measure.exact_table(
        rho, measure.NAMED_PAIRS, measure.Detection(1e3, 1.0)),
    "apply_noise": lambda rho: channels.apply_noise(rho, 0.5),
    "predicted_counts": lambda rho: tomography.predicted_counts(rho),
    "bootstrap_sigmas-rho_hat": lambda rho:
        tomography.bootstrap_sigmas(rho, COUNTS, GOOD, n_resamples=2),
    "bootstrap_sigmas-reference": lambda rho:
        tomography.bootstrap_sigmas(GOOD, COUNTS, rho, n_resamples=2),
    "fidelity-rho": lambda rho: states.fidelity(rho, GOOD),
    "fidelity-sigma": lambda rho: states.fidelity(GOOD, rho),
}


@pytest.mark.parametrize("door", sorted(DOORS))
def test_every_public_door_rejects_an_unphysical_state(door):
    # the package's own pipelines skip the check on the states they build,
    # so each public function must still make it on the states it is given
    DOORS[door](GOOD)
    bad = np.diag([0.7, 0.5, 0.0, -0.2]).astype(complex)
    with pytest.raises(ValueError, match=r"density matrix not positive "
                                         r"semidefinite: min eigenvalue = -0\.2$"):
        DOORS[door](bad)


def test_concurrence_bell_and_separable():
    for kind in states.BELL_KINDS:
        assert abs(states._concurrence(states.bell_state(kind)) - 1.0) < 1e-10
    rng = np.random.default_rng(7)
    for _ in range(50):
        rho = states.separable_state(random_ket(rng), random_ket(rng))
        assert states._concurrence(rho) < 1e-8


def test_concurrence_werner_closed_form():
    # closed form max(0, (3p - 1)/2) at p = 0.5 gives 0.25
    rho = werner(0.5, "psi_minus")
    assert abs(states._concurrence(rho) - 0.25) < 1e-10
    assert states._concurrence(werner(1.0 / 3.0, "psi_minus")) < 1e-10


def test_cosine_similarity_examples():
    rho = states.bell_state("psi_plus")
    assert abs(states.cosine_similarity(rho, rho) - 1.0) < 1e-12
    # orthogonal projectors have zero trace inner product
    assert abs(states.cosine_similarity(rho, states.bell_state("psi_minus"))) < 1e-12
    # Tr(phi+ I/4) = 1/4, norms 1 and 1/2
    sim = states.cosine_similarity(states.bell_state("phi_plus"),
                                   states.maximally_mixed())
    assert abs(sim - 0.5) < 1e-12


def test_cosine_similarity_rejects_zero():
    with pytest.raises(ValueError, match="zero matrix"):
        states.cosine_similarity(np.zeros((4, 4)), states.maximally_mixed())


def test_purity_examples():
    assert abs(states._purity(states.bell_state("phi_minus")) - 1.0) < 1e-12
    assert abs(states._purity(states.maximally_mixed()) - 0.25) < 1e-12
    # oracle: direct trace of rho @ rho
    rho = werner(0.5)
    oracle = float(np.trace(rho @ rho).real)
    assert abs(oracle - 0.4375) < 1e-12
    assert abs(states._purity(rho) - 0.4375) < 1e-12


def test_metrics_invariant_under_global_phase():
    rng = np.random.default_rng(3)
    psi = psi_plus_ket()
    phased = np.exp(1j * rng.uniform(0, 2 * np.pi)) * psi
    rho = states.ket_to_dm(psi)
    rho_p = states.ket_to_dm(phased)
    sigma = werner(0.9)
    assert abs(states.fidelity(rho, sigma) - states.fidelity(rho_p, sigma)) < 1e-12
    assert abs(states._concurrence(rho) - states._concurrence(rho_p)) < 1e-12
    assert abs(states._purity(rho) - states._purity(rho_p)) < 1e-12
    assert abs(states.cosine_similarity(rho, sigma)
               - states.cosine_similarity(rho_p, sigma)) < 1e-12


def test_validate_state_rejections():
    herm = states.maximally_mixed().copy()
    herm[0, 1] = 0.1
    with pytest.raises(ValueError, match="Hermitian"):
        states.validate_state(herm)
    with pytest.raises(ValueError, match="trace"):
        states.validate_state(2.0 * states.maximally_mixed())
    with pytest.raises(ValueError, match="positive semidefinite"):
        states.validate_state(np.diag([0.7, 0.5, 0.0, -0.2]).astype(complex))
    with pytest.raises(ValueError, match="shape"):
        states.validate_state(np.eye(2) / 2)
    one_nan = states.maximally_mixed()
    one_nan[2, 2] = np.nan  # every comparison with nan is false
    with pytest.raises(ValueError, match="non-finite"):
        states.validate_state(one_nan)
    # a stack is checked in one pass and the message names the bad member
    stack = np.array([werner(p) for p in (0.0, 0.5, 1.0, 0.3)])
    assert states.validate_state(stack).shape == (4, 4, 4)
    for idx, bad, match in ((2, herm, "Hermitian"),
                            (3, 2.0 * states.maximally_mixed(), "trace"),
                            (1, np.diag([0.7, 0.5, 0.0, -0.2]), "positive semidefinite")):
        broken = stack.copy()
        broken[idx] = bad
        with pytest.raises(ValueError, match=rf"stack index \({idx},\) .*{match}"):
            states.validate_state(broken)
        with pytest.raises(ValueError, match=rf"stack index \(1, {idx}\) .*{match}"):
            states.validate_state(np.array([stack, broken]))


def test_state_file_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    path = tmp_path / "state.txt"
    states.save_state(path, rho)
    # the format is plain text that numpy reads back
    assert np.abs(np.loadtxt(path).view(complex).reshape(4, 4) - rho).max() < 1e-15
