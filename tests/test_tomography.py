import hashlib
import math

import numpy as np
import pytest

import jones
from blas_core import pin_note
from polarot import states, tomography
from test_acceptance import likelihood_gradient_lambda_max, rotate_locally, werner


def random_state(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def werner_ideal():
    return werner((4.0 * 0.984 - 1.0) / 3.0, "psi_plus")


def criterion_5b_counts(trial):
    nbar = tomography.predicted_counts(werner(0.97867), flux_norm=4e4)
    return np.random.default_rng([5, trial]).poisson(nbar).astype(float)


# pure-state counts (Werner p = 1, 1e4 per basis) whose likelihood optimum
# has a small |VV> component. With the last row of T at zero the state has
# none, and that row's gradient vanishes: a saddle, where the earlier BFGS
# fit stopped (KKT gap 1.22e-5 per count, log-likelihood 1358986.6950783208)
PURE_SHORT_OF_OPTIMUM = np.array([0, 19965, 10000, 10159, 19979, 0, 9901, 10188,
                                  10097, 10153, 9932, 0, 9897, 10127, 20112, 9892],
                                 dtype=float)


def test_basis_set_structure():
    labels, kets = tomography.BASIS_LABELS, tomography.KETS
    assert len(labels) == 16 and kets.shape == (16, 4)
    assert labels[0] == ("H", "H")
    proj = np.outer(kets[0], kets[0].conj())
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    assert np.abs(proj - expected).max() < 1e-15
    # arm-A labels cycle through H, V, R, D in blocks of four
    assert [lbl[0] for lbl in labels] == ["H"] * 4 + ["V"] * 4 + ["R"] * 4 + ["D"] * 4
    assert [lbl[1] for lbl in labels[:4]] == ["H", "V", "D", "L"]
    assert [lbl[1] for lbl in labels[12:]] == ["H", "V", "D", "R"]


def test_design_matrix_rank_and_condition():
    design = tomography.DESIGN
    assert np.linalg.matrix_rank(design) == 16
    cond = np.linalg.cond(design)
    assert abs(cond - 9.75) < 0.01


def test_predicted_counts_examples():
    rho_hh = states.separable_state(states.ket("H"), states.ket("H"))
    counts = tomography.predicted_counts(rho_hh, flux_norm=1000.0)
    assert abs(counts[0] - 1000.0) < 1e-9          # (H, H) projector
    assert abs(counts[1]) < 1e-9                   # (V, V)-type row is dark
    counts = tomography.predicted_counts(states.maximally_mixed(), 1000.0)
    assert np.abs(counts - 250.0).max() < 1e-9


def test_predicted_counts_validation():
    with pytest.raises(ValueError, match="flux_norm"):
        tomography.predicted_counts(states.maximally_mixed(), flux_norm=0.0)


def test_linear_inversion_exact_round_trip():
    rng = np.random.default_rng(10)
    for _ in range(20):
        rho = random_state(rng)
        counts = tomography.predicted_counts(rho, flux_norm=1.0)
        assert np.abs(tomography.linear_inversion(counts) - rho).max() < 1e-10
    counts = tomography.predicted_counts(states.maximally_mixed(), flux_norm=123.0)
    assert np.abs(tomography.linear_inversion(counts)
                  - states.maximally_mixed()).max() < 1e-12


def test_linear_inversion_goes_unphysical_on_noise():
    # Poisson noise at modest statistics pushes the plain inversion off the
    # physical set; this is what motivates the likelihood reconstruction
    nbar = tomography.predicted_counts(states.bell_state("psi_plus"), flux_norm=1e3)
    negatives = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rho = tomography.linear_inversion(rng.poisson(nbar).astype(float))
        if np.linalg.eigvalsh(rho).min() < 0:
            negatives += 1
    assert negatives >= 1


def test_linear_inversion_validation():
    with pytest.raises(ValueError, match="16 counts"):
        tomography.linear_inversion(np.ones(4))
    with pytest.raises(ValueError, match="positive total"):
        tomography.linear_inversion(np.zeros(16))
    # the H/V x H/V counts carry the trace; without them there is no state
    counts = np.ones(16)
    counts[[0, 1, 4, 5]] = 0.0
    with pytest.raises(ValueError, match="HH, HV, VH and VV counts"):
        tomography.linear_inversion(counts)


def test_mle_exact_bell():
    counts = tomography.predicted_counts(states.bell_state("psi_plus"), flux_norm=1e6)
    result = tomography.mle_reconstruct(counts)
    assert result.converged
    assert states.fidelity(result.rho, states.bell_state("psi_plus")) >= 0.9999
    states.validate_state(result.rho)


def test_mle_exact_random_states():
    rng = np.random.default_rng(20)
    for _ in range(5):
        rho = random_state(rng)
        counts = tomography.predicted_counts(rho, flux_norm=1e6)
        result = tomography.mle_reconstruct(counts)
        assert states.fidelity(result.rho, rho) >= 0.9999


def test_mle_output_always_physical():
    rng = np.random.default_rng(21)
    for _ in range(10):
        counts = rng.integers(0, 500, size=16).astype(float)
        result = tomography.mle_reconstruct(counts)
        states.validate_state(result.rho)


def test_mle_degenerate_hh_counts():
    # zero rows are informative, not errors
    rho_hh = states.separable_state(states.ket("H"), states.ket("H"))
    counts = tomography.predicted_counts(rho_hh, flux_norm=1e5)
    result = tomography.mle_reconstruct(counts)
    assert states.fidelity(result.rho, rho_hh) >= 0.9999


@pytest.mark.parametrize("counts, loglik_floor", [
    (criterion_5b_counts(0), -np.inf),
    # rank-deficient optima where BFGS ended at parameter gradient just
    # above 1e-8
    (criterion_5b_counts(353), -np.inf),
    (criterion_5b_counts(519), -np.inf),
    (PURE_SHORT_OF_OPTIMUM, 1358986.6950783208),
], ids=["5b-0", "5b-353", "5b-519", "pure-short"])
def test_mle_converged_iff_kkt_gap_within_tolerance(counts, loglik_floor):
    result = tomography.mle_reconstruct(counts)
    reference = likelihood_gradient_lambda_max(result.rho, counts, tomography.KETS)
    assert abs(result.kkt_gap - reference) <= 1e-12 * abs(reference)
    assert result.converged is (result.kkt_gap <= tomography.KKT_TOL)
    assert result.converged
    assert result.kkt_gap <= 1e-8
    assert result.log_likelihood >= loglik_floor


# parameters of T with a nonzero entry in its last row
LAST_ROW = np.abs(tomography._FACTOR_BASIS[:, 3, :]).sum(axis=1) > 0


def saddle_start(counts):
    """The fit's own start with the last row of T set to zero."""
    start = tomography._t_from_rho(tomography.linear_inversion(counts))
    start[LAST_ROW] = 0.0
    return start


def fit_from_saddle(counts, start):
    """mle_reconstruct with its first start replaced by `start`; returns
    the result and every state the fit started from."""
    starts, t_from_rho = [], tomography._t_from_rho

    def start_first_on_the_saddle(rho):
        starts.append(rho)
        return start.copy() if len(starts) == 1 else t_from_rho(rho)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tomography, "_t_from_rho", start_first_on_the_saddle)
        return tomography.mle_reconstruct(counts), starts


def test_escape_leaves_a_saddle():
    counts = PURE_SHORT_OF_OPTIMUM
    quad, w = tomography._QUAD[counts > 0], counts[counts > 0] / counts.sum()
    start = saddle_start(counts)

    def loglik(rho):
        p = tomography.predicted_counts(rho)
        nbar = counts.sum() / p.sum() * p
        return counts[counts > 0] @ np.log(nbar[counts > 0]) - nbar.sum()

    # the ascent alone keeps the last row at zero (up to rounding) and
    # stops on the saddle, where BFGS stopped
    saddle, _ = tomography._ascend(start, quad, w, 5000)
    assert np.abs(saddle[LAST_ROW]).max() < 1e-15
    rho = tomography._rho_from_t(saddle)
    gap = likelihood_gradient_lambda_max(rho, counts, tomography.KETS)
    assert abs(gap - 1.224e-5) < 0.001e-5
    assert abs(loglik(rho) - 1358986.6950783208) < 1e-6

    # started there, the fit escapes and reaches the ordinary fit's optimum
    optimum = tomography.mle_reconstruct(counts)
    escaped, starts = fit_from_saddle(counts, start)
    assert len(starts) == 2
    assert escaped.kkt_gap <= 1e-10
    assert escaped.log_likelihood - loglik(rho) > 0.6
    assert escaped.log_likelihood >= optimum.log_likelihood - 1e-9
    assert 0.5 * np.abs(np.linalg.eigvalsh(escaped.rho - optimum.rho)).sum() < 1e-7


def pinned_fits() -> list:
    """The fits the two pins below hold: without escape, criterion 5b
    trials 0..39, a counts vector with zeros and the pure-state saddle
    case; with it, the saddle case from the saddle start above."""
    with_zeros = np.random.default_rng(8).poisson(tomography.predicted_counts(
        states.separable_state(states.ket("H"), states.ket("H")), 1e3)).astype(float)
    results = [tomography.mle_reconstruct(counts) for counts in
               [criterion_5b_counts(trial) for trial in range(40)]
               + [PURE_SHORT_OF_OPTIMUM, with_zeros]]
    escaped, starts = fit_from_saddle(PURE_SHORT_OF_OPTIMUM,
                                      saddle_start(PURE_SHORT_OF_OPTIMUM))
    assert len(starts) == 2 and (with_zeros == 0).sum() == 7
    return results + [escaped]


# the step total and the sha256 of `fit_steps_digest`'s text
FIT_STEPS = 467
FIT_STEPS_DIGEST = "4fa513f9e704c9f98754c36338234f205805eb0e2f782261d653c78497b2f74f"


def fit_steps_digest() -> tuple:
    """The step total of the pinned fits and a sha256 of each one's step
    count, verdict and log-likelihood at six decimals. The ascent stops at
    the round-off of f, so these are the same on every BLAS core and numpy
    SIMD level (test_golden runs them under others)."""
    results = pinned_fits()
    text = " ".join(f"{result.n_iter} {result.converged} {result.log_likelihood:.6f}"
                    for result in results)
    return (sum(result.n_iter for result in results),
            hashlib.sha256(text.encode()).hexdigest())


def test_fit_steps_are_pinned():
    assert fit_steps_digest() == (FIT_STEPS, FIT_STEPS_DIGEST), pin_note()


def test_fits_are_pinned_bit_for_bit():
    # every bit of every state, log-likelihood and KKT gap; the digest is of
    # this platform's numpy/LAPACK, and the last bits follow the BLAS core
    # and numpy's SIMD level, so a speed change to the solver must leave it
    # as it is or declare the change
    digest = hashlib.sha256()
    for result in pinned_fits():
        digest.update(result.rho.tobytes())
        digest.update(np.array([result.log_likelihood, result.kkt_gap]).tobytes())
    assert digest.hexdigest() == ("1719287e6c06eb9a4cdf789d21e54ef8"
                                  "14d74f7e52c98190d17a1d201925689d"), pin_note()


def test_mle_gradient_matches_finite_differences():
    # the gradient against central differences of f (from `_gain`), the
    # Hessian against central differences of the gradient, and `_gain`
    # against f evaluated directly from the state
    rng = np.random.default_rng(23)
    nbar = tomography.predicted_counts(werner_ideal(), flux_norm=4e4)
    counts = rng.poisson(nbar).astype(float)
    quad, w = tomography._QUAD, counts / counts.sum()

    def f(t):
        m = np.einsum("j,jab->ab", t, tomography._FACTOR_BASIS)
        q = np.einsum("ki,ij,kj->k", tomography.KETS.conj(), m.conj().T @ m,
                      tomography.KETS).real
        return w @ np.log(q) - np.log(q.sum())

    worst_grad = worst_hess = worst_gain = 0.0
    for _ in range(20):
        t = rng.normal(size=16)
        t[:4] = np.abs(t[:4]) + 0.3
        grad, hess, q, qs = tomography._grad_hess(t, quad, w)
        fd_grad, fd_hess = np.empty(16), np.empty((16, 16))
        h = 1e-6
        for j in range(16):
            step = np.zeros(16)
            step[j] = h
            fd_grad[j] = (tomography._gain(t, step, quad, w, q, qs)
                          - tomography._gain(t, -step, quad, w, q, qs)) / (2.0 * h)
            fd_hess[j] = (tomography._grad_hess(t + step, quad, w)[0]
                          - tomography._grad_hess(t - step, quad, w)[0]) / (2.0 * h)
        worst_grad = max(worst_grad, np.abs(grad - fd_grad).max()
                         / max(1.0, np.abs(grad).max()))
        worst_hess = max(worst_hess, np.abs(hess - fd_hess).max()
                         / max(1.0, np.abs(hess).max()))
        step = 0.1 * rng.normal(size=16)
        worst_gain = max(worst_gain, abs(tomography._gain(t, step, quad, w, q, qs)
                                         - (f(t + step) - f(t))))
    assert worst_grad < 1e-6
    assert worst_hess < 1e-6
    assert worst_gain < 1e-12


def test_mle_agrees_with_linear_inversion_when_physical():
    rng = np.random.default_rng(24)
    for _ in range(5):
        rho = random_state(rng)
        counts = tomography.predicted_counts(rho, flux_norm=1e6)
        lin = tomography.linear_inversion(counts)
        if np.linalg.eigvalsh(lin).min() <= 0:
            continue
        mle = tomography.mle_reconstruct(counts).rho
        dist = 0.5 * np.abs(np.linalg.eigvalsh(lin - mle)).sum()
        assert dist < 1e-6


def test_mle_row_permutation_invariance(tmp_path):
    rng = np.random.default_rng(25)
    nbar = tomography.predicted_counts(werner_ideal(), flux_norm=1e4)
    counts = rng.poisson(nbar).astype(float)
    rho_1 = tomography.mle_reconstruct(counts).rho

    path = tmp_path / "tomo.csv"
    tomography.write_tomo_counts(path, counts)
    lines = path.read_text().splitlines()
    header, rows = lines[0], lines[1:]
    perm = rng.permutation(len(rows))
    path.write_text("\n".join([header] + [rows[i] for i in perm]) + "\n")
    loaded, _ = tomography.read_tomo_counts(path)
    rho_2 = tomography.mle_reconstruct(loaded).rho
    dist = 0.5 * np.abs(np.linalg.eigvalsh(rho_1 - rho_2)).sum()
    assert dist < 1e-7


def test_mle_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        tomography.mle_reconstruct(np.full(16, -1.0))
    with pytest.raises(ValueError, match="positive"):
        tomography.mle_reconstruct(np.zeros(16))


def test_mle_werner_noisy_smoke():
    # statistical behaviour at the calibration statistics; the full
    # 100-trial acceptance run lives in test_acceptance
    rho = werner_ideal()
    nbar = tomography.predicted_counts(rho, flux_norm=4e4)
    fids = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        result = tomography.mle_reconstruct(rng.poisson(nbar).astype(float))
        fids.append(states.fidelity(result.rho, rho))
    assert min(fids) > 0.97
    assert float(np.median(fids)) > 0.985


def test_reconstruction_report_identity():
    rho = werner_ideal()
    report = tomography._report(rho, rho)
    assert abs(report["fidelity"] - 1.0) < 1e-9
    assert abs(report["cosine_similarity"] - 1.0) < 1e-12
    assert abs(report["purity"] - states._purity(rho)) < 1e-12
    assert abs(report["concurrence"] - states._concurrence(rho)) < 1e-12


def test_reconstruction_report_werner_vs_bell():
    report = tomography._report(werner_ideal(), states.bell_state("psi_plus"))
    assert abs(report["fidelity"] - 0.984) < 1e-9


def test_reconstruction_report_rotated_cosine_similarity():
    # oracle: direct trace inner product of the rotated and unrotated states
    theta = np.radians(20.08)
    rho = states.bell_state("psi_plus")
    rotated = rotate_locally(rho, jones.rotation_unitary(theta),
                             np.eye(2, dtype=complex))
    oracle = float(np.trace(rotated.conj().T @ rho).real)
    report = tomography._report(rotated, rho)
    assert abs(report["cosine_similarity"] - oracle) < 1e-12
    assert report["cosine_similarity"] < 0.9


def test_bootstrap_sigmas_deterministic():
    rng = np.random.default_rng(30)
    rho = werner_ideal()
    counts = rng.poisson(tomography.predicted_counts(rho, flux_norm=1e4)).astype(float)
    rho_hat = tomography.mle_reconstruct(counts).rho
    ref = states.bell_state("psi_plus")
    s1 = tomography.bootstrap_sigmas(rho_hat, counts, ref, n_resamples=8, seed=5)
    s2 = tomography.bootstrap_sigmas(rho_hat, counts, ref, n_resamples=8, seed=5)
    assert s1 == s2
    assert set(s1) == {"fidelity", "concurrence", "purity", "cosine_similarity"}
    assert all(v >= 0.0 for v in s1.values())
    assert s1["fidelity"] < 0.05


def test_bootstrap_sigmas_needs_two_resamples():
    # one resample has no spread: np.std(ddof=1) of it is nan
    rho = werner_ideal()
    counts = tomography.predicted_counts(rho, flux_norm=1e4)
    for n_resamples in (1, 0):
        with pytest.raises(ValueError, match="at least 2"):
            tomography.bootstrap_sigmas(rho, counts, rho, n_resamples=n_resamples)



def test_bootstrap_sigmas_match_the_spread_over_count_draws():
    # The mean bootstrap variance of each metric, over K draws of the counts
    # with R resamples each, against the sample variance of the metric over
    # M independent draws. For normal metrics the two have relative sds
    # sqrt(2 / (K (R - 1))) and sqrt(2 / (M - 1)), and their ratio is
    # bounded at 4 sds of its own. Werner p = 0.9 at 1e4 counts per basis is
    # interior, so almost every fit takes no Newton step. The reference is
    # psi_minus: against psi_plus, its own Bell state, the cosine similarity
    # sits close to a stationary point, where a plug-in bootstrap overstates
    # the spread (by about 20 % in sd here; ROADMAP, direction 4), so that
    # case would test the estimator's bias, not the bootstrap.
    draws_m, datasets_k, resamples_r = 1601, 100, 17
    rho, reference = werner(0.9), states.bell_state("psi_minus")
    nbar = tomography.predicted_counts(rho, flux_norm=4e4)
    draws = [np.random.default_rng([13, i]).poisson(nbar).astype(float)
             for i in range(draws_m)]
    fits = [tomography.mle_reconstruct(counts) for counts in draws]
    assert sum(fit.n_iter > 0 for fit in fits) < 0.01 * draws_m
    reports = [tomography._report(fit.rho, reference) for fit in fits]
    boots = [tomography.bootstrap_sigmas(fit.rho, counts, reference,
                                         n_resamples=resamples_r, seed=i)
             for i, (fit, counts) in enumerate(zip(fits[:datasets_k], draws))]
    bound = 4.0 * math.sqrt(2.0 / (datasets_k * (resamples_r - 1))
                            + 2.0 / (draws_m - 1))
    for key in reports[0]:
        variance = np.var([report[key] for report in reports], ddof=1)
        ratio = np.mean([boot[key] ** 2 for boot in boots]) / variance
        assert abs(ratio - 1.0) < bound, (key, ratio, bound)


def test_tomo_counts_file_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    counts = rng.integers(0, 1000, 16).astype(float)
    path = tmp_path / "counts.csv"
    tomography.write_tomo_counts(path, counts, metadata={"rng_seed": 31})
    loaded, metadata = tomography.read_tomo_counts(path)
    assert np.array_equal(loaded, counts)
    assert metadata["rng_seed"] == "31"


def test_write_tomo_counts_rejects_a_wrong_count(tmp_path):
    path = tmp_path / "counts.csv"
    with pytest.raises(ValueError, match=r"^expected 16 counts, got shape \(15,\)$"):
        tomography.write_tomo_counts(path, np.ones(15))
    assert not path.exists()


def test_tomo_counts_file_missing_row(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("basis_label_a,basis_label_b,count\nH,H,10\n")
    with pytest.raises(ValueError, match="missing basis rows"):
        tomography.read_tomo_counts(path)
