import math
import warnings

import numpy as np
import pytest

from polarot import metrology


def test_probe_state_normalized():
    for n in (1, 2, 5, 40):
        for theta in (0.0, 0.3, -2.0):
            psi = metrology.probe_state(n, theta)
            assert abs(np.vdot(psi, psi).real - 1.0) < 1e-12


def test_probe_state_derivative_matches_finite_differences():
    # independent oracle: central differences of the state coordinates
    h = 1e-6
    for n in (1, 3, 8):
        for theta in (0.0, 0.7):
            fd = (metrology.probe_state(n, theta + h)
                  - metrology.probe_state(n, theta - h)) / (2.0 * h)
            exact = metrology.probe_state_derivative(n, theta)
            assert np.abs(fd - exact).max() < 1e-6 * n * n


def test_qfi_closed_form():
    assert abs(metrology.qfi(1) - 4.0) < 1e-12
    assert abs(metrology.qfi(3) - 36.0) < 1e-12
    for n in range(1, 9):
        for theta in (0.0, 0.4, -1.3):
            assert abs(metrology.qfi(n, theta) - 4.0 * n * n) < 1e-10


def test_qfi_rejects_bad_n():
    with pytest.raises(ValueError, match=">= 1"):
        metrology.qfi(0)
    with pytest.raises(ValueError, match=">= 1"):
        metrology.probe_state(-1, 0.0)


def test_probe_state_derivative_rejects_bad_n():
    # qfi calls probe_state first, so no command reaches this guard
    with pytest.raises(ValueError, match="^photon number must be >= 1, got 0$"):
        metrology.probe_state_derivative(0, 0.0)


def test_variance_scaling_deterministic():
    r1 = metrology.variance_scaling([1, 4], trials=50, seed=9)
    r2 = metrology.variance_scaling([1, 4], trials=50, seed=9)
    assert r1 == r2
    assert all(type(v) is float for v in r1)
    r3 = metrology.variance_scaling([1, 4], trials=50, seed=10)
    assert r1 != r3


def test_variance_scaling_slope_and_dominance():
    n_values = [1, 2, 4, 8, 16]
    variances = metrology.variance_scaling(n_values, trials=10000, seed=0)
    slope = np.polyfit(np.log(n_values), np.log(variances), 1)[0]
    assert abs(slope - (-1.0)) < 0.1
    for n, var_sim in zip(n_values, variances):
        assert 1.0 / (4.0 * n * n) <= var_sim


def test_variance_scaling_validation(monkeypatch):
    with pytest.raises(ValueError, match="at least 2"):
        metrology.variance_scaling([1], trials=0, seed=0)
    with pytest.raises(ValueError, match="at least 2"):
        metrology.variance_scaling([1], trials=1, seed=0)
    with pytest.raises(ValueError, match=">= 1"):
        metrology.variance_scaling([0], trials=10, seed=0)
    # the whole list is checked before row 1 draws anything
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(ValueError, match=">= 1"):
        metrology.variance_scaling([1, 0], trials=10, seed=0)


def test_separable_estimator_consistency():
    # with generous statistics (2048 = 64 x 32 photons a trial) the
    # estimator concentrates on the true angle
    theta = math.pi / 6
    variances = metrology.variance_scaling([2048], trials=400, seed=4, theta=theta)
    assert variances[0] < 1e-3


def exact_separable_variance(n, theta):
    """Variance of the separable estimator by enumerating both binomials,
    with the simulator's arithmetic so that signed zeros take the same
    atan2 branch."""
    n_z = (n + 1) // 2
    n_x = n - n_z
    p_z = 0.5 * (1.0 - math.cos(2.0 * theta))
    p_x = 0.5 * (1.0 - math.sin(2.0 * theta))
    mean = second = 0.0
    for k_z in range(n_z + 1):
        w_z = math.comb(n_z, k_z) * p_z ** k_z * (1.0 - p_z) ** (n_z - k_z)
        m_z = 2.0 * k_z / n_z - 1.0
        for k_x in range(n_x + 1):
            w_x = math.comb(n_x, k_x) * p_x ** k_x * (1.0 - p_x) ** (n_x - k_x)
            m_x = 2.0 * k_x / n_x - 1.0 if n_x > 0 else 0.0
            est = 0.5 * math.atan2(-m_x, -m_z)
            mean += w_z * w_x * est
            second += w_z * w_x * est * est
    return second - mean * mean


@pytest.mark.parametrize("theta_deg", [10.0, 25.0, 40.0])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_variance_scaling_matches_exact_variance(n, theta_deg):
    # n = 1 has no x-basis photon; at n = 4 and 8 both <z> and <x> can read 0,
    # and atan2(-0.0, -0.0) = -pi: the other branch moves the mean by 3.6 to
    # 90 standard errors at these angles
    theta = math.radians(theta_deg)
    trials, n_seeds = 1000, 200
    variances = np.array([
        metrology.variance_scaling([n], trials=trials, seed=seed, theta=theta)[0]
        for seed in range(n_seeds)])
    # the population variance over `trials` has this expectation
    expected = exact_separable_variance(n, theta) * (trials - 1) / trials
    z = (variances.mean() - expected) / (variances.std(ddof=1) / math.sqrt(n_seeds))
    assert abs(z) < 4.0


def test_variance_scaling_rows_do_not_depend_on_other_rows():
    # n = 4 has 9 outcome cells and n = 1000 has 251,001: at 200 trials the
    # first draws its table and the second its trials
    alone = metrology.variance_scaling([4], trials=200, seed=5)
    among = metrology.variance_scaling([1, 4, 8, 1000], trials=200, seed=5)
    assert alone[0] == among[1]
    assert metrology.variance_scaling([1000], trials=200, seed=5)[0] == among[3]


def cells(n):
    """The outcome cells (k_z, k_x) of the separable estimator at n photons."""
    n_z = (n + 1) // 2
    return (n_z + 1) * (n - n_z + 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
def test_variance_scaling_mean_on_both_sides_of_the_table_rule(n):
    # the table, one multinomial a row, replaced 2 x trials binomials when
    # there are no more cells than trials; both sides keep the enumerated
    # expectation (n = 1, 2 cells, has no trial count below its table)
    theta, n_seeds = math.pi / 6, 2000
    for trials in sorted({max(2, cells(n) - 1), cells(n), 1000}):
        variances = np.array([metrology.variance_scaling([n], trials, seed)[0]
                              for seed in range(n_seeds)])
        expected = exact_separable_variance(n, theta) * (trials - 1) / trials
        z = (variances.mean() - expected) / (variances.std(ddof=1) / math.sqrt(n_seeds))
        assert abs(z) < 4.0, (trials, z)


@pytest.mark.parametrize("n", [3, 16])
def test_variance_scaling_draws_the_table_up_to_one_cell_a_trial(monkeypatch, n):
    tables = []
    real = metrology._table_variance

    def table_variance(rng, trials, *rest):
        tables.append(trials)
        return real(rng, trials, *rest)

    monkeypatch.setattr(metrology, "_table_variance", table_variance)
    for trials in (cells(n) - 1, cells(n), cells(n) + 1):
        metrology.variance_scaling([n], trials, seed=1)
    assert tables == [cells(n), cells(n) + 1]


def test_variance_scaling_per_trial_rows_keep_their_values():
    # rows with more outcome cells than trials, recorded before the table
    # path was added: they still draw every trial, bit for bit
    assert metrology.variance_scaling([12345678901, 1000, 16], 10, 0) == [
        1.4627382093329722e-11, 0.00015778147435618493, 0.01925291878180945]
    assert metrology.variance_scaling([16], 80, 5) == [0.021855377946887303]
    assert metrology.variance_scaling([3], 5, 5) == [0.024674011002723394]


def test_variance_scaling_largest_table():
    # n = 1998 has 1000 x 1000 cells, the most MAX_TRIALS admits: its pmfs
    # reach comb(999, 499) = 1.4e299 and underflow in the tails, with no
    # overflow or warning; the result is the delta-method variance
    # (cos^4 2theta / n_x + sin^4 2theta / n_z) / 4 up to O(1/n^2) terms
    n, theta = 1998, math.pi / 6
    assert cells(n) == metrology.MAX_TRIALS
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (variance,) = metrology.variance_scaling([n], metrology.MAX_TRIALS, 3, theta)
    asymptote = (math.cos(2 * theta) ** 4 + math.sin(2 * theta) ** 4) / (4 * 999)
    assert variance == pytest.approx(asymptote, rel=0.01)
