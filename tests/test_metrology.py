import math

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


def test_variance_scaling_bound_column():
    rows = metrology.variance_scaling([1, 2, 4], trials=10, counts_per_trial=1,
                                      seed=0)
    bounds = [row[1] for row in rows]
    assert bounds == [0.25, 0.0625, 0.015625]


def test_variance_scaling_deterministic():
    r1 = metrology.variance_scaling([1, 4], trials=50, counts_per_trial=1, seed=9)
    r2 = metrology.variance_scaling([1, 4], trials=50, counts_per_trial=1, seed=9)
    assert r1 == r2
    r3 = metrology.variance_scaling([1, 4], trials=50, counts_per_trial=1, seed=10)
    assert r1 != r3


def test_variance_scaling_slope_and_dominance():
    n_values = [1, 2, 4, 8, 16]
    rows = metrology.variance_scaling(n_values, trials=10000, counts_per_trial=1,
                                      seed=0)
    variances = np.array([row[2] for row in rows])
    slope = np.polyfit(np.log(n_values), np.log(variances), 1)[0]
    assert abs(slope - (-1.0)) < 0.1
    for (n, bound, var_sim) in rows:
        assert bound <= var_sim


def test_variance_scaling_shrinks_with_repetitions():
    rows_1 = metrology.variance_scaling([4], trials=3000, counts_per_trial=1, seed=3)
    rows_8 = metrology.variance_scaling([4], trials=3000, counts_per_trial=8, seed=3)
    assert rows_8[0][2] < rows_1[0][2] / 4.0


def test_variance_scaling_validation():
    with pytest.raises(ValueError, match="positive"):
        metrology.variance_scaling([1], trials=0, counts_per_trial=1, seed=0)
    with pytest.raises(ValueError, match="at least 2"):
        metrology.variance_scaling([1], trials=1, counts_per_trial=1, seed=0)
    with pytest.raises(ValueError, match=">= 1"):
        metrology.variance_scaling([0], trials=10, counts_per_trial=1, seed=0)


def test_separable_estimator_consistency():
    # with generous statistics the estimator concentrates on the true angle
    theta = math.pi / 6
    rows = metrology.variance_scaling([64], trials=400, counts_per_trial=32,
                                      seed=4, theta=theta)
    assert rows[0][2] < 1e-3
