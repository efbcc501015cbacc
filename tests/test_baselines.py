"""Comparator models: OLS on lagged covariates and the sliding-window
AR(1) with iterated 4-step forecasts."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from denguegp.baselines import (AR_WINDOW_WEEKS, ARModelState,
                                LinearModelState, ar_fit, ar_forecast,
                                lm_fit, lm_predict)

# iterating y <- c + phi*y four times from y0, closed form
# phi=0.5, c=1, y0=2: 0.5^4*2 + 1*(1 + .5 + .25 + .125) = 0.125 + 1.875
AR_ITERATED_EXAMPLE = 2.0


def normal_equations(X, y):
    design = np.column_stack([np.ones(X.shape[0]), X])
    return np.linalg.solve(design.T @ design, design.T @ y)


class TestLmFit:
    def test_exact_recovery(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 3))
        y = 1.5 + X @ np.array([2.0, -1.0, 0.5])
        state = lm_fit(X, y)
        assert_allclose(state.intercept, 1.5, rtol=1e-10)
        assert_allclose(state.coefficients, [2.0, -1.0, 0.5], rtol=1e-10)
        fitted = np.array([lm_predict(state, row) for row in X])
        assert np.max(np.abs(fitted - y)) <= 1e-10

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            X = rng.normal(size=(10, 3))
            y = rng.normal(size=10)
            state = lm_fit(X, y)
            expected = normal_equations(X, y)
            assert_allclose(state.intercept, expected[0], atol=1e-8)
            assert_allclose(state.coefficients, expected[1:], atol=1e-8)

    def test_constant_target_lands_on_intercept(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(12, 3))
        state = lm_fit(X, np.full(12, 4.0))
        assert_allclose(state.intercept, 4.0, atol=1e-10)
        assert_allclose(state.coefficients, np.zeros(3), atol=1e-10)

    def test_intercept_shift_equivariance(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        base = lm_fit(X, y)
        shifted = lm_fit(X, y + 5.0)
        assert_allclose(shifted.intercept, base.intercept + 5.0, atol=1e-10)
        assert_allclose(shifted.coefficients, base.coefficients, atol=1e-10)

    def test_rank_deficient_rejected(self):
        rng = np.random.default_rng(17)
        col = rng.normal(size=12)
        X = np.column_stack([col, 2 * col, rng.normal(size=12)])
        with pytest.raises(ValueError, match="rank-deficient"):
            lm_fit(X, rng.normal(size=12))

    def test_too_few_rows_rejected(self):
        rng = np.random.default_rng(19)
        with pytest.raises(ValueError, match="at least 5"):
            lm_fit(rng.normal(size=(4, 3)), rng.normal(size=4))


class TestLmPredict:
    def test_manual_dot_product(self):
        state = LinearModelState(2.0, np.array([1.0, -3.0, 0.5]))
        assert lm_predict(state, np.array([4.0, 1.0, 2.0])) == 2.0 + 4.0 - 3.0 + 1.0

    def test_wrong_length_rejected(self):
        state = LinearModelState(0.0, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            lm_predict(state, np.array([1.0, 2.0, 3.0]))


def ar1_path(rng, n, phi, intercept, noise_sd, y0=0.0):
    y = np.empty(n)
    y[0] = y0
    for t in range(1, n):
        y[t] = intercept + phi * y[t - 1] + rng.normal(scale=noise_sd)
    return y


class TestArFit:
    def test_exact_noiseless_recovery(self):
        y = np.empty(30)
        y[0] = 5.0
        for t in range(1, 30):
            y[t] = 0.8 * y[t - 1]
        state = ar_fit(y)
        assert_allclose(state.phi, 0.8, atol=1e-10)
        assert_allclose(state.intercept, 0.0, atol=1e-10)

    def test_matches_covariance_ratio(self):
        rng = np.random.default_rng(23)
        series = ar1_path(rng, 60, phi=0.5, intercept=1.0, noise_sd=0.4)
        state = ar_fit(series)
        window = series[-AR_WINDOW_WEEKS:]
        prev, curr = window[:-1], window[1:]
        phi = (np.mean(prev * curr) - prev.mean() * curr.mean()) / np.var(prev)
        assert_allclose(state.phi, phi, atol=1e-10)
        assert_allclose(state.intercept, curr.mean() - phi * prev.mean(), atol=1e-10)

    def test_only_the_window_matters(self):
        rng = np.random.default_rng(29)
        series = ar1_path(rng, 80, phi=0.6, intercept=0.5, noise_sd=0.3)
        state = ar_fit(series)
        tampered = series.copy()
        tampered[:-AR_WINDOW_WEEKS] = 1e6  # weeks before the window
        state2 = ar_fit(tampered)
        assert state2.phi == state.phi
        assert state2.intercept == state.intercept

    def test_short_history_clips_window(self):
        rng = np.random.default_rng(31)
        series = ar1_path(rng, 6, phi=0.5, intercept=0.2, noise_sd=0.3)
        state = ar_fit(series)  # only 6 weeks, 5 pairs
        prev, curr = series[:-1], series[1:]
        expected = normal_equations(prev[:, None], curr)
        assert_allclose(state.intercept, expected[0], atol=1e-10)
        assert_allclose(state.phi, expected[1], atol=1e-10)

    def test_constant_window_rejected(self):
        with pytest.raises(ValueError, match="constant window"):
            ar_fit(np.full(20, 3.0))

    def test_too_few_pairs_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            ar_fit(np.array([1.0, 2.0, 1.5]))


class TestArForecast4:
    def test_closed_form_example(self):
        got = ar_forecast(ARModelState(phi=0.5, intercept=1.0), last_observed=2.0, steps=4)
        assert_allclose(got, AR_ITERATED_EXAMPLE, rtol=1e-12)

    def test_matches_geometric_closed_form(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            phi = float(rng.uniform(-0.95, 0.95))
            c = float(rng.normal())
            y0 = float(rng.normal())
            expected = phi ** 4 * y0 + c * (1 + phi + phi ** 2 + phi ** 3)
            assert_allclose(ar_forecast(ARModelState(phi, c), y0, 4), expected, rtol=1e-12, atol=1e-12)

    def test_steps_count_the_iterations(self):
        state = ARModelState(phi=0.5, intercept=1.0)
        assert ar_forecast(state, 2.0, 1) == 2.0
        assert ar_forecast(state, 6.0, 1) == 4.0
        assert ar_forecast(state, 6.0, 2) == 3.0

    def test_random_walk_returns_last_value(self):
        assert ar_forecast(ARModelState(phi=1.0, intercept=0.0), 7.25, 4) == 7.25

    def test_zero_phi_returns_intercept(self):
        assert ar_forecast(ARModelState(phi=0.0, intercept=3.5), 100.0, 4) == 3.5

    def test_monotone_in_last_observed_for_positive_phi(self):
        state = ARModelState(phi=0.7, intercept=0.3)
        values = [ar_forecast(state, y0, 4) for y0 in (-2.0, 0.0, 1.0, 5.0)]
        assert values == sorted(values)
