"""Covariance components, their composition, the Gram matrix, and the
analytic log-space gradients checked against finite differences."""

import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from denguegp.kernels import (PARAM_NAMES, KernelHyperparameters, _by_lag,
                              _time_parts, composite_kernel, gram_from_arrays,
                              gram_gradients, kernel_vector, lag_table,
                              linear_ard, matern52, periodic)

# frozen high-precision evaluations of the closed forms
MATERN_AT_ONE_LENGTHSCALE = 0.5239941088318203
PERIODIC_AT_HALF_PERIOD = 0.1353352832366127


def make_hyperparameters(**overrides) -> KernelHyperparameters:
    base = dict(sigma_loc_sq=0.1, ell_loc=2.0, sigma_qp_sq=1.4, ell_qp=58.0,
                ell_per=1.0, period=52.0,
                ell_rain=50.0, ell_temp=30.0, ell_hum=70.0, sigma_noise_sq=0.25)
    base.update(overrides)
    return KernelHyperparameters(**base)


def random_hyperparameters(rng) -> KernelHyperparameters:
    sigma_loc_sq = np.exp(rng.uniform(-3, 1))
    ell_loc = np.exp(rng.uniform(0, 3))
    sigma_qp_sq = np.exp(rng.uniform(-3, 1))
    ell_qp = np.exp(rng.uniform(1, 4))
    ell_per = np.exp(rng.uniform(-0.5, 1))
    period = rng.uniform(20, 80)
    rng.uniform(-4, 0)  # the retired linear bias: keeps every later draw where it was
    return KernelHyperparameters(
        sigma_loc_sq=sigma_loc_sq, ell_loc=ell_loc, sigma_qp_sq=sigma_qp_sq,
        ell_qp=ell_qp, ell_per=ell_per, period=period,
        ell_rain=np.exp(rng.uniform(0, 4)),
        ell_temp=np.exp(rng.uniform(0, 4)),
        ell_hum=np.exp(rng.uniform(0, 4)),
        sigma_noise_sq=np.exp(rng.uniform(-3, 0)),
    )


def random_input(rng, max_week=300) -> tuple:
    """One (week, covariate row) pair."""
    return int(rng.integers(1, max_week)), rng.normal(size=3)


def random_design(rng, n, max_week=300) -> tuple:
    """(weeks, X) for n random_input draws, in the same draw order."""
    points = [random_input(rng, max_week) for _ in range(n)]
    return np.array([w for w, _ in points]), np.array([x for _, x in points])


class TestKernelHyperparameters:
    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            make_hyperparameters(sigma_loc_sq=0.0)
        with pytest.raises(ValueError):
            make_hyperparameters(ell_qp=-1.0)
        with pytest.raises(ValueError):
            make_hyperparameters(period=np.nan)

    def test_noise_variance_may_be_zero(self):
        h = make_hyperparameters(sigma_noise_sq=0.0)
        assert h.sigma_noise_sq == 0.0

    def test_log_round_trip_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            h = random_hyperparameters(rng)
            back = KernelHyperparameters.from_log_vector(h.to_log_vector())
            for name in PARAM_NAMES:
                a, b = getattr(h, name), getattr(back, name)
                assert b == pytest.approx(a, rel=1e-15)

    def test_json_round_trip_uses_natural_scale(self):
        h = make_hyperparameters()
        d = h.to_dict()
        assert d["period"] == 52.0  # not log(52)
        assert KernelHyperparameters.from_dict(json.loads(json.dumps(d))) == h

    def test_param_names_cover_all_fields(self):
        h = make_hyperparameters()
        assert len(PARAM_NAMES) == 10
        vec = h.to_log_vector()
        for i, name in enumerate(PARAM_NAMES):
            assert_allclose(np.exp(vec[i]), getattr(h, name), rtol=1e-14)


class TestMatern52:
    def test_zero_lag_equals_variance(self):
        assert matern52(0.0, 2.7, 13.0) == 2.7

    def test_at_one_lengthscale(self):
        assert_allclose(matern52(3.0, 1.0, 3.0), MATERN_AT_ONE_LENGTHSCALE, rtol=1e-14)

    def test_decays_to_zero(self):
        assert matern52(1000.0 * 2.0, 1.0, 2.0) < 1e-300

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            matern52(1.0, -1.0, 2.0)
        with pytest.raises(ValueError):
            matern52(1.0, 1.0, 0.0)


class TestPeriodic:
    def test_zero_lag_is_one(self):
        assert periodic(0.0, 52.0, 1.0) == 1.0

    def test_full_period_is_one(self):
        assert_allclose(periodic(52.0, 52.0, 0.7), 1.0, atol=1e-12)

    def test_half_period(self):
        assert_allclose(periodic(26.0, 52.0, 1.0), PERIODIC_AT_HALF_PERIOD, rtol=1e-14)

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for dt in rng.uniform(0, 300, size=50):
            v = periodic(float(dt), 52.0, 0.9)
            assert 0.0 < v <= 1.0

    def test_exactly_periodic(self):
        for dt in (3.0, 17.5, 40.0):
            assert_allclose(periodic(dt + 52.0, 52.0, 1.3),
                            periodic(dt, 52.0, 1.3), rtol=1e-12)


class TestLinearArd:
    def test_zero_vectors_give_zero(self):
        z = np.zeros(3)
        assert linear_ard(z, z, np.array([2.0, 3.0, 4.0])) == 0.0

    def test_single_component(self):
        x = np.array([1.0, 0.0, 0.0])
        got = linear_ard(x, x, np.array([2.0, 3.0, 4.0]))
        assert got == 0.25

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            xi, xj = rng.normal(size=3), rng.normal(size=3)
            ells = rng.uniform(0.5, 5, size=3)
            expected = sum(xi[d] * xj[d] / ells[d] ** 2 for d in range(3))
            assert_allclose(linear_ard(xi, xj, ells), expected, rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linear_ard(np.zeros(2), np.zeros(2), np.ones(3))


class TestCompositeKernel:
    def test_diagonal_with_zero_covariates(self):
        h = make_hyperparameters()
        expected = h.sigma_loc_sq + h.sigma_qp_sq
        assert_allclose(composite_kernel(10, np.zeros(3), 10, np.zeros(3), h),
                        expected, rtol=1e-14)

    def test_lag_of_one_period(self):
        h = make_hyperparameters()
        # periodic factor is exactly 1 at a full period
        expected = (matern52(52.0, h.sigma_loc_sq, h.ell_loc)
                    + matern52(52.0, h.sigma_qp_sq, h.ell_qp) * 1.0)
        assert_allclose(composite_kernel(10, np.zeros(3), 10 + 52, np.zeros(3), h),
                        expected, rtol=1e-12)

    def test_equals_sum_of_components(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            h = random_hyperparameters(rng)
            (wa, xa), (wb, xb) = random_input(rng), random_input(rng)
            dt = abs(wa - wb)
            expected = (matern52(dt, h.sigma_loc_sq, h.ell_loc)
                        + matern52(dt, h.sigma_qp_sq, h.ell_qp)
                        * periodic(dt, h.period, h.ell_per)
                        + linear_ard(xa, xb, h.ard_lengthscales))
            assert_allclose(composite_kernel(wa, xa, wb, xb, h), expected, rtol=1e-12)

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            h = random_hyperparameters(rng)
            a, b = random_input(rng), random_input(rng)
            assert composite_kernel(*a, *b, h) == composite_kernel(*b, *a, h)

    def test_time_parts_are_stationary(self):
        h = make_hyperparameters()
        x = np.array([0.3, -1.2, 0.8])
        for shift in (1, 13, 117):
            assert_allclose(composite_kernel(5 + shift, x, 31 + shift, x, h),
                            composite_kernel(5, x, 31, x, h), rtol=1e-14)


class TestGramMatrix:
    def test_single_input_no_noise(self):
        h = make_hyperparameters()
        x = np.array([0.5, -0.25, 2.0])
        K = gram_from_arrays([7], x[None, :], h, include_noise=False)
        expected = (h.sigma_loc_sq + h.sigma_qp_sq
                    + np.sum(x ** 2 / h.ard_lengthscales ** 2))
        assert K.shape == (1, 1)
        assert_allclose(K[0, 0], expected, rtol=1e-14)

    def test_noise_adds_to_diagonal_only(self):
        rng = np.random.default_rng(5)
        h = make_hyperparameters()
        weeks, X = random_design(rng, 12)
        plain = gram_from_arrays(weeks, X, h, include_noise=False)
        noisy = gram_from_arrays(weeks, X, h, include_noise=True)
        assert_allclose(noisy - plain, h.sigma_noise_sq * np.eye(12), atol=0)

    def test_exact_symmetry(self):
        rng = np.random.default_rng(6)
        for design in (random_design, irregular_design):
            for _ in range(10):
                h = random_hyperparameters(rng)
                weeks, X = design(rng, 20)
                K = gram_from_arrays(weeks, X, h, include_noise=True)
                assert np.array_equal(K, K.T)

    def test_matches_pairwise_kernel(self):
        rng = np.random.default_rng(8)
        h = random_hyperparameters(rng)
        weeks, X = random_design(rng, 8)
        K = gram_from_arrays(weeks, X, h, include_noise=False)
        for i in range(8):
            for j in range(8):
                assert_allclose(K[i, j],
                                composite_kernel(weeks[i], X[i], weeks[j], X[j], h),
                                rtol=1e-12, atol=1e-15)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            h = random_hyperparameters(rng)
            weeks, X = random_design(rng, 15)
            K = gram_from_arrays(weeks, X, h, include_noise=False)
            min_eig = np.linalg.eigvalsh(K).min()
            assert min_eig >= -1e-8 * np.trace(K)

    def test_kernel_vector_matches_pairwise(self):
        rng = np.random.default_rng(10)
        h = random_hyperparameters(rng)
        weeks, X = random_design(rng, 9)
        qw, qx = random_input(rng)
        kstar = kernel_vector(weeks, X, qw, qx, h)
        for i in range(9):
            assert_allclose(kstar[i], composite_kernel(weeks[i], X[i], qw, qx, h),
                            rtol=1e-12)

    def test_fit_and_predict_kernels_equal_the_variance_rows(self):
        # without by_lag, gram_from_arrays and kernel_vector evaluate the
        # time kernel alone: rows 0 and 2 of _time_parts, bit for bit
        rng = np.random.default_rng(12)
        for _ in range(30):
            h = random_hyperparameters(rng)
            weeks, X = random_design(rng, 20)
            qw, qx = random_input(rng)
            lag = lag_table(weeks)
            parts = _time_parts(lag.dt, h)
            assert np.array_equal(gram_from_arrays(weeks, X, h, include_noise=True),
                                  gram_from_arrays(weeks, X, h, include_noise=True,
                                                   by_lag=(lag, parts)))
            query = _time_parts(np.abs(weeks - float(qw)), h)
            assert np.array_equal(kernel_vector(weeks, X, qw, qx, h),
                                  query[0] + query[2] + X @ (qx / h.ard_lengthscales**2))

    def test_huge_variance_leaves_the_unread_gradient_rows_unevaluated(self):
        # a saved model's variance of 1e308: the ell_per and period
        # gradient rows overflow, and fit and predict must not compute them
        h = make_hyperparameters(sigma_qp_sq=1e308, ell_qp=1e4)
        rng = np.random.default_rng(14)
        weeks, X = random_design(rng, 20, max_week=100)
        with pytest.warns(RuntimeWarning):
            _time_parts(lag_table(weeks).dt, h)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            K = gram_from_arrays(weeks, X, h, include_noise=True)
            kstar = kernel_vector(weeks, X, 50, X[0], h)
        assert np.all(np.isfinite(K)) and np.all(np.isfinite(kstar))


def finite_difference_kernel(a, b, h, index, step=1e-5):
    log_theta = h.to_log_vector()
    plus, minus = log_theta.copy(), log_theta.copy()
    plus[index] += step
    minus[index] -= step
    hp = KernelHyperparameters.from_log_vector(plus)
    hm = KernelHyperparameters.from_log_vector(minus)
    return (composite_kernel(*a, *b, hp) - composite_kernel(*a, *b, hm)) / (2 * step)


def dense_gram_gradients(weeks, X, h, alpha, M):
    """gram_gradients for W = alpha alpha^T - M, from a dense symmetric M."""
    return gram_gradients(X, h, alpha, np.tril(M), M @ X, by_lag=_by_lag(weeks, h))


def random_w_factors(rng, n):
    """(alpha, M) with M symmetric: W = alpha alpha^T - M is a random
    symmetric matrix."""
    M = rng.normal(size=(n, n))
    return rng.normal(size=n), M + M.T


def pairwise_gradients(a, b, h):
    """Gradients of composite_kernel(a, b, h): the (0, 1) entry of the
    Gram gradients over the 2-point design [a, b], picked by the
    symmetric W = (e0 e1^T + e1 e0^T) / 2, that is alpha = 0 and M = -W."""
    weeks = np.array([a[0], b[0]])
    X = np.vstack([a[1], b[1]])
    return dense_gram_gradients(weeks, X, h, np.zeros(2), -np.array([[0.0, 0.5], [0.5, 0.0]]))


def irregular_design(rng, n):
    """Whole-number weeks with gaps, repeats and no order, plus covariates."""
    weeks = rng.choice(np.arange(1, 2 * n), size=n)
    weeks[: n // 5] = weeks[n // 5: 2 * (n // 5)]  # force repeated weeks
    return rng.permutation(weeks), rng.normal(size=(n, 3))


class TestKernelGradients:
    def test_variance_gradient_at_zero_lag(self):
        h = make_hyperparameters()
        a = (4, np.zeros(3))
        grads = pairwise_gradients(a, a, h)
        idx = PARAM_NAMES.index("sigma_loc_sq")
        assert_allclose(grads[idx], h.sigma_loc_sq, rtol=1e-14)

    def test_period_gradient_vanishes_at_zero_lag(self):
        rng = np.random.default_rng(2)
        h = random_hyperparameters(rng)
        a = (9, rng.normal(size=3))
        grads = pairwise_gradients(a, a, h)
        assert grads[PARAM_NAMES.index("period")] == 0.0

    def test_noise_has_no_pairwise_gradient(self):
        rng = np.random.default_rng(13)
        h = random_hyperparameters(rng)
        a, b = random_input(rng), random_input(rng)
        assert pairwise_gradients(a, b, h)[PARAM_NAMES.index("sigma_noise_sq")] == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            h = random_hyperparameters(rng)
            a, b = random_input(rng, max_week=150), random_input(rng, max_week=150)
            grads = pairwise_gradients(a, b, h)
            for idx in range(len(PARAM_NAMES) - 1):  # noise-free pairwise kernel
                fd = finite_difference_kernel(a, b, h, idx)
                assert_allclose(grads[idx], fd, rtol=1e-5, atol=1e-8)

    def test_gram_gradient_noise_slice(self):
        rng = np.random.default_rng(19)
        h = random_hyperparameters(rng)
        weeks, X = random_design(rng, 6)
        alpha, M = random_w_factors(rng, 6)
        grads = dense_gram_gradients(weeks, X, h, alpha, M)
        idx = PARAM_NAMES.index("sigma_noise_sq")
        assert grads[idx] == h.sigma_noise_sq * (alpha @ alpha - np.trace(M))

    def test_matches_dense_finite_differences(self):
        """sum W * dK/dlog(theta) against a central difference of the
        noisy Gram matrix, for W = alpha alpha^T - M, on designs the lag
        binning must get right."""
        rng = np.random.default_rng(29)
        step = 1e-5
        for _ in range(10):
            h = random_hyperparameters(rng)
            weeks, X = irregular_design(rng, 30)
            alpha, M = random_w_factors(rng, 30)
            W = np.outer(alpha, alpha) - M
            grads = dense_gram_gradients(weeks, X, h, alpha, M)
            for idx in range(len(PARAM_NAMES)):
                plus, minus = h.to_log_vector(), h.to_log_vector()
                plus[idx] += step
                minus[idx] -= step
                dK = (gram_from_arrays(weeks, X, KernelHyperparameters.from_log_vector(plus),
                                       include_noise=True)
                      - gram_from_arrays(weeks, X, KernelHyperparameters.from_log_vector(minus),
                                         include_noise=True)) / (2 * step)
                expected = float(np.sum(W * dK))
                scale = float(np.sum(np.abs(W * dK)))
                assert abs(grads[idx] - expected) <= 1e-8 * scale + 1e-12, PARAM_NAMES[idx]

    def test_fractional_weeks_rejected(self):
        h = make_hyperparameters()
        weeks, X = np.array([3.0, 4.5, 9.0]), np.zeros((3, 3))
        with pytest.raises(ValueError, match="whole numbers"):
            gram_from_arrays(weeks, X, h, include_noise=True)
        with pytest.raises(ValueError, match="whole numbers"):
            dense_gram_gradients(weeks, X, h, np.zeros(3), np.eye(3))
        with pytest.raises(ValueError, match="whole numbers"):
            lag_table(weeks)
