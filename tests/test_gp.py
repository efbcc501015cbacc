"""Exact GP regression: fitting, prediction, marginal likelihood and its
gradient, each checked against brute-force dense linear algebra."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from denguegp.gp import (ModelFitError, _chol_with_jitter, _inverse_lower, _lapack, fit,
                         lml_value_and_gradient, log_marginal_likelihood, predict)
from denguegp.hyperopt import _FAILURE_VALUE, OptimizerConfig, optimize
from denguegp.kernels import (PARAM_NAMES, KernelHyperparameters,
                              composite_kernel, gram_from_arrays, kernel_vector,
                              lag_table)

from test_kernels import (dense_gram_gradients, make_hyperparameters,
                          random_design, random_hyperparameters, random_input)

# frozen scalar evaluations of the N=1 closed form
LML_UNIT_VARIANCE_ZERO_TARGET = -0.9189385332046728
LML_UNIT_VARIANCE_UNIT_TARGET = -1.4189385332046727


def unit_diagonal_hyperparameters(noise: float) -> KernelHyperparameters:
    """k(x,x) + noise == 1 exactly (dyadic variances) for zero covariates."""
    signal = 1.0 - noise
    return make_hyperparameters(
        sigma_loc_sq=signal / 2, sigma_qp_sq=signal / 2, sigma_noise_sq=noise)


def random_instance(rng, n):
    h = random_hyperparameters(rng)
    weeks, X = random_design(rng, n, max_week=120)
    y = rng.normal(size=n)
    return weeks, X, y, h


def lml_grad(weeks, X, y, h):
    return lml_value_and_gradient(weeks, X, y, h, lag=lag_table(weeks))[1]


ONE_WEEK = ([3], np.zeros((1, 3)))


class TestFit:
    def test_single_point_unit_kernel(self):
        h = unit_diagonal_hyperparameters(noise=0.0)
        model = fit(*ONE_WEEK, [2.0], h)
        assert_allclose(model.alpha, [2.0], rtol=1e-15)

    def test_alpha_matches_dense_inverse(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            weeks, X, y, h = random_instance(rng, 5)
            model = fit(weeks, X, y, h)
            K = gram_from_arrays(weeks, X, h, include_noise=True)
            assert_allclose(model.alpha, np.linalg.inv(K) @ y, atol=1e-8)

    def test_huge_noise_limit(self):
        rng = np.random.default_rng(37)
        weeks, X, y, _ = random_instance(rng, 8)
        h = make_hyperparameters(sigma_noise_sq=1e6)
        model = fit(weeks, X, y, h)
        assert_allclose(model.alpha, y / 1e6, rtol=1e-4)

    def test_factor_reconstructs_gram(self):
        rng = np.random.default_rng(41)
        weeks, X, y, h = random_instance(rng, 12)
        model = fit(weeks, X, y, h)
        K = gram_from_arrays(weeks, X, h, include_noise=True)
        rebuilt = model.chol @ model.chol.T
        assert np.linalg.norm(rebuilt - K) <= 1e-8 * np.linalg.norm(K)
        assert np.linalg.norm(K @ model.alpha - y) <= 1e-6 * np.linalg.norm(y)

    def test_lapack_calls_match_the_scipy_wrappers_bit_for_bit(self):
        rng = np.random.default_rng(43)
        weeks, X, y, h = random_instance(rng, 60)
        model = fit(weeks, X, y, h)
        assert np.array_equal(model.alpha, scipy.linalg.cho_solve((model.chol, True), y))
        week, x = random_input(rng, max_week=120)
        kstar = kernel_vector(weeks, X, week, x, h)
        v = scipy.linalg.solve_triangular(model.chol, kstar, lower=True)
        kss = kernel_vector([week], x[None, :], week, x, h)[0]
        assert predict(model, week, x).variance == kss - v @ v > 0.0

    def test_duplicate_inputs_need_jitter(self):
        x = np.array([0.1, 0.2, 0.3])
        h = make_hyperparameters(sigma_noise_sq=0.0)
        model = fit([5, 5, 9], np.vstack([x, x, np.ones(3)]), [1.0, 1.0, 0.0], h)
        assert model.jitter > 0.0

    def test_length_mismatch(self):
        h = make_hyperparameters()
        with pytest.raises(ValueError, match="matching lengths"):
            fit(*ONE_WEEK, [1.0, 2.0], h)
        with pytest.raises(ValueError, match="matching lengths"):
            fit([1, 2], np.zeros((1, 3)), [1.0, 2.0], h)

    def test_empty_design_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            fit([], np.zeros((0, 3)), [], make_hyperparameters())

    def test_covariates_must_be_n_by_3(self):
        h = make_hyperparameters()
        for X in (np.zeros((2, 2)), np.zeros(6), np.zeros((2, 3, 1))):
            with pytest.raises(ValueError, match=r"shape \(n, 3\)"):
                fit([1, 2], X, [0.0, 1.0], h)

    def test_non_finite_design_rejected(self):
        h = make_hyperparameters()
        for bad in (np.nan, np.inf):
            X = np.zeros((2, 3))
            X[1, 2] = bad
            with pytest.raises(ValueError, match="finite"):
                fit([1, 2], X, [0.0, 1.0], h)
        with pytest.raises(ValueError, match="finite"):
            fit([1, 2], np.zeros((2, 3)), [0.0, np.nan], h)


class TestPredict:
    def test_noiseless_interpolation_single_point(self):
        h = unit_diagonal_hyperparameters(noise=0.0)
        model = fit(*ONE_WEEK, [2.0], h)
        dist = predict(model, 3, np.zeros(3))
        assert_allclose(dist.mean, 2.0, rtol=1e-12)
        assert 0.0 <= dist.variance <= 1e-10

    def test_noiseless_interpolation_many_points(self):
        rng = np.random.default_rng(47)
        h = make_hyperparameters(ell_loc=1.5, ell_qp=10.0, sigma_noise_sq=0.0)
        weeks = np.array([5, 30, 80, 140])
        X = np.array([rng.normal(size=3) for _ in weeks])
        y = rng.normal(size=4)
        model = fit(weeks, X, y, h)
        for i in range(4):
            assert_allclose(predict(model, weeks[i], X[i]).mean, y[i], atol=1e-6)

    def test_reversion_to_prior(self):
        rng = np.random.default_rng(53)
        h = make_hyperparameters()
        X = np.array([rng.normal(size=3) for _ in range(8)])
        model = fit(np.arange(1, 9), X, rng.normal(size=8), h)
        dist = predict(model, 100000, np.zeros(3))
        assert abs(dist.mean) < 1e-8
        assert_allclose(dist.variance,
                        h.sigma_loc_sq + h.sigma_qp_sq, rtol=1e-6)

    def test_matches_joint_gaussian_conditioning(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            weeks, X, y, h = random_instance(rng, 3)
            q = random_input(rng, max_week=120)
            model = fit(weeks, X, y, h)
            dist = predict(model, *q)

            K = gram_from_arrays(weeks, X, h, include_noise=True)
            kstar = np.array([composite_kernel(w, x, *q, h) for w, x in zip(weeks, X)])
            kss = composite_kernel(*q, *q, h)
            Kinv = np.linalg.inv(K)
            assert_allclose(dist.mean, kstar @ Kinv @ y, atol=1e-8)
            assert_allclose(dist.variance, kss - kstar @ Kinv @ kstar, atol=1e-8)

    def test_posterior_variance_below_prior(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            weeks, X, y, h = random_instance(rng, 6)
            q = random_input(rng, max_week=120)
            dist = predict(fit(weeks, X, y, h), *q)
            prior = composite_kernel(*q, *q, h)
            assert dist.variance <= prior + 1e-10

    def test_extra_point_never_raises_variance(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            weeks, X, y, h = random_instance(rng, 4)
            q = random_input(rng, max_week=120)
            small = predict(fit(weeks[:3], X[:3], y[:3], h), *q).variance
            full = predict(fit(weeks, X, y, h), *q).variance
            assert full <= small + 1e-10

    def test_query_must_be_a_finite_row_of_3(self):
        model = fit(*ONE_WEEK, [1.0], make_hyperparameters())
        for x in (np.zeros(2), np.zeros((1, 3)), np.array([0.0, np.nan, 0.0]),
                  np.array([np.inf, 0.0, 0.0])):
            with pytest.raises(ValueError, match="query covariates"):
                predict(model, 4, x)


class TestLogMarginalLikelihood:
    def test_unit_variance_zero_target(self):
        h = unit_diagonal_hyperparameters(noise=0.25)
        got = log_marginal_likelihood([1], np.zeros((1, 3)), [0.0], h)
        assert_allclose(got, LML_UNIT_VARIANCE_ZERO_TARGET, rtol=1e-14)

    def test_unit_variance_unit_target(self):
        h = unit_diagonal_hyperparameters(noise=0.25)
        got = log_marginal_likelihood([1], np.zeros((1, 3)), [1.0], h)
        assert_allclose(got, LML_UNIT_VARIANCE_UNIT_TARGET, rtol=1e-14)

    def test_matches_dense_normal_log_density(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            weeks, X, y, h = random_instance(rng, 4)
            K = gram_from_arrays(weeks, X, h, include_noise=True)
            sign, logdet = np.linalg.slogdet(K)
            assert sign > 0
            expected = -0.5 * (y @ np.linalg.inv(K) @ y + logdet
                               + len(y) * np.log(2 * np.pi))
            assert_allclose(log_marginal_likelihood(weeks, X, y, h), expected, atol=1e-8)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(79)
        weeks, X, y, h = random_instance(rng, 9)
        base = log_marginal_likelihood(weeks, X, y, h)
        perm = rng.permutation(9)
        shuffled = log_marginal_likelihood(weeks[perm], X[perm], y[perm], h)
        assert_allclose(shuffled, base, rtol=1e-10)


def finite_difference_lml(weeks, X, y, h, index, step=1e-5):
    log_theta = h.to_log_vector()
    plus, minus = log_theta.copy(), log_theta.copy()
    plus[index] += step
    minus[index] -= step
    fp = log_marginal_likelihood(weeks, X, y, KernelHyperparameters.from_log_vector(plus))
    fm = log_marginal_likelihood(weeks, X, y, KernelHyperparameters.from_log_vector(minus))
    return (fp - fm) / (2 * step)


class TestLmlGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            n = int(rng.integers(3, 11))
            weeks, X, y, h = random_instance(rng, n)
            grad = lml_grad(weeks, X, y, h)
            for idx in range(len(PARAM_NAMES)):
                fd = finite_difference_lml(weeks, X, y, h, idx)
                assert_allclose(grad[idx], fd, rtol=1e-4, atol=1e-7)

    def test_matches_dense_inverse_reference(self):
        """Against np.linalg.inv of the (jittered) Gram matrix: within
        1e-9 relative, or cond(K) * eps where duplicate noiseless inputs
        force jitter, since no inverse of K is more accurate than that."""
        rng = np.random.default_rng(107)
        cases = [random_instance(rng, 40) for _ in range(5)]
        weeks, X = random_design(rng, 10, max_week=120)
        # every input twice, with equal targets so y lies in K's range
        cases.append((np.tile(weeks, 2), np.tile(X, (2, 1)), np.tile(rng.normal(size=10), 2),
                      dataclasses.replace(random_hyperparameters(rng), sigma_noise_sq=0.0)))
        jittered = 0
        for weeks, X, y, h in cases:
            K = gram_from_arrays(weeks, X, h, include_noise=True)
            _, jitter = _chol_with_jitter(K)
            jittered += jitter > 0
            K += jitter * np.eye(y.size)
            K_inv = np.linalg.inv(K)
            alpha = K_inv @ y
            K_inv = (K_inv + K_inv.T) / 2  # W's symmetric part is all a gradient sees
            expected = 0.5 * dense_gram_gradients(weeks, X, h, alpha, K_inv)
            tol = max(1e-9, np.linalg.cond(K) * np.finfo(float).eps)
            error = np.max(np.abs(lml_grad(weeks, X, y, h) - expected))
            assert error <= tol * np.max(np.abs(expected))
        assert jittered == 1

    def test_inverse_lower_triangle_matches_dense_inverse(self):
        rng = np.random.default_rng(109)
        weeks, X, _, h = random_instance(rng, 30)
        K = gram_from_arrays(weeks, X, h, include_noise=True)
        lower = _inverse_lower(_chol_with_jitter(K)[0])
        assert not np.any(np.triu(lower, 1))
        assert_allclose(lower, np.tril(np.linalg.inv(K)), rtol=1e-9,
                        atol=1e-12 * np.abs(lower).max())

    def test_value_and_gradient_agree_with_separate_calls(self):
        rng = np.random.default_rng(89)
        weeks, X, y, h = random_instance(rng, 7)
        value, grad = lml_value_and_gradient(weeks, X, y, h, lag=lag_table(weeks))
        assert_allclose(value, log_marginal_likelihood(weeks, X, y, h), rtol=1e-12)
        assert grad.shape == (len(PARAM_NAMES),)

    def test_noise_gradient_vanishes_at_optimum(self):
        from scipy.optimize import minimize_scalar

        rng = np.random.default_rng(97)
        weeks = np.arange(1, 13)
        X = np.array([rng.normal(size=3) for _ in weeks])
        y = rng.normal(size=12)
        base = make_hyperparameters()
        idx = PARAM_NAMES.index("sigma_noise_sq")

        def negative_lml(log_noise):
            h = dataclasses.replace(base, sigma_noise_sq=float(np.exp(log_noise)))
            return -log_marginal_likelihood(weeks, X, y, h)

        res = minimize_scalar(negative_lml, bounds=(-6, 4), method="bounded",
                              options={"xatol": 1e-10})
        h_star = dataclasses.replace(base, sigma_noise_sq=float(np.exp(res.x)))
        assert abs(lml_grad(weeks, X, y, h_star)[idx]) < 1e-5

    def test_scale_equivariance_of_variance_gradients(self):
        # with zero covariates every kernel term is proportional to one of the
        # variances, so scaling y by sqrt(2) and all three variances by 2
        # shifts the lml by a constant and leaves log-variance gradients alone
        rng = np.random.default_rng(101)
        h = random_hyperparameters(rng)
        weeks = np.sort(rng.choice(200, size=8, replace=False))
        X = np.zeros((8, 3))
        y = rng.normal(size=8)
        scaled = dataclasses.replace(
            h, sigma_loc_sq=2 * h.sigma_loc_sq, sigma_qp_sq=2 * h.sigma_qp_sq,
            sigma_noise_sq=2 * h.sigma_noise_sq)
        g = lml_grad(weeks, X, y, h)
        g2 = lml_grad(weeks, X, np.sqrt(2) * y, scaled)
        for name in ("sigma_loc_sq", "sigma_qp_sq", "sigma_noise_sq"):
            idx = PARAM_NAMES.index(name)
            assert_allclose(g2[idx], g[idx], rtol=1e-8, atol=1e-10)


class TestFailureModes:
    def test_cholesky_failure_raises_model_fit_error(self):
        # a wildly non-PSD matrix cannot come from the kernel, so force the
        # factorization path directly
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(ModelFitError):
            _chol_with_jitter(bad)

    def test_failed_inverse_is_a_failed_evaluation(self, monkeypatch):
        # dpotri reports a zero pivot through info; the call must raise, and
        # optimize must score that evaluation as _FAILURE_VALUE, not crash
        dpotri = _lapack().dpotri
        calls = []

        def failing_first_call(L, lower, overwrite_c):
            calls.append(None)
            inverse, info = dpotri(L, lower=lower)
            return inverse, 1 if len(calls) == 1 else info

        monkeypatch.setattr(_lapack(), "dpotri", failing_first_call)
        rng = np.random.default_rng(127)
        weeks, X, y, h = random_instance(rng, 30)
        with pytest.raises(ModelFitError, match="dpotri info 1"):
            lml_value_and_gradient(weeks, X, y, h, lag=lag_table(weeks))
        calls.clear()
        _, _, diag = optimize(weeks, X, y, OptimizerConfig(restarts=2, max_iterations=20))
        first, second = diag["restarts"]
        assert first["initial_lml"] == -_FAILURE_VALUE and first["failed"]
        assert not second["failed"] and diag["selected_restart"] == 1

    def test_zero_jitter_is_plain_cholesky(self):
        rng = np.random.default_rng(113)
        weeks, X, _, h = random_instance(rng, 30)
        K = gram_from_arrays(weeks, X, h, include_noise=True)
        L, jitter = _chol_with_jitter(K)
        assert jitter == 0.0
        assert np.array_equal(L, scipy.linalg.cholesky(K, lower=True))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gram_rejected(self, bad):
        K = np.eye(3)
        K[2, 1] = K[1, 2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            _chol_with_jitter(K)

    def test_failed_factorization_enters_the_jitter_ladder(self, monkeypatch):
        # dpotrf reports a non-positive leading minor through info > 0
        dpotrf = _lapack().dpotrf
        calls = []

        def failing_first_call(a, lower, clean):
            calls.append(a.copy())
            L, info = dpotrf(a, lower=lower, clean=clean)
            return L, 2 if len(calls) == 1 else info

        monkeypatch.setattr(_lapack(), "dpotrf", failing_first_call)
        rng = np.random.default_rng(137)
        weeks, X, _, h = random_instance(rng, 20)
        K = gram_from_arrays(weeks, X, h, include_noise=True)
        L, jitter = _chol_with_jitter(K)
        assert jitter == 1e-8 * np.mean(np.diag(K))
        assert len(calls) == 2 and np.array_equal(calls[1], K + jitter * np.eye(20))
        assert np.array_equal(L, scipy.linalg.cholesky(calls[1], lower=True))

    @pytest.mark.parametrize("routine", ["dpotrf", "dpotrs", "dtrtrs", "dpotri"])
    def test_illegal_lapack_argument_raises(self, monkeypatch, routine):
        # info < 0 names an illegal argument; no routine may return its output
        original = getattr(_lapack(), routine)

        def illegal(*args, **kwargs):
            return original(*args, **kwargs)[0], -2

        rng = np.random.default_rng(139)
        weeks, X, y, h = random_instance(rng, 20)
        model = fit(weeks, X, y, h)
        monkeypatch.setattr(_lapack(), routine, illegal)
        with pytest.raises(ValueError, match=f"argument 2 of LAPACK {routine}"):
            # calls every routine but dtrtrs
            lml_value_and_gradient(weeks, X, y, h, lag=lag_table(weeks))
            predict(model, 130, X[0])

    def test_singular_triangular_solve_raises(self, monkeypatch):
        dtrtrs = _lapack().dtrtrs
        monkeypatch.setattr(_lapack(), "dtrtrs",
                            lambda *args, **kwargs: (dtrtrs(*args, **kwargs)[0], 3))
        model = fit(*ONE_WEEK, [1.0], make_hyperparameters())
        with pytest.raises(ModelFitError, match="dtrtrs info 3"):
            predict(model, 4, np.zeros(3))

    def test_jitter_stays_bounded(self):
        h = make_hyperparameters(sigma_noise_sq=0.0)
        K = gram_from_arrays([5, 5], np.zeros((2, 3)), h, include_noise=True)
        L, jitter = _chol_with_jitter(K)
        assert jitter <= 1e-4 * np.mean(np.diag(K))
        assert np.all(np.isfinite(L))
