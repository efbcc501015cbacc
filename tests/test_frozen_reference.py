"""Bit pins for the likelihood path: a frozen copy of an earlier, plainer
implementation of the time kernel, the Gram matrix, the
dpotrf/dpotrs/dpotri chain and the gradient contraction must agree with
lml_value_and_gradient, fit and predict to the last bit.  The synthetic
generator is pinned to the same chain plus its constant bias, and the
optimizer's box and restart starts against literals."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg.lapack as lapack

from denguegp.gp import ModelFitError, fit, lml_value_and_gradient, predict
from denguegp.hyperopt import LOG_BOUNDS, PARAMETERS, default_initialization
from denguegp.kernels import PARAM_NAMES, KernelHyperparameters, lag_table
from denguegp.synth import SynthSpec, draw_from_prior, low_incidence_spec, strongly_periodic_spec

from test_kernels import irregular_design, make_hyperparameters, random_hyperparameters

SQRT5 = np.sqrt(5.0)


def frozen_time_parts(dt, h):
    dt = np.asarray(dt, dtype=float)
    a_loc, a_qp = SQRT5 * dt / h.ell_loc, SQRT5 * dt / h.ell_qp
    e_loc, e_qp = np.exp(-a_loc), np.exp(-a_qp)
    u = np.pi * dt / h.period
    s = np.sin(u)
    k_per = np.exp(-2.0 * s * s / (h.ell_per * h.ell_per))
    k_qp = h.sigma_qp_sq * (1.0 + a_qp + a_qp * a_qp / 3.0) * e_qp * k_per
    return np.stack([
        h.sigma_loc_sq * (1.0 + a_loc + a_loc * a_loc / 3.0) * e_loc,
        h.sigma_loc_sq * e_loc * a_loc * a_loc * (1.0 + a_loc) / 3.0,
        k_qp,
        h.sigma_qp_sq * e_qp * a_qp * a_qp * (1.0 + a_qp) / 3.0 * k_per,
        k_qp * 4.0 * s**2 / (h.ell_per**2),
        k_qp * 2.0 * u * np.sin(2.0 * u) / (h.ell_per**2),
    ])


def frozen_gram(weeks, X, h):
    """(lag, parts, K): the week distances, the time parts at lags
    0..max and the noise-free Gram matrix, by the frozen chain."""
    w = weeks.astype(np.int64)
    lag = np.abs(w[:, None] - w[None, :])
    parts = frozen_time_parts(np.arange(np.ptp(weeks) + 1.0), h)
    Z = X / h.ard_lengthscales
    K = (parts[0] + parts[2])[lag]
    K += Z @ Z.T
    return lag, parts, K


def frozen_cholesky(K):
    """Lower factor by the frozen jitter ladder, which raises
    ModelFitError as the shipped one does."""
    scale, jitter = float(np.mean(np.diag(K))), 0.0
    while True:
        L, info = lapack.dpotrf(K if jitter == 0.0 else K + jitter * np.eye(len(K)),
                                lower=1, clean=1)
        if info == 0:
            return L
        if jitter >= 1e-4 * scale:
            raise ModelFitError("jitter ladder exhausted")
        jitter = 1e-8 * scale if jitter == 0.0 else jitter * 10.0


def frozen_fit(weeks, X, y, h):
    """(L, alpha, value, gradient) by the frozen chain."""
    lag, parts, K = frozen_gram(weeks, X, h)
    K[np.diag_indices_from(K)] += h.sigma_noise_sq
    L = frozen_cholesky(K)
    solved = lapack.dpotrs(L, np.column_stack([y, X]), lower=1)[0]
    alpha, cols = solved[:, 0], solved[:, 1:]
    value = float(-0.5 * y @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * y.size * np.log(2 * np.pi))
    inverse = lapack.dpotri(L, lower=1)[0]
    n_lags = parts.shape[1]
    per_week = np.bincount(lag[np.argmin(weeks)], weights=alpha, minlength=n_lags)
    outer = np.correlate(per_week, per_week, "full")[n_lags - 1:]
    lower = np.bincount(lag.ravel(), weights=inverse.ravel(order="F"), minlength=n_lags)
    trace = np.trace(inverse)
    lag_sums = 2.0 * (outer - lower)
    lag_sums[0] += trace - outer[0]
    ard = -2.0 * ((X.T @ alpha) ** 2 - np.sum(X * cols, axis=0))
    grad = np.concatenate([parts @ lag_sums, ard / h.ard_lengthscales**2,
                           [h.sigma_noise_sq * (alpha @ alpha - trace)]])
    return L, alpha, value, 0.5 * grad


def frozen_predict(weeks, X, L, alpha, h, week, x):
    """(mean, variance) at one query, before the shipped round-off clamp."""
    def kvec(wk, Xk):
        parts = frozen_time_parts(np.abs(wk - float(week)), h)
        return parts[0] + parts[2] + Xk @ (x / h.ard_lengthscales**2)
    kstar = kvec(weeks, X)
    v = lapack.dtrtrs(L, kstar, lower=1)[0]
    return float(kstar @ alpha), float(kvec(np.array([float(week)]), x[None, :])[0]) - float(v @ v)


def frozen_draw(spec, bias):
    """(standardized covariates, latent, log observations) by the
    generating chain of the model that fitted the bias as sigma_lin_sq:
    time kernel, Z Z^T, the bias, the jitter ladder, then the draw."""
    rng = np.random.default_rng(spec.seed)
    weeks = np.arange(1, spec.weeks + 1)
    raw = np.column_stack([p.sample(weeks, rng) for p in spec.covariates])
    std = raw.std(axis=0)
    X = (raw - raw.mean(axis=0)) / np.where(std == 0, 1.0, std)
    K = frozen_gram(weeks, X, spec.hyperparameters)[2]
    K += bias
    latent = frozen_cholesky(K) @ rng.standard_normal(spec.weeks)
    noise = rng.normal(0.0, 1.0, spec.weeks) * np.sqrt(spec.hyperparameters.sigma_noise_sq)
    return X, latent, spec.log_offset + latent + noise


def assert_bit_identical(weeks, X, y, h):
    """Returns whether the shared jitter ladder was exhausted."""
    weeks, X, y = np.asarray(weeks, dtype=float), np.asarray(X, dtype=float), np.asarray(y)
    try:
        L, alpha, value, grad = frozen_fit(weeks, X, y, h)
    except ModelFitError:
        with pytest.raises(ModelFitError):
            lml_value_and_gradient(weeks, X, y, h, lag=lag_table(weeks))
        with pytest.raises(ModelFitError):
            fit(weeks, X, y, h)
        return True
    shipped_value, shipped_grad = lml_value_and_gradient(weeks, X, y, h, lag=lag_table(weeks))
    assert shipped_value == value and np.array_equal(shipped_grad, grad)
    model = fit(weeks, X, y, h)
    assert np.array_equal(model.chol, L) and np.array_equal(model.alpha, alpha)
    for week, x in ((weeks.max() + 4, X[0]), (weeks.min(), X[-1])):
        mean, variance = frozen_predict(weeks, X, L, alpha, h, week, x)
        dist = predict(model, week, x)
        assert dist.mean == mean and dist.variance == max(variance, 0.0)
    return False


class TestFrozenReference:
    def test_consecutive_weeks(self):
        rng = np.random.default_rng(601)
        for _ in range(20):
            n = int(rng.integers(30, 90))
            weeks = np.arange(40, 40 + n)
            assert not assert_bit_identical(weeks, rng.normal(size=(n, 3)),
                                            rng.normal(size=n), random_hyperparameters(rng))

    def test_gapped_unsorted_repeated_weeks(self):
        rng = np.random.default_rng(603)
        for _ in range(20):
            weeks, X = irregular_design(rng, 40)
            assert not assert_bit_identical(weeks, X, rng.normal(size=40),
                                            random_hyperparameters(rng))

    def test_zero_noise_duplicates_enter_the_jitter_ladder(self):
        rng = np.random.default_rng(607)
        weeks, X = np.repeat(np.arange(10, 25), 2), np.repeat(rng.normal(size=(15, 3)), 2, axis=0)
        h = make_hyperparameters(sigma_noise_sq=0.0)
        assert fit(weeks, X, rng.normal(size=30), h).jitter > 0.0
        assert not assert_bit_identical(weeks, X, rng.normal(size=30), h)

    def test_log_bounds_corners(self):
        rng = np.random.default_rng(609)
        weeks = np.arange(1, 61)
        X, y = rng.normal(size=(60, 3)), rng.normal(size=60)
        corners = list(itertools.product(*LOG_BOUNDS))
        picks = rng.choice(len(corners), size=24, replace=False)
        exhausted = [assert_bit_identical(
            weeks, X, y, KernelHyperparameters.from_log_vector(corners[i])) for i in picks]
        assert not all(exhausted)

    def test_generator_keeps_its_draws(self):
        # each preset with the bias it drew with as the model's sigma_lin_sq
        for spec, bias in ((SynthSpec(seed=3), 0.02), (low_incidence_spec(seed=4), 0.01),
                           (strongly_periodic_spec(seed=5), 0.01)):
            draw = draw_from_prior(spec)
            X, latent, log_observations = frozen_draw(spec, bias)
            assert np.array_equal(draw.standardized_covariates, X)
            assert np.array_equal(draw.latent, latent)
            assert np.array_equal(draw.log_observations, log_observations)

    def test_parameter_table(self):
        assert tuple(PARAMETERS) == PARAM_NAMES
        variance, lengthscale = (1e-6, 1e3), (0.5, 300.0)
        box = [variance, lengthscale, variance, lengthscale, lengthscale, (20.0, 110.0),
               lengthscale, lengthscale, lengthscale, variance]
        assert LOG_BOUNDS == tuple((math.log(lo), math.log(hi)) for lo, hi in box)
        lo, hi = np.array(LOG_BOUNDS).T
        for target_variance in (0.0, 1e-9, 1e-6, 0.37, 1.0, 7.0, 2.9e3, 1e5):
            v = max(target_variance, 1e-6)
            start = np.clip(np.log([v / 3, 2.0, v / 3, 58.0, 1.0, 52.0,
                                    30.0, 30.0, 30.0, v / 10]), lo, hi)
            h = default_initialization(target_variance, 0)
            assert h == KernelHyperparameters.from_log_vector(start)
            rng, expected_rng = np.random.default_rng(613), np.random.default_rng(613)
            for i in (1, 2, 3):
                jittered = np.clip(start + expected_rng.uniform(-0.7, 0.7, size=10), lo, hi)
                h = default_initialization(target_variance, i, rng)
                assert h == KernelHyperparameters.from_log_vector(jittered)
