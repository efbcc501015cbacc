"""Bit pins for the likelihood path: a frozen copy of an earlier, plainer
implementation of the time kernel, the Gram matrix, the
dpotrf/dpotrs/dpotri chain and the gradient contraction must agree with
lml_value_and_gradient, fit and predict to the last bit."""

import itertools

import numpy as np
import pytest
import scipy.linalg.lapack as lapack

from denguegp.gp import ModelFitError, fit, lml_value_and_gradient, predict
from denguegp.hyperopt import LOG_BOUNDS
from denguegp.kernels import KernelHyperparameters, lag_table

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


def frozen_fit(weeks, X, y, h):
    """(L, alpha, value, gradient) by the frozen chain; the jitter
    ladder raises ModelFitError as the shipped one does."""
    w = weeks.astype(np.int64)
    lag = np.abs(w[:, None] - w[None, :])
    parts = frozen_time_parts(np.arange(np.ptp(weeks) + 1.0), h)
    Z = X / h.ard_lengthscales
    K = (parts[0] + parts[2])[lag]
    K += Z @ Z.T
    K += h.sigma_lin_sq
    K[np.diag_indices_from(K)] += h.sigma_noise_sq
    scale, jitter = float(np.mean(np.diag(K))), 0.0
    while True:
        L, info = lapack.dpotrf(K if jitter == 0.0 else K + jitter * np.eye(len(w)),
                                lower=1, clean=1)
        if info == 0:
            break
        if jitter >= 1e-4 * scale:
            raise ModelFitError("jitter ladder exhausted")
        jitter = 1e-8 * scale if jitter == 0.0 else jitter * 10.0
    solved = lapack.dpotrs(L, np.column_stack([y, X, np.ones(y.size)]), lower=1)[0]
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
    ard = -2.0 * ((X.T @ alpha) ** 2 - np.sum(X * cols[:, :3], axis=0))
    bias = alpha.sum() ** 2 - cols[:, 3].sum()
    grad = np.concatenate([parts @ lag_sums, [h.sigma_lin_sq * bias],
                           ard / h.ard_lengthscales**2,
                           [h.sigma_noise_sq * (alpha @ alpha - trace)]])
    return L, alpha, value, 0.5 * grad


def frozen_predict(weeks, X, L, alpha, h, week, x):
    """(mean, variance) at one query, before the shipped round-off clamp."""
    def kvec(wk, Xk):
        parts = frozen_time_parts(np.abs(wk - float(week)), h)
        return parts[0] + parts[2] + (h.sigma_lin_sq + Xk @ (x / h.ard_lengthscales**2))
    kstar = kvec(weeks, X)
    v = lapack.dtrtrs(L, kstar, lower=1)[0]
    return float(kstar @ alpha), float(kvec(np.array([float(week)]), x[None, :])[0]) - float(v @ v)


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
