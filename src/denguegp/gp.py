"""Exact Gaussian-process regression on weekly incidence.

Fitting factorizes K + sigma_noise^2 I once (Cholesky) and caches the
weight vector alpha = (K + sigma_noise^2 I)^-1 y; prediction is then one
triangular solve per query:

    mean     = k_*^T alpha
    variance = k(x_*, x_*) - || L^-1 k_* ||^2

Inputs are a design of n week indices, its (n, 3) matrix of
standardized covariate rows and n targets; a query is one week plus its
(3,) covariate row.  Targets are centered log-incidence, and everything
here stays on that scale: evaluation.to_natural maps a prediction back
to the incidence (DIR) scale.

Factorizations and solves call LAPACK (dpotrf, dpotrs, dtrtrs, dpotri)
from scipy.linalg.lapack, imported on first use so that a process that
fits no GP never loads scipy.  They keep the checks of scipy's wrappers:
a non-finite Gram matrix and every nonzero info raise, except that a
failed dpotrf enters the jitter ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .kernels import (
    COVARIATE_DIM,
    KernelHyperparameters,
    _by_lag,
    gram_from_arrays,
    gram_gradients,
    kernel_vector,
)

LOG_2PI = np.log(2.0 * np.pi)

#: Predictive variances in [-VARIANCE_CLAMP, 0) are treated as round-off
#: and clamped to zero; anything more negative raises.
VARIANCE_CLAMP = 1e-10

_JITTER_START = 1e-8
_JITTER_MAX = 1e-4


class ModelFitError(RuntimeError):
    """Raised when a model cannot be fit (ill-conditioned Gram matrix,
    degenerate data, or an optimizer that never produced a finite value)
    or its forecast overflows the float range."""


@cache
def _lapack():
    """scipy.linalg.lapack, imported on the first factorization."""
    from scipy.linalg import lapack
    return lapack


def _check_info(routine: str, info: int) -> None:
    """Raise on a nonzero LAPACK info: < 0 is an illegal argument, > 0 a
    singular factor."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine}")
    if info > 0:
        raise ModelFitError(f"singular Cholesky factor ({routine} info {info})")


def _chol_with_jitter(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor by dpotrf, escalating diagonal jitter on failure.

    Jitter starts at 1e-8 * mean(diag) and grows tenfold up to
    1e-4 * mean(diag) before giving up.  The factor is Fortran-ordered
    and its upper triangle is zero.  A non-finite matrix raises
    ValueError.
    """
    jitter = 0.0
    while True:
        jittered = K if jitter == 0.0 else K + jitter * np.eye(K.shape[0])
        if not np.isfinite(jittered).all():
            raise ValueError("array must not contain infs or NaNs")
        L, info = _lapack().dpotrf(jittered, lower=1, clean=1)
        if info == 0:
            return L, jitter
        if info < 0:
            _check_info("dpotrf", info)
        if jitter == 0.0:
            scale = float(np.mean(np.diag(K)))
            jitter = _JITTER_START * scale
        elif jitter >= _JITTER_MAX * scale:
            raise ModelFitError(
                "Cholesky factorization failed even with jitter "
                f"{jitter:.3e}; hyperparameters are ill-conditioned")
        else:
            jitter *= 10.0


def _cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(L L^T)^-1 b by dpotrs, for a lower factor from _chol_with_jitter."""
    x, info = _lapack().dpotrs(L, b, lower=1)
    _check_info("dpotrs", info)
    return x


@dataclass(frozen=True)
class TrainedGP:
    """Immutable fitted state; safe to share across threads."""

    weeks: np.ndarray
    covariates: np.ndarray
    hyperparameters: KernelHyperparameters
    chol: np.ndarray
    alpha: np.ndarray
    jitter: float = 0.0


@dataclass(frozen=True)
class PredictiveDistribution:
    """Gaussian predictive of the latent (noise-free) function on the
    centered log scale."""

    mean: float
    variance: float


def validate_design(weeks, X, targets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check a training design and return it as float arrays.

    Rejects an empty design, an X that is not (n, 3), lengths that do
    not match, and non-finite values.
    """
    weeks = np.array(weeks, dtype=float)
    X = np.array(X, dtype=float)  # a copy: TrainedGP must not alias the caller's rows
    targets = np.asarray(targets, dtype=float)
    if weeks.ndim != 1 or weeks.size == 0:
        raise ValueError("weeks must be a non-empty 1-D array")
    if X.ndim != 2 or X.shape[1] != COVARIATE_DIM:
        raise ValueError(f"X must have shape (n, {COVARIATE_DIM})")
    if X.shape[0] != weeks.size or targets.shape != weeks.shape:
        raise ValueError("weeks, X and targets must have matching lengths")
    if not (np.all(np.isfinite(weeks)) and np.all(np.isfinite(X))):
        raise ValueError("weeks and X must be finite")
    if not np.all(np.isfinite(targets)):
        raise ValueError("targets must be finite")
    return weeks, X, targets


def fit(weeks, X, targets, h: KernelHyperparameters) -> TrainedGP:
    """Factorize the noisy Gram matrix and precompute the weight vector.

    Parameters
    ----------
    weeks : array-like, shape (n,)
    X : array-like, shape (n, 3)
        Standardized covariate rows, one per week.
    targets : array-like, shape (n,)
        Centered log-scale observations.
    h : KernelHyperparameters
    """
    weeks, X, targets = validate_design(weeks, X, targets)
    K = gram_from_arrays(weeks, X, h, include_noise=True)
    L, jitter = _chol_with_jitter(K)
    alpha = _cho_solve(L, targets)
    return TrainedGP(weeks=weeks, covariates=X, hyperparameters=h, chol=L,
                     alpha=alpha, jitter=jitter)


def predict(model: TrainedGP, week, x) -> PredictiveDistribution:
    """Closed-form predictive mean and latent variance at one query week
    with its (3,) covariate row, on the centered log scale of the
    targets; the variance leaves out sigma_noise_sq."""
    x = np.asarray(x, dtype=float)
    if x.shape != (COVARIATE_DIM,) or not np.all(np.isfinite(x)):
        raise ValueError(f"query covariates must be a finite ({COVARIATE_DIM},) array")
    h = model.hyperparameters
    kstar = kernel_vector(model.weeks, model.covariates, week, x, h)
    if not np.all(np.isfinite(kstar)):
        raise ValueError("non-finite kernel evaluation at query")
    mean = float(kstar @ model.alpha)
    v, info = _lapack().dtrtrs(model.chol, kstar, lower=1)
    _check_info("dtrtrs", info)
    kss = float(kernel_vector([week], x[None, :], week, x, h)[0])
    variance = kss - float(v @ v)
    if variance < 0.0:
        if variance < -VARIANCE_CLAMP:
            raise ModelFitError(
                f"predictive variance {variance:.3e} below the round-off "
                "clamp; this indicates a bug or broken factorization"
            )
        variance = 0.0
    return PredictiveDistribution(mean=mean, variance=variance)


def log_marginal_likelihood(weeks, X, targets, h: KernelHyperparameters) -> float:
    """log p(y | X, theta) = -1/2 y^T alpha - sum_i log L_ii - N/2 log 2pi."""
    model = fit(weeks, X, targets, h)
    return _lml_from_factors(np.asarray(targets, dtype=float), model.chol, model.alpha)


def _lml_from_factors(targets, L, alpha) -> float:
    n = targets.size
    return float(-0.5 * targets @ alpha
                 - np.log(L.diagonal()).sum()
                 - 0.5 * n * LOG_2PI)


def _inverse_lower(L: np.ndarray) -> np.ndarray:
    """Lower triangle of (L L^T)^-1 by dpotri, for a lower factor from
    _chol_with_jitter, which it overwrites; the upper triangle stays
    zero."""
    lower, info = _lapack().dpotri(L, lower=1, overwrite_c=1)
    _check_info("dpotri", info)
    return lower


def lml_value_and_gradient(weeks, X, targets, h: KernelHyperparameters,
                           *, lag) -> tuple[float, np.ndarray]:
    """Marginal likelihood and its gradient w.r.t. all log-hyperparameters.

    Gradient entries follow kernels.PARAM_NAMES: 1/2 tr(W dK/dtheta) with
    W = alpha alpha^T - (K + sigma^2 I)^-1 (GPML eq. 5.9), which
    kernels.gram_gradients contracts without forming W, from alpha, the
    lower triangle of the inverse (dpotri) and the inverse times
    [X, 1] (one dpotrs, which also gives alpha).  The time kernel is
    evaluated once and shared by the Gram matrix and its gradients.
    lag is kernels.lag_table(weeks), which optimize builds once per
    design.  The design is not validated here: this runs once per
    optimizer evaluation, and optimize validates it once up front.
    """
    targets = np.asarray(targets, dtype=float)
    by_lag = _by_lag(weeks, h, lag)
    K = gram_from_arrays(weeks, X, h, include_noise=True, by_lag=by_lag)
    L, _ = _chol_with_jitter(K)
    solved = _cho_solve(L, np.column_stack([targets, X, np.ones(targets.size)]))
    alpha = solved[:, 0]
    value = _lml_from_factors(targets, L, alpha)
    return value, 0.5 * gram_gradients(weeks, X, h, alpha, _inverse_lower(L),
                                       solved[:, 1:], by_lag=by_lag)
