"""Exact Gaussian-process regression on weekly incidence.

Fitting factorizes K + sigma_noise^2 I once (Cholesky) and caches the
weight vector alpha = (K + sigma_noise^2 I)^-1 y; prediction is then two
triangular solves per query:

    mean     = k_*^T alpha
    variance = k(x_*, x_*) - || L^-1 k_* ||^2

Inputs are a design of n week indices, its (n, 3) matrix of
standardized covariate rows and n targets; a query is one week plus its
(3,) covariate row.  Targets are centered log-incidence; the attached
transform state maps predictions back to the natural incidence scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .kernels import (
    COVARIATE_DIM,
    KernelHyperparameters,
    gram_from_arrays,
    gram_gradients,
    kernel_vector,
)
from .preprocess import TransformState

LOG_2PI = np.log(2.0 * np.pi)

#: Predictive variances in [-VARIANCE_CLAMP, 0) are treated as round-off
#: and clamped to zero; anything more negative raises.
VARIANCE_CLAMP = 1e-10

_JITTER_START = 1e-8
_JITTER_MAX = 1e-4


class ModelFitError(RuntimeError):
    """Raised when a model cannot be fit (ill-conditioned Gram matrix,
    degenerate data, or an optimizer that never produced a finite value)."""


def _chol_with_jitter(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor, escalating diagonal jitter on failure.

    Jitter starts at 1e-8 * mean(diag) and grows tenfold up to
    1e-4 * mean(diag) before giving up.
    """
    scale = float(np.mean(np.diag(K)))
    jitter = 0.0
    while True:
        try:
            return cholesky(K + jitter * np.eye(K.shape[0]), lower=True), jitter
        except np.linalg.LinAlgError:
            if jitter == 0.0:
                jitter = _JITTER_START * scale
            elif jitter >= _JITTER_MAX * scale:
                raise ModelFitError(
                    "Cholesky factorization failed even with jitter "
                    f"{jitter:.3e}; hyperparameters are ill-conditioned"
                ) from None
            else:
                jitter *= 10.0


@dataclass(frozen=True)
class TrainedGP:
    """Immutable fitted state; safe to share across threads."""

    weeks: np.ndarray
    covariates: np.ndarray
    targets: np.ndarray
    hyperparameters: KernelHyperparameters
    chol: np.ndarray
    alpha: np.ndarray
    transform: TransformState | None = None
    jitter: float = 0.0


@dataclass(frozen=True)
class PredictiveDistribution:
    """Gaussian predictive on the centered log scale plus its
    back-transformed point forecast and 95% interval on the DIR scale."""

    mean: float
    variance: float
    natural_mean: float
    natural_lower: float
    natural_upper: float

    @property
    def sd(self) -> float:
        return float(np.sqrt(self.variance))

    @property
    def natural_interval(self) -> tuple[float, float]:
        return (self.natural_lower, self.natural_upper)


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


def fit(weeks, X, targets, h: KernelHyperparameters,
        transform: TransformState | None = None) -> TrainedGP:
    """Factorize the noisy Gram matrix and precompute the weight vector.

    Parameters
    ----------
    weeks : array-like, shape (n,)
    X : array-like, shape (n, 3)
        Standardized covariate rows, one per week.
    targets : array-like, shape (n,)
        Centered log-scale observations.
    h : KernelHyperparameters
    transform : TransformState, optional
        Carried along so predictions can be mapped back to the natural
        scale; a missing transform means identity centering.
    """
    weeks, X, targets = validate_design(weeks, X, targets)
    K = gram_from_arrays(weeks, X, h, include_noise=True)
    L, jitter = _chol_with_jitter(K)
    alpha = cho_solve((L, True), targets)
    return TrainedGP(weeks=weeks, covariates=X, targets=targets,
                     hyperparameters=h, chol=L, alpha=alpha,
                     transform=transform, jitter=jitter)


def predict(model: TrainedGP, week, x) -> PredictiveDistribution:
    """Closed-form predictive mean and variance at one query week with
    its (3,) covariate row."""
    x = np.asarray(x, dtype=float)
    if x.shape != (COVARIATE_DIM,) or not np.all(np.isfinite(x)):
        raise ValueError(f"query covariates must be a finite ({COVARIATE_DIM},) array")
    h = model.hyperparameters
    kstar = kernel_vector(model.weeks, model.covariates, week, x, h)
    if not np.all(np.isfinite(kstar)):
        raise ValueError("non-finite kernel evaluation at query")
    mean = float(kstar @ model.alpha)
    v = solve_triangular(model.chol, kstar, lower=True)
    kss = float(kernel_vector([week], x[None, :], week, x, h)[0])
    variance = kss - float(v @ v)
    if variance < 0.0:
        if variance < -VARIANCE_CLAMP:
            raise ModelFitError(
                f"predictive variance {variance:.3e} below the round-off "
                "clamp; this indicates a bug or broken factorization"
            )
        variance = 0.0

    offset = 0.0 if model.transform is None else model.transform.response_mean
    center = mean + offset
    half = 1.96 * np.sqrt(variance)
    return PredictiveDistribution(
        mean=mean,
        variance=variance,
        natural_mean=float(np.expm1(center)),
        natural_lower=max(0.0, float(np.expm1(center - half))),
        natural_upper=max(0.0, float(np.expm1(center + half))),
    )


def log_marginal_likelihood(weeks, X, targets, h: KernelHyperparameters) -> float:
    """log p(y | X, theta) = -1/2 y^T alpha - sum_i log L_ii - N/2 log 2pi."""
    model = fit(weeks, X, targets, h)
    return _lml_from_factors(model.targets, model.chol, model.alpha)


def _lml_from_factors(targets, L, alpha) -> float:
    n = targets.size
    return float(-0.5 * targets @ alpha
                 - np.sum(np.log(np.diag(L)))
                 - 0.5 * n * LOG_2PI)


def lml_value_and_gradient(weeks, X, targets,
                           h: KernelHyperparameters) -> tuple[float, np.ndarray]:
    """Marginal likelihood and its gradient w.r.t. all log-hyperparameters.

    Gradient entries follow kernels.PARAM_NAMES: 1/2 tr(W dK/dtheta) with
    W = alpha alpha^T - (K + sigma^2 I)^-1 (GPML eq. 5.9), which
    kernels.gram_gradients sums by lag.  The design is not validated
    here: this runs once per optimizer evaluation, and optimize
    validates it once up front.
    """
    targets = np.asarray(targets, dtype=float)
    K = gram_from_arrays(weeks, X, h, include_noise=True)
    L, _ = _chol_with_jitter(K)
    alpha = cho_solve((L, True), targets)
    value = _lml_from_factors(targets, L, alpha)

    K_inv = cho_solve((L, True), np.eye(targets.size))
    W = np.outer(alpha, alpha) - K_inv
    return value, 0.5 * gram_gradients(weeks, X, h, W)
