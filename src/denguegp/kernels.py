"""Covariance functions for the incidence forecaster.

The covariance between two weeks is the sum of three parts:

    k(i, j) = k_loc(dt) + k_qp(dt) * k_per(dt) + k_lin(x_i, x_j)

where dt = |i - j| is the distance in weeks and x_i, x_j are the
standardized climate covariates (rainfall, temperature, humidity)
attached to each week.

* k_loc  -- Matern-5/2 over time: nearby weeks correlate.
* k_qp * k_per -- quasi-periodic part: a Matern-5/2 envelope times an
  exp-sine-squared kernel, correlating the same phase of nearby seasons
  while letting distant seasons decorrelate.
* k_lin  -- linear kernel with a bias term and one inverse-squared
  lengthscale per covariate (large lengthscale = irrelevant covariate).

A design is n whole-number week indices and an (n, 3) matrix of
covariate rows; the time parts are evaluated once per lag, through a
table of week distances that depends on the weeks alone.  Observation
noise adds sigma_noise^2 to the Gram diagonal.  All gradients are taken
with respect to the natural logarithm of each hyperparameter, which is
the parameterization the optimizer works in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

SQRT5 = math.sqrt(5.0)

COVARIATE_DIM = 3


@dataclass(frozen=True)
class KernelHyperparameters:
    """The ten covariance-function parameters plus observation noise.

    Variances are on the squared log-incidence scale, time lengthscales
    in weeks, the ARD lengthscales in standardized-covariate units.
    All values are stored on the natural scale; ``to_log_vector`` /
    ``from_log_vector`` convert to the unconstrained representation used
    by the optimizer.

    ``sigma_noise_sq`` may be exactly zero (noiseless interpolation);
    every other parameter must be strictly positive.
    """

    sigma_loc_sq: float
    ell_loc: float
    sigma_qp_sq: float
    ell_qp: float
    ell_per: float
    period: float
    sigma_lin_sq: float
    ell_rain: float
    ell_temp: float
    ell_hum: float
    sigma_noise_sq: float

    def __post_init__(self):
        for name in PARAM_NAMES:
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            if name == "sigma_noise_sq":
                if v < 0:
                    raise ValueError(f"sigma_noise_sq must be >= 0, got {v!r}")
            elif v <= 0:
                raise ValueError(f"{name} must be > 0, got {v!r}")

    @property
    def ard_lengthscales(self) -> np.ndarray:
        return np.array([self.ell_rain, self.ell_temp, self.ell_hum])

    def to_log_vector(self) -> np.ndarray:
        """Pack all 11 parameters as natural logs, in PARAM_NAMES order."""
        with np.errstate(divide="ignore"):  # log(0) -> -inf for zero noise
            return np.log([getattr(self, n) for n in PARAM_NAMES])

    @classmethod
    def from_log_vector(cls, log_theta) -> "KernelHyperparameters":
        log_theta = np.asarray(log_theta, dtype=float)
        if log_theta.shape != (len(PARAM_NAMES),):
            raise ValueError(f"expected {len(PARAM_NAMES)} log-parameters")
        return cls(*np.exp(log_theta).tolist())

    def to_dict(self) -> dict:
        return {n: float(getattr(self, n)) for n in PARAM_NAMES}

    @classmethod
    def from_dict(cls, d: dict) -> "KernelHyperparameters":
        return cls(**{n: float(d[n]) for n in PARAM_NAMES})


#: Canonical hyperparameter order for log-vector packing and gradients.
PARAM_NAMES = tuple(f.name for f in fields(KernelHyperparameters))


def _check_positive(**params):
    for name, v in params.items():
        if not np.isfinite(v) or v <= 0:
            raise ValueError(f"{name} must be a finite positive number, got {v!r}")


def matern52(dt, variance, lengthscale):
    """Matern-5/2 kernel over the time axis.

        k(dt) = variance * (1 + sqrt(5) dt / l + 5 dt^2 / (3 l^2))
                         * exp(-sqrt(5) dt / l)

    Accepts a scalar or array of nonnegative week distances.
    """
    _check_positive(variance=variance, lengthscale=lengthscale)
    a = SQRT5 * np.asarray(dt, dtype=float) / lengthscale
    return variance * (1.0 + a + a * a / 3.0) * np.exp(-a)


def periodic(dt, period, roughness):
    """Exp-sine-squared kernel: exp(-2 sin^2(pi dt / p) / l_per^2).

    Unit amplitude; equals 1 exactly when dt is a multiple of the period.
    """
    _check_positive(period=period, roughness=roughness)
    s = np.sin(np.pi * np.asarray(dt, dtype=float) / period)
    return np.exp(-2.0 * s * s / (roughness * roughness))


def linear_ard(x_i, x_j, bias, lengthscales):
    """Linear kernel with bias: bias + sum_d x_i[d] x_j[d] / l_d^2."""
    x_i = np.asarray(x_i, dtype=float)
    x_j = np.asarray(x_j, dtype=float)
    ell = np.asarray(lengthscales, dtype=float)
    if x_i.shape != x_j.shape or x_i.shape != ell.shape:
        raise ValueError("covariate vectors and lengthscales must share a shape")
    _check_positive(**{f"lengthscale[{d}]": ell[d] for d in range(ell.size)})
    return float(bias + np.sum(x_i * x_j / (ell * ell)))


def composite_kernel(week_a, x_a, week_b, x_b, h: KernelHyperparameters) -> float:
    """Full three-part covariance between two weekly inputs (no noise).

    The pairwise form of gram_from_arrays, kept as its reference.
    """
    dt = abs(week_a - week_b)
    k1 = matern52(dt, h.sigma_loc_sq, h.ell_loc)
    k2 = matern52(dt, h.sigma_qp_sq, h.ell_qp) * periodic(dt, h.period, h.ell_per)
    k3 = linear_ard(x_a, x_b, h.sigma_lin_sq, h.ard_lengthscales)
    return float(k1 + k2 + k3)


def _time_parts(dt, h: KernelHyperparameters) -> np.ndarray:
    """d k_time / d log theta at week distances dt, one row per
    PARAM_NAMES[:6].  Rows 0 and 2 (the variances) are k_loc and
    k_qp * k_per, so they add up to the time kernel itself.

    Computes matern52 and periodic inline, each exp and sin once on a
    contiguous array, in the same factor order, and writes each row in
    place; h is validated, so their positivity checks would repeat its own."""
    dt = np.asarray(dt, dtype=float)
    a = SQRT5 * dt
    a_loc, a_qp = a / h.ell_loc, a / h.ell_qp
    e_loc, e_qp = np.exp(-a_loc), np.exp(-a_qp)
    p_loc, p_qp = 1.0 + a_loc, 1.0 + a_qp
    u = np.pi * dt / h.period
    s = np.sin(u)
    k_per = np.exp(-2.0 * s * s / (h.ell_per * h.ell_per))
    parts = np.empty((6,) + dt.shape)
    k_qp = parts[2]
    np.multiply(h.sigma_loc_sq * (p_loc + a_loc * a_loc / 3.0), e_loc, out=parts[0])
    # d matern52 / d log(l) = variance * exp(-a) a^2 (1 + a) / 3, a = sqrt(5) dt / l
    np.divide(h.sigma_loc_sq * e_loc * a_loc * a_loc * p_loc, 3.0, out=parts[1])
    np.multiply(h.sigma_qp_sq * (p_qp + a_qp * a_qp / 3.0) * e_qp, k_per, out=k_qp)
    np.multiply(h.sigma_qp_sq * e_qp * a_qp * a_qp * p_qp / 3.0, k_per, out=parts[3])
    np.divide(k_qp * 4.0 * s**2, h.ell_per**2, out=parts[4])
    np.divide(k_qp * 2.0 * u * np.sin(2.0 * u), h.ell_per**2, out=parts[5])
    return parts


@dataclass(frozen=True)
class LagTable:
    """Whole-week distances over one design, with what every evaluation
    on it reads from them."""

    pairs: np.ndarray  # (n, n) integer |week_i - week_j|
    earliest: np.ndarray  # the earliest week's row: each week's offset from it
    dt: np.ndarray  # lags 0..max as floats, where _time_parts is evaluated


def lag_table(weeks) -> LagTable:
    """Whole-week distances |week_i - week_j| over a design.

    They depend on the weeks alone, so a caller that evaluates many
    hyperparameters on one design builds the table once.
    """
    weeks = np.asarray(weeks, dtype=float)
    if not (np.all(np.isfinite(weeks)) and np.array_equal(weeks, np.rint(weeks))):
        raise ValueError("design weeks must be whole numbers")
    w = weeks.astype(np.int64)
    pairs = np.abs(w[:, None] - w[None, :])
    return LagTable(pairs, pairs[np.argmin(weeks)], np.arange(np.ptp(weeks) + 1.0))


def _by_lag(weeks, h: KernelHyperparameters, lag=None) -> tuple[LagTable, np.ndarray]:
    """The lag table (lag_table(weeks) unless given) and _time_parts at
    lags 0..max."""
    lag = lag_table(weeks) if lag is None else lag
    return lag, _time_parts(lag.dt, h)


def gram_from_arrays(weeks, X, h: KernelHyperparameters, include_noise: bool,
                     *, by_lag=None) -> np.ndarray:
    """Gram matrix over a design of n weeks and its (n, 3) covariate rows.

    Exactly symmetric by construction: the time kernel is gathered from
    the symmetric lag table, and the linear part is Z Z^T with
    Z = X / ell, which BLAS forms as a symmetric rank-k update.  A
    caller that also needs gram_gradients passes _by_lag(weeks, h) as
    by_lag, so the time kernel is evaluated once for both.
    """
    lag, parts = _by_lag(weeks, h) if by_lag is None else by_lag
    Z = np.asarray(X, dtype=float) / h.ard_lengthscales
    k = (parts[0] + parts[2])[lag.pairs]
    k += Z @ Z.T
    k += h.sigma_lin_sq
    if include_noise:
        diagonal = k.reshape(-1)[::k.shape[0] + 1]  # a view: k is C-ordered
        diagonal += h.sigma_noise_sq
    return k


def kernel_vector(weeks, X, week, x, h: KernelHyperparameters) -> np.ndarray:
    """Covariances between one query (week, x) and each design row, noise-free."""
    parts = _time_parts(np.abs(np.asarray(weeks, dtype=float) - float(week)), h)
    linear = h.sigma_lin_sq + np.asarray(X, dtype=float) @ (x / h.ard_lengthscales**2)
    return parts[0] + parts[2] + linear


def gram_gradients(weeks, X, h: KernelHyperparameters, alpha, inverse_lower,
                   inverse_cols, *, by_lag) -> np.ndarray:
    """sum_ij W_ij d(K + sigma_noise^2 I)_ij / d(log theta), in PARAM_NAMES
    order, for W = alpha alpha^T - M with M symmetric (GPML eq. 5.9 has
    M = (K + sigma_noise^2 I)^-1), without forming W or any n x n gradient.

    M enters as inverse_lower, its lower triangle with the upper one
    zero (as LAPACK dpotri leaves it), and as inverse_cols = M [X, 1],
    shape (n, 4).  The time gradients contract _time_parts with the sums
    of W over each lag: those of alpha alpha^T autocorrelate alpha summed
    per week, which holds for any whole weeks, with gaps, repeats or no
    order; those of M count its strict lower triangle twice.  The ARD
    and bias gradients are quadratic forms of W in the columns of [X, 1],
    and the noise gradient is sigma_noise^2 tr(W).  by_lag is
    _by_lag(weeks, h), which the caller also passes to gram_from_arrays;
    the weeks are read through it alone.
    """
    lag, parts = by_lag
    X = np.asarray(X, dtype=float)
    n_lags = parts.shape[1]
    per_week = np.bincount(lag.earliest, weights=alpha, minlength=n_lags)
    outer_sums = np.correlate(per_week, per_week, "full")[n_lags - 1:]
    # lag.pairs is symmetric, so its C order pairs with the F order of inverse_lower
    lower_sums = np.bincount(lag.pairs.ravel(), weights=inverse_lower.ravel(order="F"),
                             minlength=n_lags)
    trace = inverse_lower.trace()
    lag_sums = 2.0 * (outer_sums - lower_sums)
    lag_sums[0] += trace - outer_sums[0]
    ard = -2.0 * ((X.T @ alpha) ** 2 - (X * inverse_cols[:, :3]).sum(axis=0))
    bias = alpha.sum() ** 2 - inverse_cols[:, 3].sum()
    return np.concatenate([parts @ lag_sums, [h.sigma_lin_sq * bias],
                           ard / h.ard_lengthscales**2,
                           [h.sigma_noise_sq * (alpha @ alpha - trace)]])
