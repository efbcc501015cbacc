"""Series and covariate preparation ahead of model fitting.

Everything here is leakage-safe by construction: statistics are computed
from a caller-supplied training prefix only and then applied unchanged to
later weeks.  The full per-city recipe is

    1. additive-outlier cleaning of the incidence series,
    2. log(1 + y) transform,
    3. centering by the training-window mean,
    4. per-covariate lag selection (4..26 weeks, training data only),
    5. covariate standardization with training-window statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import WeeklySeries

LAG_MIN = 4
LAG_MAX = 26

_MAD_TO_SD = 1.4826

_OUTLIER_CRITICAL_VALUE = 3.5
_OUTLIER_MAX_ITERATIONS = 10


@dataclass(frozen=True)
class TransformState:
    """Frozen training-window statistics needed to rebuild model inputs
    and map predictions back to the incidence scale."""

    response_mean: float
    covariate_means: tuple[float, float, float]
    covariate_stds: tuple[float, float, float]
    lags: tuple[int, int, int]
    flagged_weeks: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if any(s <= 0 for s in self.covariate_stds):
            raise ValueError("covariate stds must be strictly positive")
        if any(lag < LAG_MIN or lag > LAG_MAX for lag in self.lags):
            raise ValueError(f"lags must lie in [{LAG_MIN}, {LAG_MAX}]")

    def to_dict(self) -> dict:
        return {
            "response_mean": self.response_mean,
            "covariate_means": list(self.covariate_means),
            "covariate_stds": list(self.covariate_stds),
            "lags": list(self.lags),
            "flagged_weeks": list(self.flagged_weeks),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TransformState":
        return cls(
            response_mean=float(d["response_mean"]),
            covariate_means=tuple(float(v) for v in d["covariate_means"]),
            covariate_stds=tuple(float(v) for v in d["covariate_stds"]),
            lags=tuple(int(v) for v in d["lags"]),
            flagged_weeks=tuple(int(v) for v in d.get("flagged_weeks", ())),
        )


def log_transform(series: WeeklySeries) -> WeeklySeries:
    """Map each value to ln(1 + value); inverse is inverse_log_transform."""
    if np.any(series.values < 0):
        raise ValueError("log transform requires nonnegative values")
    return WeeklySeries(series.city_id, series.start_week, np.log1p(series.values))


def inverse_log_transform(series: WeeklySeries) -> WeeklySeries:
    return WeeklySeries(series.city_id, series.start_week, np.expm1(series.values))


def center_response(series: WeeklySeries, training_end: int) -> tuple[WeeklySeries, float]:
    """Subtract the mean of weeks [start, training_end]; return the mean.

    Only the training prefix contributes to the mean so that later weeks
    never leak into the fitted state.
    """
    n_train = training_end - series.start_week + 1
    if n_train < 1 or training_end > series.end_week:
        raise ValueError("training_end must fall inside the series")
    mean = float(np.mean(series.values[:n_train]))
    return WeeklySeries(series.city_id, series.start_week, series.values - mean), mean


def standardize_covariates(cov: np.ndarray, n_training_rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-column (x - mean) / std using the first n_training_rows only.

    Uses the population (1/N) std convention.  Returns the standardized
    matrix (all rows) plus the training means and stds.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2:
        raise ValueError("covariate matrix must be 2-D")
    if not 1 <= n_training_rows <= cov.shape[0]:
        raise ValueError("n_training_rows must fall inside the matrix")
    train = cov[:n_training_rows]
    means = train.mean(axis=0)
    stds = train.std(axis=0)
    if np.any(stds == 0):
        bad = int(np.flatnonzero(stds == 0)[0])
        raise ValueError(f"covariate column {bad} is constant over the training window")
    return (cov - means) / stds, means, stds


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt(np.sum(xc * xc) * np.sum(yc * yc))
    if denom == 0:
        raise ValueError("zero-variance overlap in lag correlation")
    return float(np.sum(xc * yc) / denom)


def select_lag(covariate: np.ndarray, target: np.ndarray, training_end: int,
               start_week: int = 1) -> int:
    """Lag in LAG_MIN..LAG_MAX maximizing |corr(lagged covariate, target)|.

    Both arrays are week-aligned from ``start_week``.  Only target weeks
    up to ``training_end`` enter the correlation; ties break toward the
    smaller lag.
    """
    covariate = np.asarray(covariate, dtype=float)
    target = np.asarray(target, dtype=float)
    n_train = training_end - start_week + 1
    if n_train > min(covariate.size, target.size):
        raise ValueError("training_end must fall inside both series")
    if n_train <= LAG_MAX + 10:
        raise ValueError(f"training window too short for lags up to {LAG_MAX}")

    best_lag, best_abs = None, -1.0
    for lag in range(LAG_MIN, LAG_MAX + 1):
        # target week w pairs with covariate week w - lag
        t = target[lag:n_train]
        c = covariate[: n_train - lag]
        r = abs(_pearson(c, t))
        if r > best_abs + 1e-15:
            best_lag, best_abs = lag, r
    return best_lag


def _ar_design(z: np.ndarray, order: int, t0: int) -> tuple[np.ndarray, np.ndarray]:
    # rows t = t0 .. n-1; columns [1, z_{t-1}, ..., z_{t-order}]
    n = z.size
    X = np.ones((n - t0, order + 1))
    for i in range(1, order + 1):
        X[:, i] = z[t0 - i:n - i]
    return X, z[t0:]


def _fit_ar(z: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """OLS AR(order) fit; returns (coefficients, fitted, residuals) for
    positions order..n-1."""
    X, y = _ar_design(z, order, order)
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    fitted = X @ coef
    return coef, fitted, y - fitted


def _select_ar_order(z: np.ndarray, max_order: int = 4) -> int:
    """AIC order selection over 1..max_order on a common sample."""
    n_eff = z.size - max_order
    best_order, best_aic = 1, np.inf
    for p in range(1, max_order + 1):
        X, y = _ar_design(z, p, max_order)
        coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        rss = float(np.sum((y - X @ coef) ** 2))
        aic = n_eff * np.log(max(rss / n_eff, 1e-300)) + 2.0 * (p + 1)
        if aic < best_aic:
            best_order, best_aic = p, aic
    return best_order


def remove_additive_outliers(series: WeeklySeries) -> tuple[WeeklySeries, list[int]]:
    """Detect and patch single-week anomalies against an AR fit.

    Works on the log(1 + y) scale.  Each round fits an AR model (order by
    AIC over 1..4), scores every week with the outlier t-ratio built from
    the AR pi-weights and a MAD residual scale, and replaces the worst
    week with its fitted value while the ratio exceeds
    _OUTLIER_CRITICAL_VALUE (at most _OUTLIER_MAX_ITERATIONS rounds).
    Patched values are floored at zero on the natural scale.  The first
    ``order`` weeks carry no residual and are never flagged.

    Returns the patched copy and the flagged week indices, in the order
    they were flagged.
    """
    values = series.values
    if values.size < 20:
        raise ValueError("series too short for outlier screening (need >= 20)")
    if not np.all(np.isfinite(values)):
        raise ValueError("series contains non-finite values")
    if np.any(values < 0):
        raise ValueError("series must be nonnegative")

    z = np.log1p(values.astype(float))
    flagged: list[int] = []
    if np.ptp(z) == 0:
        return WeeklySeries(series.city_id, series.start_week, values.copy()), flagged

    for _ in range(_OUTLIER_MAX_ITERATIONS):
        order = _select_ar_order(z)
        coef, fitted, resid = _fit_ar(z, order)
        sigma = _MAD_TO_SD * float(np.median(np.abs(resid - np.median(resid))))
        if sigma == 0:
            sigma = float(np.std(resid))
        if sigma == 0:
            break

        # AO effect of an outlier at t on residuals: e_{t+k} += omega * pi_k
        # with pi_0 = 1, pi_k = -phi_k.  Least-squares omega per position,
        # then a t-ratio against the robust residual scale.
        pi = np.concatenate(([1.0], -coef[1:]))
        n = z.size
        tau = np.zeros(n)
        omega = np.zeros(n)
        for t in range(order, n):
            ks = np.arange(0, min(order, n - 1 - t) + 1)
            piks = pi[ks]
            den = float(piks @ piks)
            om = float(resid[t - order + ks] @ piks) / den
            omega[t] = om
            tau[t] = om * np.sqrt(den) / sigma

        worst = int(np.argmax(np.abs(tau)))
        if abs(tau[worst]) <= _OUTLIER_CRITICAL_VALUE:
            break
        if worst not in flagged:
            flagged.append(worst)
        z[worst] = fitted[worst - order]

    out = values.astype(float).copy()
    for idx in flagged:
        # an AR fitted value can fall below log1p(0) = 0; incidence cannot
        out[idx] = max(np.expm1(z[idx]), 0.0)
    weeks = [series.start_week + idx for idx in flagged]
    return WeeklySeries(series.city_id, series.start_week, out), weeks
