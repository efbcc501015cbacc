"""Series and covariate preparation ahead of model fitting.

Every function here takes plain arrays and estimates its statistics
from all of them.  Leakage is ruled out one level up: the backtest hands
preprocessing only a training view (``evaluation.TrainingView``) that
ends at the forecast origin, and the frozen statistics are then applied
unchanged to query weeks.  The full per-city recipe is

    1. additive-outlier cleaning of the incidence series,
    2. log(1 + y) transform,
    3. centering by the mean of the log series,
    4. per-covariate lag selection (4..26 weeks),
    5. covariate standardization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def log_transform(values: np.ndarray) -> np.ndarray:
    """Map each value to ln(1 + value)."""
    values = np.asarray(values, dtype=float)
    if np.any(values < 0):
        raise ValueError("log transform requires nonnegative values")
    return np.log1p(values)


def standardize_covariates(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-column (x - mean) / std over all rows.

    Uses the population (1/N) std convention.  Returns the standardized
    matrix plus the column means and stds.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] == 0:
        raise ValueError("covariate matrix must be 2-D with at least one row")
    means = cov.mean(axis=0)
    stds = cov.std(axis=0)
    if np.any(stds == 0):
        bad = int(np.flatnonzero(stds == 0)[0])
        raise ValueError(f"covariate column {bad} is constant over the training window")
    return (cov - means) / stds, means, stds


def select_lag(covariate: np.ndarray, target: np.ndarray) -> int:
    """Lag in LAG_MIN..LAG_MAX maximizing |corr(lagged covariate, target)|.

    Both arrays are week-aligned and of equal length; ties break toward
    the smaller lag.
    """
    covariate = np.asarray(covariate, dtype=float)
    target = np.asarray(target, dtype=float)
    if covariate.ndim != 1 or covariate.shape != target.shape:
        raise ValueError("covariate and target must be 1-D with equal length")
    n_train = target.size
    if n_train <= LAG_MAX + 10:
        raise ValueError(f"training window too short for lags up to {LAG_MAX}")

    # row i pairs target weeks lag..n_train-1 with covariate weeks
    # 0..n_train-1-lag for lag = LAG_MIN + i; entries past each row's
    # overlap are zero in both arrays and masked out of the centering
    lags = np.arange(LAG_MIN, LAG_MAX + 1)
    width = n_train - LAG_MIN
    sizes = n_train - lags
    mask = np.arange(width) < sizes[:, None]
    padded = np.concatenate((target, np.zeros(LAG_MAX - LAG_MIN)))
    t = sliding_window_view(padded[LAG_MIN:], width)
    c = np.where(mask, covariate[:width], 0.0)
    tc = np.where(mask, t - (t.sum(axis=1) / sizes)[:, None], 0.0)
    cc = np.where(mask, c - (c.sum(axis=1) / sizes)[:, None], 0.0)
    denom = np.sqrt(np.sum(cc * cc, axis=1) * np.sum(tc * tc, axis=1))
    if np.any(denom == 0):
        raise ValueError("zero-variance overlap in lag correlation")
    r = np.abs(np.sum(cc * tc, axis=1) / denom).tolist()

    best = 0
    for i in range(1, len(r)):
        if r[i] > r[best] + 1e-15:
            best = i
    return LAG_MIN + best


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


def remove_additive_outliers(values: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Detect and patch single-week anomalies against an AR fit.

    Works on the log(1 + y) scale.  Each round fits an AR model (order by
    AIC over 1..4), scores every week with the outlier t-ratio built from
    the AR pi-weights and a MAD residual scale, and replaces the worst
    week with its fitted value while the ratio exceeds
    _OUTLIER_CRITICAL_VALUE (at most _OUTLIER_MAX_ITERATIONS rounds).
    The worst week is the earliest whose |tau| is at least
    max|tau| * (1 - 1e-12), so weeks tied in exact arithmetic (common on
    low-count series) go to the earlier week whatever the rounding.
    Patched values are floored at zero on the natural scale.  The first
    ``order`` weeks carry no residual and are never flagged.

    Returns the patched copy and the flagged indices, in the order they
    were flagged.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 20:
        raise ValueError("series too short for outlier screening (need >= 20)")
    if not np.all(np.isfinite(values)):
        raise ValueError("series contains non-finite values")
    if np.any(values < 0):
        raise ValueError("series must be nonnegative")

    z = np.log1p(values)
    flagged: list[int] = []
    if np.ptp(z) == 0:
        return values.copy(), flagged

    for _ in range(_OUTLIER_MAX_ITERATIONS):
        order = _select_ar_order(z)
        coef, fitted, resid = _fit_ar(z, order)
        sigma = _MAD_TO_SD * float(np.median(np.abs(resid - np.median(resid))))
        if sigma == 0:
            sigma = float(np.std(resid))
        if sigma == 0:
            break

        # AO effect of an outlier at t on residuals: e_{t+k} += omega * pi_k
        # with pi_0 = 1, pi_k = -phi_k, for k up to min(order, n-1-t).
        # Least-squares omega per position, then a t-ratio against the
        # robust residual scale.  Zero padding ends the sums at the series end.
        pi = np.concatenate(([1.0], -coef[1:]))
        n = z.size
        windows = sliding_window_view(np.concatenate((resid, np.zeros(order))), order + 1)
        den = np.cumsum(pi * pi)[np.minimum(order, n - 1 - np.arange(order, n))]
        tau = np.zeros(n)
        tau[order:] = (windows @ pi) / den * np.sqrt(den) / sigma

        abs_tau = np.abs(tau)
        worst = int(np.argmax(abs_tau >= abs_tau.max() * (1.0 - 1e-12)))
        if abs_tau[worst] <= _OUTLIER_CRITICAL_VALUE:
            break
        if worst not in flagged:
            flagged.append(worst)
        z[worst] = fitted[worst - order]

    out = values.copy()
    for idx in flagged:
        # an AR fitted value can fall below log1p(0) = 0; incidence cannot
        out[idx] = max(np.expm1(z[idx]), 0.0)
    return out, flagged
