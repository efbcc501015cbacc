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

import math
from dataclasses import dataclass, field

import numpy as np

LAG_MIN = 4
LAG_MAX = 26

# shortest series each step accepts: lag selection keeps at least 11
# weeks of overlap at the longest lag
MIN_LAG_WEEKS = LAG_MAX + 11
MIN_SCREEN_WEEKS = 20

_MAD_TO_SD = 1.4826

_OUTLIER_CRITICAL_VALUE = 3.5
_OUTLIER_MAX_ITERATIONS = 10
_AR_MAX_ORDER = 4


@dataclass(frozen=True)
class TransformState:
    """Frozen training-window statistics needed to build query rows
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


def standardize_covariates(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-column (x - mean) / std over all rows.

    Uses the population (1/N) std convention.  Returns the standardized
    matrix plus the column means and stds.  A column whose max equals
    its min is rejected: its computed std need not be exactly zero.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] == 0:
        raise ValueError("covariate matrix must be 2-D with at least one row")
    flat = cov.max(axis=0) == cov.min(axis=0)
    if np.any(flat):
        bad = int(np.flatnonzero(flat)[0])
        raise ValueError(f"covariate column {bad} is constant over the training window")
    means = cov.mean(axis=0)
    stds = cov.std(axis=0)
    return (cov - means) / stds, means, stds


def select_lag(covariate: np.ndarray, target: np.ndarray) -> int:
    """Lag in LAG_MIN..LAG_MAX maximizing |corr(lagged covariate, target)|.

    Both arrays are week-aligned and of equal length.  The chosen lag is
    the smallest whose |corr| is at least max|corr| * (1 - 1e-12), so
    lags tied in exact arithmetic (periodic series) go to the smaller
    lag whatever the rounding.  A series whose overlap at some lag is
    flat (its max equals its min) has no correlation there and raises
    ValueError.
    """
    covariate = np.asarray(covariate, dtype=float)
    target = np.asarray(target, dtype=float)
    if covariate.ndim != 1 or covariate.shape != target.shape:
        raise ValueError("covariate and target must be 1-D with equal length")
    n_train = target.size
    if n_train < MIN_LAG_WEEKS:
        raise ValueError(f"training window too short for lags up to {LAG_MAX} "
                         f"(need >= {MIN_LAG_WEEKS} weeks)")

    # lag L pairs covariate weeks 0..n_train-1-L (a prefix) with target
    # weeks L..n_train-1 (a suffix); the longest lag's pair is the
    # shortest and lies inside every other, so it is flat (max == min)
    # if any pair is
    for name, overlap in (("target", target[LAG_MAX:]),
                          ("covariate", covariate[:n_train - LAG_MAX])):
        if overlap.max() == overlap.min():
            raise ValueError(f"zero-variance overlap in lag correlation: the {name} is flat")

    # on the window-mean-centred series: the cross-products of every lag
    # from one correlation; each per-lag sum is the whole-window sum less
    # the weeks the lag drops (the covariate's last, the target's first)
    c = covariate - covariate.mean()
    t = target - target.mean()
    sizes = n_train - np.arange(LAG_MIN, LAG_MAX + 1)
    cross = np.correlate(np.concatenate((t[LAG_MIN:], np.zeros(LAG_MAX - LAG_MIN))),
                         c[:n_train - LAG_MIN], "valid")
    dropped = slice(LAG_MIN - 1, LAG_MAX)
    c_end, t_start = c[:-LAG_MAX - 1:-1], t[:LAG_MAX]
    c_sum = c.sum() - c_end.cumsum()[dropped]
    c_sq = (c * c).sum() - (c_end * c_end).cumsum()[dropped]
    t_sum = t.sum() - t_start.cumsum()[dropped]
    t_sq = (t * t).sum() - (t_start * t_start).cumsum()[dropped]
    c_ss = c_sq - c_sum * c_sum / sizes
    t_ss = t_sq - t_sum * t_sum / sizes
    r = np.abs((cross - c_sum * t_sum / sizes) / np.sqrt(c_ss * t_ss))
    return LAG_MIN + int(np.argmax(r >= r.max() * (1.0 - 1e-12)))


def _ar_design(z: np.ndarray) -> np.ndarray:
    """Rows t = 0..n-1 of [1, z_{t-1}, ..., z_{t-_AR_MAX_ORDER}, z_t].

    A lag before the series start reads 0, so the rows from t = p on
    are the AR(p) design in the first p + 1 columns and the response in
    the last.
    """
    design = np.zeros((z.size, _AR_MAX_ORDER + 2))
    design[:, 0] = 1.0
    design[:, -1] = z
    for i in range(1, _AR_MAX_ORDER + 1):
        design[i:, i] = z[:-i]
    return design


def _fit_ar(design: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """OLS AR(order) fit on an _ar_design; returns (coefficients,
    fitted, residuals) for positions order..n-1."""
    X, y = design[order:, :order + 1], design[order:, -1]
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    fitted = X @ coef
    return coef, fitted, y - fitted


def _select_ar_order(design: np.ndarray) -> int:
    """AIC order selection over 1.._AR_MAX_ORDER on the common sample
    t >= _AR_MAX_ORDER of an _ar_design.

    One QR of the common rows fits every order at once: the regressors
    of AR(p) are the first p + 1 columns, so its residual sum of squares
    is the squared norm of R's last column from row p + 1 down.
    """
    common = design[_AR_MAX_ORDER:]
    n_eff, k = common.shape
    # "raw" skips the copy that zeroes R's lower triangle; R is the upper
    # triangle of the transposed output, so its last column is h[-1, :k]
    h, _ = np.linalg.qr(common, mode="raw")
    r_sq = (h[-1, :k] ** 2).tolist()
    best_order, best_aic = 1, np.inf
    for p in range(1, _AR_MAX_ORDER + 1):
        rss = sum(r_sq[p + 1:])
        aic = n_eff * math.log(max(rss / n_eff, 1e-300)) + 2.0 * (p + 1)
        if aic < best_aic:
            best_order, best_aic = p, aic
    return best_order


def _median(x: np.ndarray) -> float:
    """np.median of a 1-D array from one sort, without np.median's
    per-call overhead, which dominates on a few hundred values."""
    s = np.sort(x)
    h = s.size // 2
    return float(s[h] if s.size % 2 else (s[h - 1] + s[h]) / 2)


def remove_additive_outliers(values: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Detect and patch single-week anomalies against an AR fit.

    Works on the log(1 + y) scale.  Each round fits an AR model (order by
    AIC over 1..4, from one QR of the common sample), scores every week
    with the outlier t-ratio built from the AR pi-weights and a MAD
    residual scale, and replaces the worst week with its fitted value
    while the ratio exceeds
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
    if values.size < MIN_SCREEN_WEEKS:
        raise ValueError(f"series too short for outlier screening (need >= {MIN_SCREEN_WEEKS})")
    if not np.all(np.isfinite(values)):
        raise ValueError("series contains non-finite values")
    if np.any(values < 0):
        raise ValueError("series must be nonnegative")

    z = np.log1p(values)
    flagged: list[int] = []
    if np.ptp(z) == 0:
        return values.copy(), flagged

    n = z.size
    for _ in range(_OUTLIER_MAX_ITERATIONS):
        design = _ar_design(z)
        order = _select_ar_order(design)
        coef, fitted, resid = _fit_ar(design, order)
        sigma = _MAD_TO_SD * _median(np.abs(resid - _median(resid)))
        if sigma == 0:
            sigma = float(np.std(resid))
        if sigma == 0:
            break

        # AO effect of an outlier at t on residuals: e_{t+k} += omega * pi_k
        # with pi_0 = 1, pi_k = -phi_k, for k up to min(order, n-1-t).
        # Least-squares omega per position, then a t-ratio against the
        # robust residual scale.  Zero padding ends the sums at the series
        # end, where the last `order` positions have shorter denominators.
        pi = np.concatenate(([1.0], -coef[1:]))
        num = np.correlate(np.concatenate((resid, np.zeros(order))), pi, "valid")
        pi_sq = np.cumsum(pi * pi)
        den = np.full(n - order, pi_sq[-1])
        den[-order:] = pi_sq[-2::-1]
        tau = np.zeros(n)
        tau[order:] = num / den * np.sqrt(den) / sigma

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
