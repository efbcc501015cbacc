"""Series and covariate preparation ahead of model fitting.

Every function here takes plain arrays.  The outlier screen estimates
from all of the series it is given; lag selection and standardization
take a batch of views and estimate each view's statistics from that
view's arrays alone, so a batch gives every view the numbers it would
get on its own.  Leakage is ruled out one level up: the backtest hands
preprocessing only training views (``evaluation.TrainingView``), each
ending at its forecast origin, and the frozen statistics are then
applied unchanged to query weeks.  The full per-view recipe is

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
from numpy.lib.stride_tricks import sliding_window_view

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


def standardize_covariates(cov: np.ndarray, n_rows) -> list:
    """Per view and column, (x - mean) / std over the view's own rows.

    cov is (M, V, k), week rows first: view v owns rows 0..n_rows[v]-1
    of cov[:, v], and the rows after them are ignored.  Uses the
    population (1/N) std convention, with np.mean's and np.std's
    arithmetic: each sum runs down the view's rows in order, as it does
    on the view alone, so every number equals the one-view result bit
    for bit.  Returns one entry per view: its standardized
    (n_rows[v], k) matrix with the column means and stds, or the
    ValueError of its first column whose max equals its min (its
    computed std need not be exactly zero).
    """
    cov = np.asarray(cov, dtype=float)
    n_rows = np.asarray(n_rows)
    if cov.ndim != 3 or n_rows.shape != cov.shape[1:2] or np.any(n_rows < 1) \
            or np.any(n_rows > cov.shape[0]):
        raise ValueError("covariates must be (rows, views, columns) with 1..rows rows per view")
    own = (np.arange(cov.shape[0])[:, None] < n_rows)[:, :, None]
    last = cov[n_rows - 1, np.arange(n_rows.size)]
    filled = np.where(own, cov, last)  # later rows repeat the view's last row
    flat = filled.max(axis=0) == filled.min(axis=0)
    means = np.where(own, cov, 0.0).sum(axis=0) / n_rows[:, None]
    deviations = np.where(own, cov - means, 0.0)
    stds = np.sqrt((deviations * deviations).sum(axis=0) / n_rows[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):  # a flat column's std may be 0
        X = (cov - means) / stds
    return [ValueError(f"covariate column {int(np.argmax(flat[v]))} is constant "
                       "over the training window") if flat[v].any()
            else (X[:n_rows[v], v].copy(), means[v], stds[v])
            for v in range(n_rows.size)]


def select_lag(views, names) -> list:
    """Per view, the lag in LAG_MIN..LAG_MAX of each covariate column
    that maximizes |corr(lagged column, target)|.

    views is a sequence of (covariates, target) pairs of float arrays:
    an (n, k) matrix and a length-n series, week-aligned, where n may
    differ between views; names holds the k column names.  Lag L pairs
    covariate weeks 0..n-1-L with target weeks L..n-1.  A column's lag
    is the smallest whose |corr| is at least its max|corr| * (1 - 1e-12),
    so lags tied in exact arithmetic (periodic series) go to the smaller
    lag whatever the rounding.

    Returns one entry per view, in order: a tuple of k lags, or the
    ValueError of the view's first failing column, named "lag selection
    for <name>": a window shorter than MIN_LAG_WEEKS, or a flat (max
    equals min) target or covariate over the longest lag's pair, which
    lies inside every other lag's pair, so no correlation exists there.

    All views are searched in one array pass.  They are padded with
    zeros to a common length; every lag's cross-products come from one
    batched matmul of the target's strided windows, and each lag's
    window sums from the whole-window sums less the cumulative sums of
    the weeks the lag drops (the covariate's last, read back from the
    view's own length, and the target's first).  No view's numbers
    enter another view's result.
    """
    k = len(names)
    for covariates, target in views:
        if target.ndim != 1 or covariates.shape != (target.size, k):
            raise ValueError("each view needs an (n, k) covariate matrix and a length-n target")
    n = np.array([target.size for _, target in views], dtype=int)
    if n.size == 0:
        return []
    weeks = np.arange(n.max())
    mine = weeks < n[:, None]
    t = np.zeros(mine.shape)
    c = np.zeros((n.size, k, weeks.size))  # columns before weeks: each reduces contiguously
    for v, (covariates, target) in enumerate(views):
        t[v, :n[v]] = target
        c[v, :, :n[v]] = covariates.T

    # the longest lag's pair: target weeks LAG_MAX..n-1, covariate weeks 0..n-1-LAG_MAX
    t_pair, c_pair = mine & (weeks >= LAG_MAX), (weeks < n[:, None] - LAG_MAX)[:, None]
    flat_t = (np.max(t, axis=1, where=t_pair, initial=-np.inf)
              == np.min(t, axis=1, where=t_pair, initial=np.inf))
    flat_c = (np.max(c, axis=2, where=c_pair, initial=-np.inf)
              == np.min(c, axis=2, where=c_pair, initial=np.inf))
    short = n < MIN_LAG_WEEKS
    results = [None] * n.size
    for v in np.flatnonzero(short | flat_t | flat_c.any(axis=1)).tolist():
        if short[v]:
            column, reason = 0, (f"training window too short for lags up to {LAG_MAX} "
                                 f"(need >= {MIN_LAG_WEEKS} weeks)")
        else:
            column = 0 if flat_t[v] else int(np.argmax(flat_c[v]))
            reason = ("zero-variance overlap in lag correlation: the "
                      + ("target" if flat_t[v] else "covariate") + " is flat")
        results[v] = ValueError(f"lag selection for {names[column]}: {reason}")
    ok = np.flatnonzero([r is None for r in results])
    if ok.size == 0:
        return results

    # centred on each view's window means, with the padding kept at zero
    n, mine, t, c = n[ok], mine[ok], t[ok], c[ok]
    t -= (t.sum(axis=1) / n)[:, None]
    t *= mine
    c -= (c.sum(axis=2) / n[:, None])[:, :, None]
    c *= mine[:, None]
    lags = np.arange(LAG_MIN, LAG_MAX + 1)
    sizes = (n[:, None] - lags)[:, :, None]
    dropped = lags - 1
    t_start = t[:, :LAG_MAX]
    t_sum = (t.sum(axis=1)[:, None] - t_start.cumsum(axis=1)[:, dropped])[:, :, None]
    t_sq = ((t * t).sum(axis=1)[:, None]
            - (t_start * t_start).cumsum(axis=1)[:, dropped])[:, :, None]
    c_end = np.take_along_axis(c, (n[:, None] - 1 - np.arange(LAG_MAX))[:, None], axis=2)
    c_sum = (c.sum(axis=2)[:, :, None] - c_end.cumsum(axis=2)[:, :, dropped]).transpose(0, 2, 1)
    c_sq = ((c * c).sum(axis=2)[:, :, None]
            - (c_end * c_end).cumsum(axis=2)[:, :, dropped]).transpose(0, 2, 1)
    # row j of a view's windows is its target from week LAG_MIN + j on,
    # zero past its end, so one matmul gives every lag's cross-products
    span = weeks.size - LAG_MIN
    shifted = np.concatenate((t[:, LAG_MIN:], np.zeros((ok.size, LAG_MAX - LAG_MIN))), axis=1)
    cross = sliding_window_view(shifted, span, axis=1) @ c[:, :, :span].transpose(0, 2, 1)
    c_ss = c_sq - c_sum * c_sum / sizes
    t_ss = t_sq - t_sum * t_sum / sizes
    r = np.abs((cross - c_sum * t_sum / sizes) / np.sqrt(c_ss * t_ss))
    best = LAG_MIN + np.argmax(r >= r.max(axis=1, keepdims=True) * (1.0 - 1e-12), axis=1)
    for v, chosen in zip(ok.tolist(), best.tolist()):
        results[v] = tuple(chosen)
    return results


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
