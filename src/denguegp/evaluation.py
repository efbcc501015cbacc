"""Rolling-origin backtest harness and the two accuracy metrics.

A forecast for week t may use observations through week t - 4 and
nothing newer.  The harness enforces that with hard-copied training
views: every model (the GP and both baselines) sees only a view ending
at the origin, the full preprocessing chain is recomputed inside each
view, and actual values for the target weeks are read separately for
scoring after all predictions exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import ar_fit, ar_forecast4, lm_fit, lm_predict
from .data import Dataset, WeeklySeries, compute_dir
from .gp import ModelFitError, fit, predict
from .hyperopt import OptimizerConfig, optimize
from .preprocess import (LAG_MIN, TransformState, log_transform,
                         remove_additive_outliers, select_lag,
                         standardize_covariates)

MODELS = ("gp", "lm", "ar")

# weekly incidence bands: medium starts at 25 per 100k, high at 75
MEDIUM_DIR_THRESHOLD = 25.0
HIGH_DIR_THRESHOLD = 75.0

DEFAULT_HORIZON = 4
DEFAULT_FIRST_TARGET = 105


@dataclass(frozen=True)
class ProtocolConfig:
    """When to forecast and how often to re-optimize hyperparameters.

    Predictions run for every target week in [first_target, last_target]
    (last_target None means the series end).  Hyperparameters are
    re-optimized every refit_every target weeks and reused in between,
    with the Gram matrix and weights still refreshed at every origin;
    refit_every=1 re-optimizes at every origin.
    """

    horizon: int = DEFAULT_HORIZON
    first_target: int = DEFAULT_FIRST_TARGET
    last_target: int | None = None
    refit_every: int = 52

    def __post_init__(self):
        if not 1 <= self.horizon <= LAG_MIN:
            raise ValueError(f"horizon must lie in [1, {LAG_MIN}], the shortest lag")
        if self.first_target <= self.horizon:
            raise ValueError("first_target must exceed the horizon")
        if self.refit_every < 1:
            raise ValueError("refit_every must be >= 1")
        if self.last_target is not None and self.last_target < self.first_target:
            raise ValueError("last_target must be >= first_target")


@dataclass(frozen=True)
class ForecastRow:
    target_week: int
    actual_dir: float | None  # None past the series end (forecast command)
    predicted_dir: float | None
    sd: float | None  # log-scale predictive standard deviation
    lower95: float | None
    upper95: float | None


@dataclass(frozen=True)
class BacktestReport:
    city_id: str
    model: str
    rows: tuple  # one ForecastRow per target week, gaps included
    pearson: float | None
    auc_medium: float | None
    auc_high: float | None
    band_eligibility: str  # "none", "medium", "high", "medium+high"
    n_failed: int

    @property
    def auc_mean(self) -> float | None:
        values = [v for v in (self.auc_medium, self.auc_high) if v is not None]
        if not values:
            return None
        return float(np.mean(values))


@dataclass(frozen=True)
class TrainingView:
    """Hard copy of everything observable at one forecast origin.

    Models receive only this object, never the full city, so a forecast
    cannot reach data past the origin even by accident.  It is the only
    leakage boundary: preprocessing and the baselines estimate from all
    of the arrays they are given.
    """

    city_id: str
    start_week: int
    dir_values: np.ndarray
    covariates: np.ndarray  # (n_weeks, 3) raw climate rows

    @property
    def end_week(self) -> int:
        return self.start_week + self.dir_values.size - 1

    def covariate_at(self, week: int) -> np.ndarray:
        if not self.start_week <= week <= self.end_week:
            raise IndexError(f"week {week} outside the view")
        return self.covariates[week - self.start_week]


@dataclass(frozen=True)
class CityData:
    """One city's full incidence and climate history.

    training_view(end_week) is the only sanctioned path into the data
    while producing forecasts; actual_dir(week) exists for scoring.
    """

    city_id: str
    region: str
    population: int
    dir_series: WeeklySeries
    covariates: np.ndarray

    def __post_init__(self):
        if self.covariates.shape != (self.dir_series.n_weeks, 3):
            raise ValueError("covariates must align with the incidence series")

    @classmethod
    def from_dataset(cls, ds: Dataset, city_id: str) -> "CityData":
        city = ds.cities[city_id]
        cases = ds.cases[city_id]
        station = ds.stations[ds.assignments[city_id]]
        return cls(
            city_id=city_id,
            region=city.region,
            population=city.population,
            dir_series=compute_dir(cases, city.population),
            covariates=station.window(cases.start_week, cases.end_week).copy(),
        )

    def training_view(self, end_week: int) -> TrainingView:
        s = self.dir_series
        if not s.start_week <= end_week <= s.end_week:
            raise ValueError(f"end_week {end_week} outside the series")
        n = end_week - s.start_week + 1
        return TrainingView(self.city_id, s.start_week,
                            s.values[:n].copy(), self.covariates[:n].copy())

    def actual_dir(self, week: int) -> float:
        return self.dir_series.value_at(week)


def _log_series(view: TrainingView) -> tuple[np.ndarray, tuple]:
    """Outlier-cleaned log1p series of the view, plus the flagged weeks."""
    cleaned, flagged = remove_additive_outliers(view.dir_values)
    return log_transform(cleaned), tuple(view.start_week + i for i in flagged)


def _lagged_covariates(view: TrainingView, lags) -> tuple[np.ndarray, np.ndarray]:
    """Design weeks (from start + max lag to the view end) and the raw
    covariate rows shifted by each column's lag."""
    design_start = view.start_week + max(lags)
    weeks = np.arange(design_start, view.end_week + 1)
    lagged = np.column_stack([
        view.covariates[design_start - lag - view.start_week:
                        view.end_week - lag - view.start_week + 1, d]
        for d, lag in enumerate(lags)])
    return weeks, lagged


def build_design(view: TrainingView):
    """Full preprocessing of one training view.

    Every statistic comes from the view alone, which ends at the forecast
    origin.  Returns (weeks, X, y, state): design weeks, standardized
    lagged covariate rows, centered log response, and the frozen
    statistics needed to build query rows and undo the centering.
    """
    log_values, flagged = _log_series(view)
    lags = tuple(select_lag(view.covariates[:, d], log_values) for d in range(3))

    weeks, lagged = _lagged_covariates(view, lags)
    X, means, stds = standardize_covariates(lagged)

    response_mean = float(np.mean(log_values))
    y = log_values[max(lags):] - response_mean

    state = TransformState(
        response_mean=response_mean,
        covariate_means=tuple(means),
        covariate_stds=tuple(stds),
        lags=lags,
        flagged_weeks=flagged,
    )
    return weeks, X, y, state


def query_row(view: TrainingView, state: TransformState, target_week: int) -> np.ndarray:
    """Standardized lagged covariates for one target week.

    Lags are at least as long as the protocol horizon, so every value
    needed here sits inside the training view.
    """
    raw = np.array([view.covariate_at(target_week - lag)[d]
                    for d, lag in enumerate(state.lags)])
    return (raw - np.array(state.covariate_means)) / np.array(state.covariate_stds)


def rebuild_design(view: TrainingView, state: TransformState):
    """Reconstruct the design for a previously fitted transform.

    Unlike build_design, nothing is re-estimated: the stored lags,
    covariate statistics and response mean are applied as-is, so a saved
    model can be rehydrated against the same data.
    """
    log_values, _ = _log_series(view)
    weeks, lagged = _lagged_covariates(view, state.lags)
    X = (lagged - np.array(state.covariate_means)) / np.array(state.covariate_stds)
    y = log_values[max(state.lags):] - state.response_mean
    return weeks, X, y


def _run_gp(city: CityData, targets: range, protocol: ProtocolConfig,
            optimizer_config: OptimizerConfig) -> dict:
    current_h = None
    out = {}
    for t in targets:
        view = city.training_view(t - protocol.horizon)
        try:
            weeks, X, y, state = build_design(view)
            x_query = query_row(view, state, t)
        except ValueError:
            out[t] = None
            continue

        scheduled = (t - protocol.first_target) % protocol.refit_every == 0
        if scheduled or current_h is None:
            try:
                current_h, _, _ = optimize(weeks, X, y, optimizer_config)
            except ModelFitError:
                pass  # keep the previous hyperparameters, retry next week
        if current_h is None:
            out[t] = None
            continue
        try:
            model = fit(weeks, X, y, current_h, transform=state)
            dist = predict(model, t, x_query)
        except ModelFitError:
            out[t] = None
            continue
        out[t] = (dist.natural_mean, dist.sd, dist.natural_lower, dist.natural_upper)
    return out


def _to_natural(log_pred: float):
    """Baseline back-transform; an overflowing forecast becomes a gap.

    An explosive AR window (slope above 1) can push the 4-step log
    prediction past the float range, and a forecast of inf is a failed
    week, not a number to score.
    """
    with np.errstate(over="ignore"):
        value = float(np.expm1(log_pred))
    if not np.isfinite(value):
        return None
    return (value, None, None, None)


def _run_lm(city: CityData, targets: range, protocol: ProtocolConfig) -> dict:
    out = {}
    for t in targets:
        view = city.training_view(t - protocol.horizon)
        try:
            _, X, y, state = build_design(view)
            model = lm_fit(X, y)
            log_pred = lm_predict(model, query_row(view, state, t)) + state.response_mean
        except ValueError:
            out[t] = None
            continue
        out[t] = _to_natural(log_pred)
    return out


def _run_ar(city: CityData, targets: range, protocol: ProtocolConfig) -> dict:
    out = {}
    for t in targets:
        view = city.training_view(t - protocol.horizon)
        try:
            log_values, _ = _log_series(view)
            state = ar_fit(log_values)
        except ValueError:
            out[t] = None
            continue
        log_pred = ar_forecast4(state, log_values[-1])
        out[t] = _to_natural(log_pred)
    return out


def run_backtest(city: CityData, model: str, protocol: ProtocolConfig | None = None,
                 optimizer_config: OptimizerConfig | None = None) -> BacktestReport:
    """Forecast every target week with the chosen model and score it.

    Each target t is predicted from a training view ending at t - horizon
    with preprocessing recomputed inside the view.  A fit failure at one
    origin leaves a gap in that week's row (and the failure count)
    instead of aborting the city; metrics use the available rows.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {', '.join(MODELS)}")
    protocol = protocol or ProtocolConfig()

    series = city.dir_series
    last = protocol.last_target if protocol.last_target is not None else series.end_week
    if series.start_week > 1 or series.end_week < last:
        raise ValueError(
            f"series must cover weeks 1..{last}, has {series.start_week}..{series.end_week}")
    targets = range(protocol.first_target, last + 1)

    if model == "gp":
        predictions = _run_gp(city, targets, protocol, optimizer_config or OptimizerConfig())
    elif model == "lm":
        predictions = _run_lm(city, targets, protocol)
    else:
        predictions = _run_ar(city, targets, protocol)

    rows = []
    for t in targets:
        actual = city.actual_dir(t)
        p = predictions[t]
        if p is None:
            rows.append(ForecastRow(t, actual, None, None, None, None))
        else:
            rows.append(ForecastRow(t, actual, p[0], p[1], p[2], p[3]))

    scored = [(r.actual_dir, r.predicted_dir) for r in rows if r.predicted_dir is not None]
    if scored:
        actuals = np.array([s[0] for s in scored])
        preds = np.array([s[1] for s in scored])
        try:
            corr = pearson(actuals, preds)
        except ValueError:
            corr = None
        auc_medium = band_auc(actuals, preds, MEDIUM_DIR_THRESHOLD)
        auc_high = band_auc(actuals, preds, HIGH_DIR_THRESHOLD)
    else:
        corr, auc_medium, auc_high = None, None, None

    all_actuals = np.array([r.actual_dir for r in rows])
    eligible = []
    if np.any(all_actuals >= MEDIUM_DIR_THRESHOLD) and np.any(all_actuals < MEDIUM_DIR_THRESHOLD):
        eligible.append("medium")
    if np.any(all_actuals >= HIGH_DIR_THRESHOLD) and np.any(all_actuals < HIGH_DIR_THRESHOLD):
        eligible.append("high")

    return BacktestReport(
        city_id=city.city_id,
        model=model,
        rows=tuple(rows),
        pearson=corr,
        auc_medium=auc_medium,
        auc_high=auc_high,
        band_eligibility="+".join(eligible) if eligible else "none",
        n_failed=sum(1 for r in rows if r.predicted_dir is None),
    )


def pearson(actual, predicted) -> float:
    """Sample correlation; undefined inputs raise instead of returning 0."""
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.shape != p.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-D with equal length")
    if a.size < 3:
        raise ValueError("need at least 3 pairs")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(p))):
        raise ValueError("inputs must be finite")
    if np.ptp(a) == 0 or np.ptp(p) == 0:
        raise ValueError("correlation undefined for constant input")
    ac = a - a.mean()
    pc = p - p.mean()
    return float((ac @ pc) / math.sqrt((ac @ ac) * (pc @ pc)))


def band_auc(actual_dir, predicted_dir, threshold: float) -> float | None:
    """Probability a week at or above the threshold outscores one below.

    Mann-Whitney pair counting with ties worth one half, using the
    predicted values as scores.  Returns None when the window never
    produces both classes; invariant under strictly increasing
    transforms of the scores.
    """
    a = np.asarray(actual_dir, dtype=float)
    p = np.asarray(predicted_dir, dtype=float)
    if a.shape != p.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-D with equal length")
    positive = a >= threshold
    pos, neg = p[positive], p[~positive]
    if pos.size == 0 or neg.size == 0:
        return None
    neg_sorted = np.sort(neg)
    below = np.searchsorted(neg_sorted, pos, side="left")
    below_or_equal = np.searchsorted(neg_sorted, pos, side="right")
    wins = float(below.sum()) + 0.5 * float((below_or_equal - below).sum())
    return wins / (pos.size * neg.size)


_METRICS = ("pearson", "auc_medium", "auc_high", "auc_mean")


def _quartiles(values: list) -> dict | None:
    if not values:
        return None
    q = np.quantile(np.asarray(values, dtype=float), [0.25, 0.5, 0.75])
    return {"q1": float(q[0]), "median": float(q[1]), "q3": float(q[2]),
            "n": len(values)}


def aggregate_reports(reports, cities) -> dict:
    """Summarize per-city reports into quartiles and head-to-head wins.

    cities maps city_id to its record (for the region grouping).  For
    each metric the win matrix counts cities where both models produced
    the metric and one strictly exceeds the other; a model never beats
    itself.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to aggregate")
    models = sorted({r.model for r in reports})

    per_city: dict = {}
    for r in reports:
        per_city.setdefault(r.city_id, {})[r.model] = {
            "pearson": r.pearson,
            "auc_medium": r.auc_medium,
            "auc_high": r.auc_high,
            "auc_mean": r.auc_mean,
            "band_eligibility": r.band_eligibility,
            "n_failed": r.n_failed,
            "n_rows": len(r.rows),
        }

    def block(city_ids):
        out = {}
        for m in models:
            out[m] = {}
            for metric in _METRICS:
                values = [per_city[c][m][metric] for c in city_ids
                          if m in per_city[c] and per_city[c][m][metric] is not None]
                out[m][metric] = _quartiles(values)
        return out

    all_cities = sorted(per_city)
    by_region: dict = {}
    for c in all_cities:
        by_region.setdefault(cities[c].region, []).append(c)

    wins = {}
    for metric in _METRICS:
        wins[metric] = {a: {b: 0 for b in models} for a in models}
        for c in all_cities:
            for a in models:
                for b in models:
                    if a == b or a not in per_city[c] or b not in per_city[c]:
                        continue
                    va, vb = per_city[c][a][metric], per_city[c][b][metric]
                    if va is not None and vb is not None and va > vb:
                        wins[metric][a][b] += 1

    return {
        "models": models,
        "n_cities": len(all_cities),
        "overall": block(all_cities),
        "regions": {region: block(ids) for region, ids in sorted(by_region.items())},
        "wins": wins,
        "cities": {c: per_city[c] for c in all_cities},
    }
