"""Rolling-origin backtest harness and the two accuracy metrics.

A forecast for week t may use observations through week t - 4 and
nothing newer.  The harness enforces that with hard-copied training
views: every model (the GP and both baselines) sees only a view ending
at the origin, and the actual value of a target week is read from the
city only to score its row.  The full preprocessing chain runs once per
view: the outlier screen and the design built from a view are shared by
every model backtested on the same city, so a three-model backtest
preprocesses each origin once, not once per model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .baselines import ar_fit, ar_forecast, lm_fit, lm_predict
from .data import CLIMATE_COLUMNS, Dataset, WeeklySeries, compute_dir
from .gp import ModelFitError, fit, predict
from .hyperopt import OptimizerConfig, optimize
from .preprocess import (LAG_MIN, MIN_LAG_WEEKS, MIN_SCREEN_WEEKS,
                         TransformState, remove_additive_outliers, select_lag,
                         standardize_covariates)

MODELS = ("gp", "lm", "ar")

# shortest training view each model forecasts from: the GP and the
# linear model need lag selection, the AR baseline only the outlier screen
MIN_VIEW_WEEKS = {"gp": MIN_LAG_WEEKS, "lm": MIN_LAG_WEEKS, "ar": MIN_SCREEN_WEEKS}

# weekly incidence bands: medium starts at 25 per 100k, high at 75
MEDIUM_DIR_THRESHOLD = 25.0
HIGH_DIR_THRESHOLD = 75.0


@dataclass(frozen=True)
class ProtocolConfig:
    """When to forecast and how often to re-optimize hyperparameters.

    Predictions run for every target week in [first_target, last_target]
    (last_target None means the series end).  Hyperparameters are
    re-optimized every refit_every target weeks and reused in between,
    with the Gram matrix and weights still refreshed at every origin;
    refit_every=1 re-optimizes at every origin.
    """

    horizon: int = 4
    first_target: int = 105
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

    @cached_property
    def log_series(self) -> tuple[np.ndarray, tuple]:
        """Outlier-cleaned log1p series plus the flagged weeks.

        Computed on first use and kept, so the AR baseline and
        build_design share one outlier screen, which also rejects a
        negative series and floors every patched week at zero.
        """
        cleaned, flagged = remove_additive_outliers(self.dir_values)
        return np.log1p(cleaned), tuple(self.start_week + i for i in flagged)


@dataclass(frozen=True)
class CityData:
    """One city's full incidence and climate history.

    training_view(end_week) is the only sanctioned path into the data
    while producing forecasts: it hands out a private copy of the weeks
    through end_week.  actual_dir(week) exists for scoring.
    """

    city_id: str
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
            dir_series=compute_dir(cases, city.population),
            covariates=station.window(cases.start_week, cases.end_week),
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


def build_design(view: TrainingView):
    """Full preprocessing of one training view.

    Every statistic comes from the view alone, which ends at the forecast
    origin.  Returns (weeks, X, y, state): design weeks (from start + max
    lag to the view end), standardized lagged covariate rows, centered
    log response, and the frozen statistics needed to build query rows
    and undo the centering.
    """
    log_values, flagged = view.log_series
    lags = []
    for d, name in enumerate(CLIMATE_COLUMNS):
        try:
            lags.append(select_lag(view.covariates[:, d], log_values))
        except ValueError as e:
            raise ValueError(f"lag selection for {name}: {e}") from None

    offset, n_view = max(lags), view.dir_values.size
    weeks = np.arange(view.start_week + offset, view.end_week + 1)
    lagged = np.column_stack([view.covariates[offset - lag:n_view - lag, d]
                              for d, lag in enumerate(lags)])
    X, means, stds = standardize_covariates(lagged)

    response_mean = float(np.mean(log_values))
    y = log_values[offset:] - response_mean

    state = TransformState(
        response_mean=response_mean,
        covariate_means=tuple(means),
        covariate_stds=tuple(stds),
        lags=tuple(lags),
        flagged_weeks=flagged,
    )
    return weeks, X, y, state


def query_row(view: TrainingView, state: TransformState, target_week: int) -> np.ndarray:
    """Standardized lagged covariates for one target week.

    Raises ValueError unless every lagged week lies inside the view, as
    it does whenever no lag is shorter than the gap from the view's end
    to the target.
    """
    rows = target_week - np.array(state.lags) - view.start_week
    if rows.min() < 0 or rows.max() >= view.dir_values.size:
        raise ValueError(f"target week {target_week} needs covariates outside the view "
                         f"{view.start_week}..{view.end_week} (lags {state.lags})")
    raw = view.covariates[rows, np.arange(rows.size)]
    return (raw - np.array(state.covariate_means)) / np.array(state.covariate_stds)


def to_natural(log_pred: float, variance: float | None = None) -> tuple:
    """Map one log-scale forecast back to the DIR scale.

    Returns (predicted_dir, sd, lower95, upper95): expm1 of the log
    prediction and, given its log-scale predictive variance, the sd and
    the 95% interval expm1(log_pred -/+ 1.96 sd) clamped at zero.
    Without a variance the last three are None.  A number that leaves
    the float range raises ModelFitError: an explosive AR window (slope
    above 1), for one, can push the multi-step log prediction past it, and
    a forecast of inf is not a number to score.
    """
    with np.errstate(over="ignore"):
        predicted = float(np.expm1(log_pred))
        if variance is None:
            out = (predicted, None, None, None)
        else:
            sd = float(np.sqrt(variance))
            out = (predicted, sd, max(0.0, float(np.expm1(log_pred - 1.96 * sd))),
                   max(0.0, float(np.expm1(log_pred + 1.96 * sd))))
    if not all(v is None or math.isfinite(v) for v in out):
        raise ModelFitError("forecast overflows the float range")
    return out


def gp_forecast(model, week: int, x, state: TransformState) -> tuple:
    """The GP's forecast for one week on the DIR scale.

    predict gives the centered log scale; the response mean is added
    back before to_natural, whose tuple this returns.
    """
    dist = predict(model, week, x)
    return to_natural(dist.mean + state.response_mean, dist.variance)


def target_weeks(models, protocol: ProtocolConfig, start_week: int, end_week: int) -> range:
    """The target weeks a backtest of these models forecasts on a series
    of weeks start_week..end_week.

    Raises ValueError unless the series runs from week 1 through both
    targets and the first target's training view holds MIN_VIEW_WEEKS
    for every model.
    """
    first, last = protocol.first_target, protocol.last_target or end_week
    need = max((MIN_VIEW_WEEKS[m] for m in models), default=0)
    if first - protocol.horizon < need:
        raise ValueError(f"first_target {first} leaves a {first - protocol.horizon}-week "
                         f"training view, and model {max(models, key=MIN_VIEW_WEEKS.get)} "
                         f"needs at least {need} weeks")
    if start_week > 1 or max(first, last) > end_week:
        raise ValueError(f"the series must cover weeks 1..{max(first, last)}, "
                         f"has {start_week}..{end_week}")
    return range(first, last + 1)


def run_backtest(city: CityData, models, protocol: ProtocolConfig | None = None,
                 optimizer_config: OptimizerConfig | None = None) -> list[BacktestReport]:
    """Forecast every target week with each requested model and score it.

    Returns one BacktestReport per model, in the order given.  Each
    target t is predicted from one training view ending at t - horizon,
    preprocessed once for all the models: AR forecasts from the view's
    outlier-screened log series, and gp and lm from one design built on
    it.  A ValueError or ModelFitError at one origin leaves a gap in
    that model's row (and its failure count) instead of aborting the
    city; a design that cannot be built is a gap for gp and lm.  Metrics
    use the available rows.  The GP re-optimizes its hyperparameters at
    every refit_every-th target and whenever it has none yet; a failed
    refit keeps the previous hyperparameters, and an origin with none is
    a gap.  A target window the series cannot serve raises ValueError
    before any work (target_weeks).
    """
    for m in models:
        if m not in MODELS:
            raise ValueError(f"model must be one of {', '.join(MODELS)}")
    protocol = protocol or ProtocolConfig()
    optimizer_config = optimizer_config or OptimizerConfig()

    weeks_to_forecast = target_weeks(models, protocol, city.dir_series.start_week,
                                     city.dir_series.end_week)
    needs_design = "gp" in models or "lm" in models
    h = None
    rows = {m: [] for m in models}
    for t in weeks_to_forecast:
        view = city.training_view(t - protocol.horizon)
        actual = city.actual_dir(t)
        x_query = None
        if needs_design:
            try:
                weeks, X, y, state = build_design(view)
                x_query = query_row(view, state, t)
            except ValueError:
                pass
        for m in models:
            forecast = (None, None, None, None)
            try:
                if m == "ar":
                    log_values, _ = view.log_series
                    forecast = to_natural(ar_forecast(ar_fit(log_values), log_values[-1],
                                                      protocol.horizon))
                elif x_query is None:
                    pass  # no design at this origin: a gap for gp and lm
                elif m == "lm":
                    forecast = to_natural(lm_predict(lm_fit(X, y), x_query)
                                          + state.response_mean)
                else:
                    if h is None or (t - protocol.first_target) % protocol.refit_every == 0:
                        try:
                            h, _, _ = optimize(weeks, X, y, optimizer_config)
                        except ModelFitError:
                            pass  # keep the previous hyperparameters, retry next week
                    if h is not None:
                        forecast = gp_forecast(fit(weeks, X, y, h), t, x_query, state)
            except (ValueError, ModelFitError):
                pass
            rows[m].append(ForecastRow(t, actual, *forecast))
    return [_score(city.city_id, m, rows[m]) for m in models]


def _score(city_id: str, model: str, rows: list) -> BacktestReport:
    # with no scored rows pearson raises and band_auc gives None
    scored = [r for r in rows if r.predicted_dir is not None]
    actuals = np.array([r.actual_dir for r in scored])
    preds = np.array([r.predicted_dir for r in scored])
    try:
        corr = pearson(actuals, preds)
    except ValueError:
        corr = None

    all_actuals = np.array([r.actual_dir for r in rows])
    eligible = [band for band, threshold in (("medium", MEDIUM_DIR_THRESHOLD),
                                             ("high", HIGH_DIR_THRESHOLD))
                if np.any(all_actuals >= threshold) and np.any(all_actuals < threshold)]

    return BacktestReport(
        city_id=city_id,
        model=model,
        rows=tuple(rows),
        pearson=corr,
        auc_medium=band_auc(actuals, preds, MEDIUM_DIR_THRESHOLD),
        auc_high=band_auc(actuals, preds, HIGH_DIR_THRESHOLD),
        band_eligibility="+".join(eligible) if eligible else "none",
        n_failed=len(rows) - len(scored),
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
