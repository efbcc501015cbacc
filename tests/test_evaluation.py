"""Rolling-origin protocol, metrics, and report aggregation.

The protocol tests lean on cheap models (or a stubbed optimizer) so the
leakage and scheduling guarantees are exercised without long GP runs;
one moderate real GP backtest checks end-to-end quality.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

import denguegp.evaluation as evaluation
from denguegp.baselines import ar_fit
from denguegp.data import WeeklySeries
from denguegp.evaluation import (HIGH_DIR_THRESHOLD, MEDIUM_DIR_THRESHOLD,
                                 MODELS, BacktestReport, CityData, ForecastRow,
                                 ProtocolConfig, band_auc, aggregate_reports,
                                 build_design, gp_forecast, pearson, query_row,
                                 run_backtest, target_weeks, to_natural)
from denguegp.gp import ModelFitError, PredictiveDistribution, fit, predict
from denguegp.hyperopt import OptimizerConfig
from denguegp.kernels import KernelHyperparameters
from denguegp.preprocess import LAG_MIN, TransformState, remove_additive_outliers
from denguegp.synth import (SynthSpec, draw_from_prior, make_multi_city_fixture,
                            strongly_periodic_spec)

from test_gp import unit_diagonal_hyperparameters
from test_kernels import make_hyperparameters


def sinusoid_covariates(n):
    weeks = np.arange(1, n + 1)
    return np.column_stack([
        120.0 + 80.0 * np.sin(2 * np.pi * weeks / 52.0),
        24.0 + 4.0 * np.sin(2 * np.pi * weeks / 52.0 + 1.0),
        70.0 + 10.0 * np.sin(2 * np.pi * weeks / 52.0 + 2.0),
    ])


def make_city(dir_values, covariates=None, city_id="c1"):
    values = np.asarray(dir_values, dtype=float)
    if covariates is None:
        covariates = sinusoid_covariates(values.size)
    return CityData(city_id, WeeklySeries(city_id, 1, values), covariates)


def synthetic_city(spec, city_id="c1"):
    draw = draw_from_prior(spec, city_id=city_id)
    return make_city(draw.dir_series.values, draw.raw_covariates, city_id=city_id)


def report_stub(city_id, model, pearson_value, auc_medium=None, auc_high=None,
                n_rows=3):
    rows = tuple(ForecastRow(105 + i, 1.0, 1.0, None, None, None)
                 for i in range(n_rows))
    return BacktestReport(city_id=city_id, model=model, rows=rows,
                          pearson=pearson_value, auc_medium=auc_medium,
                          auc_high=auc_high, band_eligibility="none", n_failed=0)


FIXED_H = KernelHyperparameters(
    sigma_loc_sq=0.1, ell_loc=2.0, sigma_qp_sq=1.0, ell_qp=58.0, ell_per=1.0,
    period=52.0, sigma_lin_sq=0.02, ell_rain=30.0, ell_temp=30.0, ell_hum=30.0,
    sigma_noise_sq=0.05)


class TestPearson:
    def test_identity_is_one(self):
        x = np.array([1.0, 4.0, 2.0, 8.0])
        assert_allclose(pearson(x, x), 1.0, rtol=1e-15)

    def test_negated_is_minus_one(self):
        x = np.array([1.0, 4.0, 2.0, 8.0])
        assert_allclose(pearson(x, -x + 7.0), -1.0, rtol=1e-15)

    def test_matches_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.normal(size=25)
            p = rng.normal(size=25)
            assert_allclose(pearson(a, p), np.corrcoef(a, p)[0, 1], atol=1e-12)

    def test_constant_input_raises(self):
        with pytest.raises(ValueError, match="constant"):
            pearson(np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="constant"):
            pearson(np.array([1.0, 2.0, 3.0]), np.array([5.0, 5.0, 5.0]))

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="at least 3"):
            pearson(np.array([1.0, 2.0]), np.array([3.0, 4.0]))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            pearson(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0]))

    def test_non_finite_input_raises(self):
        # a silent nan would leak into report metrics
        good = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="finite"):
            pearson(good, np.array([1.0, np.inf, 3.0]))
        with pytest.raises(ValueError, match="finite"):
            pearson(np.array([1.0, np.nan, 3.0]), good)


def brute_force_auc(actual, predicted, threshold):
    pos = [p for a, p in zip(actual, predicted) if a >= threshold]
    neg = [p for a, p in zip(actual, predicted) if a < threshold]
    if not pos or not neg:
        return None
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestBandAuc:
    def test_worked_example(self):
        actual = np.array([10.0, 20.0, 30.0, 80.0])
        predicted = np.array([0.1, 0.4, 0.35, 0.8])
        assert band_auc(actual, predicted, 25.0) == 0.75

    def test_perfect_separation(self):
        actual = np.array([10.0, 20.0, 30.0, 80.0])
        predicted = np.array([1.0, 2.0, 50.0, 60.0])
        assert band_auc(actual, predicted, 25.0) == 1.0

    def test_single_class_returns_none(self):
        actual = np.array([1.0, 2.0, 3.0])
        predicted = np.array([1.0, 2.0, 3.0])
        assert band_auc(actual, predicted, 25.0) is None
        assert band_auc(actual, predicted, 0.5) is None

    def test_all_tied_scores_give_half(self):
        actual = np.array([10.0, 30.0, 40.0, 5.0])
        predicted = np.full(4, 2.5)
        assert band_auc(actual, predicted, 25.0) == 0.5

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(7)
        actual = rng.uniform(0, 100, size=40)
        predicted = rng.uniform(0, 100, size=40)
        base = band_auc(actual, predicted, 25.0)
        assert band_auc(actual, np.exp(predicted / 20.0), 25.0) == base
        assert band_auc(actual, 3.0 * predicted + 11.0, 25.0) == base

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            actual = rng.uniform(0, 50, size=30)
            predicted = np.round(rng.uniform(0, 50, size=30))  # force ties
            assert band_auc(actual, predicted, 25.0) == brute_force_auc(
                actual, predicted, 25.0)


class TestToNatural:
    def test_natural_scale_back_transform(self):
        h = unit_diagonal_hyperparameters(noise=0.5)
        dist = predict(fit([2], np.zeros((1, 3)), [0.5], h), 2, np.zeros(3))
        center = dist.mean + 3.0
        half = 1.96 * np.sqrt(dist.variance)
        natural_mean, sd, lo, hi = to_natural(center, dist.variance)
        assert sd == np.sqrt(dist.variance)
        assert_allclose(natural_mean, np.expm1(center), rtol=1e-12)
        assert_allclose(lo, max(0.0, np.expm1(center - half)), rtol=1e-12)
        assert_allclose(hi, max(0.0, np.expm1(center + half)), rtol=1e-12)
        assert lo >= 0.0 and hi >= lo

    def test_interval_lower_clamped_at_zero(self):
        h = make_hyperparameters()
        rng = np.random.default_rng(71)
        X = np.array([rng.normal(size=3) for _ in range(5)])
        dist = predict(fit(np.arange(1, 6), X, rng.normal(size=5), h), 40, np.zeros(3))
        _, _, lo, _ = to_natural(dist.mean - 5.0, dist.variance)
        assert lo == 0.0

    @pytest.mark.parametrize("log_pred, variance", [(1e6, None), (709.0, 1.0)])
    def test_any_overflowing_number_raises(self, log_pred, variance):
        # expm1(709) is finite, its upper bound expm1(709 + 1.96) is not
        with pytest.raises(ModelFitError, match="overflows"):
            to_natural(log_pred, variance)


class TestGpForecast:
    def test_adds_the_response_mean_before_to_natural(self, monkeypatch):
        seen = []

        def stub_predict(model, week, x):
            seen.append((model, week, x))
            return PredictiveDistribution(0.25, 0.04)

        monkeypatch.setattr(evaluation, "predict", stub_predict)
        state = TransformState(1.5, (0.0,) * 3, (1.0,) * 3, (4, 4, 4))
        assert gp_forecast("model", 120, "x", state) == to_natural(1.75, 0.04)
        assert seen == [("model", 120, "x")]


class TestTargetWeeks:
    def test_range_runs_through_the_last_target(self):
        assert target_weeks(("gp",), ProtocolConfig(last_target=110), 1, 150) == range(105, 111)
        assert target_weeks(MODELS, ProtocolConfig(), 1, 150) == range(105, 151)

    @pytest.mark.parametrize("models, first_target, message", [
        (("gp",), 41, None), (("gp",), 40, "model gp needs at least 37"),
        (("ar",), 24, None), (("ar",), 23, "model ar needs at least 20"),
        (("ar", "lm"), 40, "model lm needs at least 37")])
    def test_first_view_must_fit_every_model(self, models, first_target, message):
        protocol = ProtocolConfig(first_target=first_target)
        if message is None:
            assert target_weeks(models, protocol, 1, 150)[0] == first_target
        else:
            with pytest.raises(ValueError, match=message):
                target_weeks(models, protocol, 1, 150)

    @pytest.mark.parametrize("first_target, last_target, start_week", [
        (151, None, 1), (105, 151, 1), (105, 110, 2)])
    def test_series_must_reach_both_targets_from_week_1(self, first_target, last_target,
                                                       start_week):
        protocol = ProtocolConfig(first_target=first_target, last_target=last_target)
        with pytest.raises(ValueError, match="must cover"):
            target_weeks(("ar",), protocol, start_week, 150)


class TestConfigValidation:
    def test_protocol(self):
        assert ProtocolConfig().first_target == 105
        with pytest.raises(ValueError):
            ProtocolConfig(horizon=0)
        with pytest.raises(ValueError):
            ProtocolConfig(horizon=10, first_target=10)
        assert ProtocolConfig(horizon=LAG_MIN).horizon == LAG_MIN
        with pytest.raises(ValueError, match="horizon"):
            ProtocolConfig(horizon=LAG_MIN + 1)  # a lag could then be shorter
        with pytest.raises(ValueError):
            ProtocolConfig(refit_every=0)
        with pytest.raises(ValueError):
            ProtocolConfig(first_target=105, last_target=104)


class TestTrainingView:
    def test_view_is_a_hard_copy(self):
        city = synthetic_city(SynthSpec(weeks=120, seed=5))
        view = city.training_view(100)
        before = city.dir_series.values.copy()
        view.dir_values[:] = -1.0
        view.covariates[:] = -1.0
        assert np.array_equal(city.dir_series.values, before)

    def test_view_window(self):
        city = synthetic_city(SynthSpec(weeks=120, seed=6))
        view = city.training_view(80)
        assert view.end_week == 80
        assert view.dir_values.size == 80
        assert np.array_equal(view.covariates, city.covariates[:80])

    def test_end_week_outside_series(self):
        city = synthetic_city(SynthSpec(weeks=120, seed=7))
        with pytest.raises(ValueError):
            city.training_view(200)

    def test_from_dataset_pulls_assigned_station(self, tmp_path):
        ds = make_multi_city_fixture(str(tmp_path), 2,
                                     variations=(SynthSpec(weeks=80),), seed=1)
        city = CityData.from_dataset(ds, "C002")
        station = ds.stations[ds.assignments["C002"]]
        assert np.array_equal(city.covariates, station.window(1, 80))
        expected_dir = ds.cases["C002"].values * 1e5 / ds.cities["C002"].population
        assert np.array_equal(city.dir_series.values, expected_dir)


class TestBuildDesign:
    def test_design_shape_and_standardization(self):
        city = synthetic_city(SynthSpec(weeks=160, seed=8))
        view = city.training_view(150)
        weeks, X, y, state = build_design(view)
        max_lag = max(state.lags)
        assert weeks[0] == 1 + max_lag
        assert weeks[-1] == 150
        assert X.shape == (150 - max_lag, 3)
        assert y.size == X.shape[0]
        assert_allclose(X.mean(axis=0), np.zeros(3), atol=1e-10)
        assert_allclose(X.std(axis=0), np.ones(3), rtol=1e-10)
        assert all(4 <= lag <= 26 for lag in state.lags)

    def test_query_row_reconstruction(self):
        city = synthetic_city(SynthSpec(weeks=160, seed=9))
        view = city.training_view(150)
        _, _, _, state = build_design(view)
        row = query_row(view, state, 154)
        for d in range(3):
            raw = city.covariates[154 - state.lags[d] - 1, d]
            expected = (raw - state.covariate_means[d]) / state.covariate_stds[d]
            assert_allclose(row[d], expected, rtol=1e-15)

    def test_query_row_outside_the_view_raises(self):
        city = synthetic_city(SynthSpec(weeks=160, seed=9))
        view = city.training_view(150)
        _, _, _, state = build_design(view)
        shortest = min(state.lags)
        query_row(view, state, 150 + shortest)  # the last week in reach
        with pytest.raises(ValueError, match="outside the view"):
            query_row(view, state, 151 + shortest)
        with pytest.raises(ValueError, match="outside the view"):
            query_row(view, state, max(state.lags))  # lagged week 0

    def test_centering_uses_cleaned_log_series(self):
        city = synthetic_city(SynthSpec(weeks=160, seed=11))
        view = city.training_view(150)
        view.dir_values[70] = 50.0 * view.dir_values.max()  # a spike to patch
        view = dataclasses.replace(view, start_week=41)
        _, _, y, state = build_design(view)
        cleaned, flagged = remove_additive_outliers(view.dir_values)
        assert 70 in flagged
        assert state.flagged_weeks == tuple(41 + i for i in flagged)
        log_values = np.log1p(cleaned)
        assert_allclose(state.response_mean, log_values.mean(), rtol=1e-12)
        assert_allclose(y, (log_values - log_values.mean())[max(state.lags):],
                        atol=1e-12)


class StubOptimizer:
    """Counts calls; optionally fails from a given call onward."""

    def __init__(self, fail_from=None):
        self.calls = 0
        self.fail_from = fail_from

    def __call__(self, weeks, X, targets, config):
        self.calls += 1
        if self.fail_from is not None and self.calls >= self.fail_from:
            raise ModelFitError("stub failure")
        return FIXED_H, 0.0, {"selected_restart": 0, "restarts": []}


def count_calls(monkeypatch, name):
    """Wrap evaluation.<name> so its calls are counted; returns the counter."""
    calls = []
    original = getattr(evaluation, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(evaluation, name, counted)
    return calls


class TestBacktestProtocol:
    def test_full_series_has_one_row_per_target(self):
        city = synthetic_city(SynthSpec(weeks=209, seed=12))
        report, = run_backtest(city, ("ar",))
        assert len(report.rows) == 105
        assert report.rows[0].target_week == 105
        assert report.rows[-1].target_week == 209
        assert [r.target_week for r in report.rows] == list(range(105, 210))

    def test_refit_schedule(self, monkeypatch):
        city = synthetic_city(SynthSpec(weeks=130, seed=13))
        stub = StubOptimizer()
        monkeypatch.setattr(evaluation, "optimize", stub)
        protocol = ProtocolConfig(first_target=105, last_target=120, refit_every=5)
        report, = run_backtest(city, ("gp",), protocol=protocol)
        # 16 targets, re-optimization at t = 105, 110, 115, 120
        assert stub.calls == 4
        assert report.n_failed == 0

    def test_single_refit_when_interval_exceeds_window(self, monkeypatch):
        city = synthetic_city(SynthSpec(weeks=130, seed=13))
        stub = StubOptimizer()
        monkeypatch.setattr(evaluation, "optimize", stub)
        report, = run_backtest(city, ("gp",),
                               protocol=ProtocolConfig(last_target=120, refit_every=52))
        assert stub.calls == 1
        assert report.n_failed == 0

    def test_optimizer_failure_keeps_previous_hyperparameters(self, monkeypatch):
        city = synthetic_city(SynthSpec(weeks=130, seed=14))
        stub = StubOptimizer(fail_from=2)
        monkeypatch.setattr(evaluation, "optimize", stub)
        protocol = ProtocolConfig(first_target=105, last_target=120, refit_every=5)
        report, = run_backtest(city, ("gp",), protocol=protocol)
        assert stub.calls == 4
        assert report.n_failed == 0  # later refits fail but the old h still works

    def test_mutating_embargoed_weeks_cannot_move_the_forecast(self):
        # the forecast for week 105 may use weeks 1..101 only, so whatever
        # weeks 102..110 hold, no model may move any predicted number
        city = synthetic_city(SynthSpec(weeks=110, seed=15))
        protocol = ProtocolConfig(first_target=105, last_target=105)
        optimizer_config = OptimizerConfig(restarts=1, seed=0)
        n_seen = protocol.first_target - protocol.horizon
        n_hidden = city.dir_series.n_weeks - n_seen

        def forecasts(c):
            rows = {r.model: r.rows[0] for r in run_backtest(c, MODELS, protocol,
                                                             optimizer_config)}
            return {m: (r.predicted_dir, r.sd, r.lower95, r.upper95) for m, r in rows.items()}

        base = forecasts(city)
        assert all(f[0] is not None for f in base.values())

        finite = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)

        @settings(max_examples=20, deadline=None, database=None)
        @given(dir_tail=arrays(float, n_hidden, elements=finite),
               cov_tail=arrays(float, (n_hidden, 3), elements=finite))
        def check(dir_tail, cov_tail):
            tampered = make_city(
                np.concatenate([city.dir_series.values[:n_seen], dir_tail]),
                np.concatenate([city.covariates[:n_seen], cov_tail]))
            assert forecasts(tampered) == base

        check()

    def test_ar_gap_is_recorded_not_fatal(self):
        city = synthetic_city(SynthSpec(weeks=110, seed=16))
        values = city.dir_series.values.copy()
        values[89:101] = 0.0  # constant 12-week window for target 105
        flat = make_city(values, city.covariates)
        report, = run_backtest(flat, ("ar",),
                               protocol=ProtocolConfig(first_target=105, last_target=106))
        assert report.rows[0].predicted_dir is None
        assert report.n_failed >= 1
        assert len(report.rows) == 2

    def test_gp_design_failure_is_a_gap_not_fatal(self, monkeypatch):
        # humidity is flat through week 120, so every origin whose lag
        # window still reaches into that stretch cannot build a design
        city = synthetic_city(SynthSpec(weeks=160, seed=18))
        covariates = city.covariates.copy()
        covariates[:120, 2] = covariates[0, 2]
        flat = make_city(city.dir_series.values, covariates)
        monkeypatch.setattr(evaluation, "optimize", StubOptimizer())
        designs = count_calls(monkeypatch, "build_design")
        protocol = ProtocolConfig(first_target=145, last_target=156)
        gp, lm, ar = run_backtest(flat, ("gp", "lm", "ar"), protocol=protocol)
        gaps = [r.target_week for r in gp.rows if r.predicted_dir is None]
        assert 0 < gp.n_failed < len(gp.rows)
        assert gaps == [r.target_week for r in lm.rows if r.predicted_dir is None]
        # one design attempt per origin serves gp and lm, and ar needs none
        assert len(designs) == len(gp.rows)
        assert all(r.predicted_dir is not None for r in ar.rows if r.target_week in gaps)
        # the gap comes from the design failure named here
        with pytest.raises(ValueError, match="lag selection for humidity_pct"):
            build_design(flat.training_view(gaps[0] - protocol.horizon))

    @pytest.mark.parametrize("value", [0.1, 1e-3, 0.7, 25.7])
    def test_constant_climate_column_is_a_gap_whatever_its_rounding(self, monkeypatch,
                                                                   value):
        # np.std of these columns is not exactly 0; gp and lm still get gaps
        city = synthetic_city(SynthSpec(weeks=130, seed=18))
        covariates = city.covariates.copy()
        covariates[:, 2] = value
        monkeypatch.setattr(evaluation, "optimize", StubOptimizer())
        gp, lm, ar = run_backtest(make_city(city.dir_series.values, covariates), MODELS,
                                  protocol=ProtocolConfig(first_target=105, last_target=110))
        assert gp.n_failed == lm.n_failed == len(gp.rows) == 6
        assert ar.n_failed == 0

    def test_models_share_one_preprocessing_per_origin(self, monkeypatch):
        city = synthetic_city(SynthSpec(weeks=130, seed=13))
        monkeypatch.setattr(evaluation, "optimize", StubOptimizer())
        screens = count_calls(monkeypatch, "remove_additive_outliers")
        designs = count_calls(monkeypatch, "build_design")
        protocol = ProtocolConfig(first_target=105, last_target=116)
        reports = run_backtest(city, MODELS, protocol=protocol)
        n_targets = len(reports[0].rows)
        assert all(r.n_failed == 0 for r in reports)
        assert len(screens) == len(designs) == n_targets
        # the AR baseline alone needs the outlier screen, not a design
        designs.clear()
        run_backtest(city, ("ar",), protocol=protocol)
        assert len(designs) == 0
        # sharing moves no number: each model alone on its own copy agrees
        alone = [run_backtest(make_city(city.dir_series.values, city.covariates), (m,),
                              protocol=protocol)[0] for m in MODELS]
        assert [r.rows for r in alone] == [r.rows for r in reports]

    @pytest.mark.parametrize("horizon", [1, 2, 4])
    def test_ar_forecasts_the_protocol_horizon(self, horizon):
        # the AR row for target t iterates the one-step map horizon times
        # from the last week of the view ending at t - horizon
        city = synthetic_city(SynthSpec(weeks=120, seed=17))
        report, = run_backtest(city, ("ar",), protocol=ProtocolConfig(
            horizon=horizon, first_target=105, last_target=108))
        for row in report.rows:
            log_values, _ = city.training_view(row.target_week - horizon).log_series
            state = ar_fit(log_values)
            expected = log_values[-1]
            for _ in range(horizon):
                expected = state.intercept + state.phi * expected
            assert row.predicted_dir == to_natural(expected)[0]

    def test_ar_overflow_becomes_gap(self):
        # 12-week window [0]*10 + [1, 10] on the log scale fits a slope
        # of 9.9; four steps from 10 overflow expm1 and must be a gap,
        # never an inf forecast that poisons the metrics.  Log values
        # drawn uniformly on [0, 10] leave the outlier screen a residual
        # scale too wide to flag any week of that window.
        z = np.random.default_rng(0).uniform(0.0, 10.0, size=110)
        z[89:101] = [0.0] * 10 + [1.0, 10.0]
        explosive = make_city(np.expm1(z))
        report, = run_backtest(explosive, ("ar",),
                               protocol=ProtocolConfig(first_target=105, last_target=106))
        assert report.rows[0].predicted_dir is None
        assert report.n_failed >= 1
        for row in report.rows:
            assert row.predicted_dir is None or np.isfinite(row.predicted_dir)

    def test_gp_overflow_becomes_gap(self, monkeypatch):
        city = synthetic_city(SynthSpec(weeks=110, seed=19))
        monkeypatch.setattr(evaluation, "optimize", StubOptimizer())
        monkeypatch.setattr(evaluation, "predict",
                            lambda model, week, x: PredictiveDistribution(1e6, 0.01))
        report, = run_backtest(city, ("gp",),
                               protocol=ProtocolConfig(first_target=105, last_target=106))
        assert all(r.predicted_dir is None and r.sd is None and r.upper95 is None
                   for r in report.rows)
        assert report.n_failed == 2

    def test_series_must_cover_the_window(self):
        city = synthetic_city(SynthSpec(weeks=110, seed=17))
        with pytest.raises(ValueError, match="must cover"):
            run_backtest(city, ("ar",), protocol=ProtocolConfig(last_target=150))

    def test_unknown_model_rejected(self):
        city = synthetic_city(SynthSpec(weeks=110, seed=18))
        with pytest.raises(ValueError, match="model"):
            run_backtest(city, ("glm",))
        with pytest.raises(ValueError, match="model"):
            run_backtest(city, "ar")  # a bare name is a string of letters, not models

    def test_band_eligibility_uses_all_actuals(self):
        quiet = make_city(np.linspace(1.0, 20.0, 110))
        report, = run_backtest(quiet, ("ar",),
                               protocol=ProtocolConfig(first_target=105, last_target=106))
        assert report.band_eligibility == "none"
        assert report.auc_medium is None and report.auc_high is None

        spiky = make_city(np.concatenate([np.linspace(1.0, 20.0, 104),
                                          [30.0, 90.0, 10.0, 40.0, 80.0, 5.0]]))
        report, = run_backtest(spiky, ("ar",),
                               protocol=ProtocolConfig(first_target=105, last_target=110))
        assert report.band_eligibility == "medium+high"

    def test_gp_tracks_a_seasonal_city(self):
        spec = dataclasses.replace(strongly_periodic_spec(seed=3), weeks=209)
        city = synthetic_city(spec)
        report, = run_backtest(
            city, ("gp",),
            protocol=ProtocolConfig(first_target=105, last_target=125),
            optimizer_config=OptimizerConfig(restarts=2, max_iterations=80, seed=0))
        assert report.n_failed == 0
        assert report.pearson is not None and report.pearson > 0.5
        predicted = np.array([r.predicted_dir for r in report.rows])
        assert np.all(predicted >= 0.0)
        sds = np.array([r.sd for r in report.rows])
        assert np.all(sds > 0.0)
        for r in report.rows:
            assert r.lower95 <= r.predicted_dir <= r.upper95 or r.lower95 == 0.0


class TestAggregateReports:
    def test_single_city_quartiles_collapse_to_value(self):
        reports = [report_stub("c1", "ar", 0.6, auc_medium=0.8, auc_high=0.7)]
        cities = {"c1": type("R", (), {"region": "South"})()}
        summary = aggregate_reports(reports, cities)
        block = summary["overall"]["ar"]
        assert block["pearson"] == {"q1": 0.6, "median": 0.6, "q3": 0.6, "n": 1}
        assert block["auc_mean"]["median"] == pytest.approx(0.75)
        assert summary["n_cities"] == 1
        assert summary["regions"]["South"]["ar"]["pearson"]["median"] == 0.6

    def test_median_matches_numpy(self):
        values = [0.1, 0.9, 0.4, 0.7, 0.2, 0.55, 0.3]
        reports = [report_stub(f"c{i}", "ar", v) for i, v in enumerate(values)]
        cities = {f"c{i}": type("R", (), {"region": "South"})() for i in range(7)}
        summary = aggregate_reports(reports, cities)
        got = summary["overall"]["ar"]["pearson"]
        assert got["median"] == pytest.approx(np.median(values))
        assert got["q1"] == pytest.approx(np.quantile(values, 0.25))
        assert got["q3"] == pytest.approx(np.quantile(values, 0.75))
        assert got["n"] == 7

    def test_win_matrix_is_strict_and_skips_none(self):
        reports = [
            report_stub("c1", "gp", 0.9), report_stub("c1", "ar", 0.5),
            report_stub("c2", "gp", 0.4), report_stub("c2", "ar", 0.4),
            report_stub("c3", "gp", None), report_stub("c3", "ar", 0.2),
        ]
        cities = {c: type("R", (), {"region": "South"})() for c in ("c1", "c2", "c3")}
        wins = aggregate_reports(reports, cities)["wins"]["pearson"]
        assert wins["gp"]["ar"] == 1  # only c1; c2 ties, c3 has a None
        assert wins["ar"]["gp"] == 0
        assert wins["gp"]["gp"] == 0 and wins["ar"]["ar"] == 0

    def test_missing_metric_excluded_from_quartiles(self):
        reports = [report_stub("c1", "ar", 0.6), report_stub("c2", "ar", None)]
        cities = {c: type("R", (), {"region": "South"})() for c in ("c1", "c2")}
        summary = aggregate_reports(reports, cities)
        assert summary["overall"]["ar"]["pearson"]["n"] == 1
        assert summary["overall"]["ar"]["auc_medium"] is None
        assert summary["cities"]["c2"]["ar"]["pearson"] is None

    def test_empty_reports_rejected(self):
        with pytest.raises(ValueError):
            aggregate_reports([], {})


class TestAucMeanProperty:
    def test_combinations(self):
        r = report_stub("c1", "ar", 0.5, auc_medium=0.8, auc_high=0.6)
        assert r.auc_mean == pytest.approx(0.7)
        r = report_stub("c1", "ar", 0.5, auc_medium=0.8)
        assert r.auc_mean == 0.8
        r = report_stub("c1", "ar", 0.5)
        assert r.auc_mean is None
