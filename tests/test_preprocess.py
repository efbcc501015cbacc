"""Transform pipeline: log scaling, training-window centering and
standardization, lag selection, and additive-outlier cleaning."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from denguegp.data import WeeklySeries, compute_dir
from denguegp.preprocess import (LAG_MAX, LAG_MIN, TransformState,
                                 center_response, inverse_log_transform,
                                 log_transform, remove_additive_outliers,
                                 select_lag, standardize_covariates)
from denguegp.synth import draw_from_prior, low_incidence_spec


def series(values, start_week=1, city_id="c1"):
    return WeeklySeries(city_id, start_week, np.asarray(values, dtype=float))


def ar1_log_series(rng, n=150, phi=0.6, noise_sd=0.3, level=2.0):
    z = np.zeros(n)
    for t in range(1, n):
        z[t] = phi * z[t - 1] + rng.normal(scale=noise_sd)
    return z + level


class TestLogTransform:
    def test_values(self):
        s = log_transform(series([0.0, np.e - 1, 17.5, 300.0]))
        assert_allclose(s.values, [0.0, 1.0, np.log(18.5), np.log(301.0)], rtol=1e-15)

    def test_round_trip(self):
        original = series([0.0, 1.0, 17.5, 300.0])
        back = inverse_log_transform(log_transform(original))
        assert_allclose(back.values, original.values, rtol=1e-12)
        assert back.start_week == original.start_week

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_transform(series([1.0, -0.5, 2.0]))


class TestCenterResponse:
    def test_constant_series(self):
        centered, mean = center_response(series([7.0] * 10), training_end=10)
        assert mean == 7.0
        assert_allclose(centered.values, np.zeros(10), atol=0)

    def test_mean_ignores_later_weeks(self):
        centered, mean = center_response(series([0.0, 0.0, 100.0]), training_end=2)
        assert mean == 0.0
        assert_allclose(centered.values, [0.0, 0.0, 100.0])

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        original = series(rng.normal(size=30))
        centered, mean = center_response(original, training_end=20)
        assert_allclose(centered.values + mean, original.values, rtol=1e-15, atol=1e-15)

    def test_training_end_outside_series(self):
        with pytest.raises(ValueError):
            center_response(series([1.0, 2.0]), training_end=5)


class TestStandardizeCovariates:
    def test_small_column(self):
        X, means, stds = standardize_covariates(np.array([[1.0], [2.0], [3.0]]), 3)
        assert_allclose(means, [2.0])
        assert_allclose(stds, [np.sqrt(2.0 / 3.0)])
        assert_allclose(X[0, 0], -1.0 / np.sqrt(2.0 / 3.0), rtol=1e-15)

    def test_training_rows_mean_zero_unit_sd(self):
        rng = np.random.default_rng(11)
        X, _, _ = standardize_covariates(rng.normal(size=(40, 3)) * 5 + 2, 30)
        assert_allclose(X[:30].mean(axis=0), np.zeros(3), atol=1e-12)
        assert_allclose(X[:30].std(axis=0), np.ones(3), rtol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        X, _, _ = standardize_covariates(rng.normal(size=(25, 3)), 25)
        X2, means, stds = standardize_covariates(X, 25)
        assert_allclose(X2, X, atol=1e-12)
        assert_allclose(means, np.zeros(3), atol=1e-12)
        assert_allclose(stds, np.ones(3), rtol=1e-12)

    def test_later_rows_use_training_statistics(self):
        cov = np.zeros((10, 1))
        cov[:5, 0] = [1.0, 2.0, 3.0, 4.0, 5.0]
        cov[5:, 0] = 1000.0
        X, means, stds = standardize_covariates(cov, 5)
        assert_allclose(means, [3.0])
        assert_allclose(X[5:, 0], (1000.0 - 3.0) / stds[0])

    def test_constant_column_rejected(self):
        cov = np.column_stack([np.arange(10.0), np.full(10, 4.0)])
        with pytest.raises(ValueError, match="column 1"):
            standardize_covariates(cov, 10)

    def test_bad_row_count(self):
        with pytest.raises(ValueError):
            standardize_covariates(np.ones((5, 2)), 9)


def brute_force_lag(covariate, target, n_train, lag_min=LAG_MIN, lag_max=LAG_MAX):
    best_lag, best_abs = None, -np.inf
    for lag in range(lag_min, lag_max + 1):
        r = abs(np.corrcoef(covariate[: n_train - lag], target[lag:n_train])[0, 1])
        if r > best_abs + 1e-15:
            best_lag, best_abs = lag, r
    return best_lag


class TestSelectLag:
    def test_recovers_constructed_shift(self):
        rng = np.random.default_rng(17)
        covariate = rng.normal(size=160)
        target = np.concatenate([rng.normal(size=10), covariate[:-10]])
        lag = select_lag(covariate, target, training_end=140)
        assert lag == 10
        assert lag == brute_force_lag(covariate, target, 140)

    def test_matches_brute_force_on_noise(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            covariate = rng.normal(size=120)
            target = rng.normal(size=120)
            lag = select_lag(covariate, target, training_end=100)
            assert LAG_MIN <= lag <= LAG_MAX
            assert lag == brute_force_lag(covariate, target, 100)

    def test_exact_tie_breaks_to_smaller_lag(self):
        # period-2 covariate makes |r| exactly 1 at every candidate lag
        covariate = np.tile([1.0, -1.0], 75)
        target = covariate.copy()
        assert select_lag(covariate, target, training_end=120) == LAG_MIN

    def test_affine_invariance(self):
        rng = np.random.default_rng(23)
        covariate = rng.normal(size=160)
        target = np.concatenate([rng.normal(size=7), covariate[:-7] * 2.0])
        base = select_lag(covariate, target, training_end=130)
        assert select_lag(3.5 * covariate + 11.0, target, training_end=130) == base
        assert select_lag(-2.0 * covariate, 0.5 * target - 4.0, training_end=130) == base

    def test_window_too_short(self):
        rng = np.random.default_rng(29)
        with pytest.raises(ValueError):
            select_lag(rng.normal(size=50), rng.normal(size=50), training_end=36)
        assert select_lag(np.sin(np.arange(50.0)), np.cos(np.arange(50.0)),
                          training_end=37) is not None


class TestRemoveAdditiveOutliers:
    def test_clean_series_not_flagged(self):
        rng = np.random.default_rng(31)
        values = np.expm1(ar1_log_series(rng))
        patched, flagged = remove_additive_outliers(series(values))
        assert flagged == []
        assert np.array_equal(patched.values, values)

    def test_spike_is_flagged_and_patched(self):
        rng = np.random.default_rng(37)
        z_clean = ar1_log_series(rng)
        z = z_clean.copy()
        z[50] += 3.0  # ten noise standard deviations
        corrupted = np.expm1(z)
        patched, flagged = remove_additive_outliers(series(corrupted))
        assert 51 in flagged  # start_week 1, index 50
        assert abs(np.log1p(patched.values[50]) - z_clean[50]) < 0.9
        untouched = [i for i in range(corrupted.size) if i + 1 not in flagged]
        assert np.array_equal(patched.values[untouched], corrupted[untouched])

    def test_second_pass_finds_nothing(self):
        rng = np.random.default_rng(37)
        z = ar1_log_series(rng)
        z[50] += 3.0
        patched, flagged = remove_additive_outliers(series(np.expm1(z)))
        assert flagged != []
        again, flagged2 = remove_additive_outliers(patched)
        assert flagged2 == []
        assert np.array_equal(again.values, patched.values)

    def test_constant_series_unchanged(self):
        patched, flagged = remove_additive_outliers(series([5.0] * 40))
        assert flagged == []
        assert np.array_equal(patched.values, np.full(40, 5.0))

    def test_week_labels_respect_start_week(self):
        rng = np.random.default_rng(41)
        z = ar1_log_series(rng)
        z[60] += 3.0
        _, flagged = remove_additive_outliers(series(np.expm1(z), start_week=100))
        assert 160 in flagged

    def test_patches_never_go_negative(self):
        # a quiet prior draw at 400k population: several flagged weeks sit
        # next to zero counts, where the AR fitted value is below log1p(0)
        draw = draw_from_prior(dataclasses.replace(low_incidence_spec(), seed=310))
        counts = np.round(draw.dir_series.values * 400000 / 1e5)
        dir_values = compute_dir(series(counts), 400000).values
        patched, flagged = remove_additive_outliers(series(dir_values[:101]))
        assert len(flagged) > 0
        assert patched.values.min() == 0.0
        log_transform(patched)  # must not raise
        untouched = [i for i in range(101) if i + 1 not in flagged]
        assert np.array_equal(patched.values[untouched], dir_values[:101][untouched])

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            remove_additive_outliers(series(np.arange(10.0)))

    def test_negative_values_rejected(self):
        values = np.ones(30)
        values[3] = -1.0
        with pytest.raises(ValueError):
            remove_additive_outliers(series(values))


class TestNoLookAhead:
    """Mutating weeks after the training window must not change anything
    computed from it."""

    def test_centering_and_lag_selection(self):
        rng = np.random.default_rng(43)
        covariate = rng.normal(size=160)
        target = np.concatenate([rng.normal(size=8), covariate[:-8]])

        _, mean_a = center_response(series(target), training_end=120)
        lag_a = select_lag(covariate, target, training_end=120)

        covariate2, target2 = covariate.copy(), target.copy()
        covariate2[120:] = 9999.0
        target2[120:] = -7777.0  # centering sees raw values, cleaning does not run here
        _, mean_b = center_response(series(np.abs(target2)), training_end=120)
        _, mean_a_abs = center_response(series(np.abs(target)), training_end=120)
        lag_b = select_lag(covariate2, target2, training_end=120)

        assert mean_b == mean_a_abs
        assert lag_b == lag_a

    def test_standardization_statistics(self):
        rng = np.random.default_rng(47)
        cov = rng.normal(size=(80, 3))
        _, means_a, stds_a = standardize_covariates(cov, 60)
        cov2 = cov.copy()
        cov2[60:] = 1e6
        _, means_b, stds_b = standardize_covariates(cov2, 60)
        assert np.array_equal(means_a, means_b)
        assert np.array_equal(stds_a, stds_b)


class TestTransformState:
    def test_round_trip(self):
        state = TransformState(1.5, (0.1, 0.2, 0.3), (1.0, 2.0, 3.0), (4, 15, 26),
                               flagged_weeks=(12, 80))
        assert TransformState.from_dict(state.to_dict()) == state

    def test_rejects_bad_std(self):
        with pytest.raises(ValueError):
            TransformState(0.0, (0.0, 0.0, 0.0), (1.0, 0.0, 1.0), (4, 4, 4))

    def test_rejects_lag_outside_range(self):
        with pytest.raises(ValueError):
            TransformState(0.0, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (3, 4, 4))
        with pytest.raises(ValueError):
            TransformState(0.0, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (4, 4, 27))
