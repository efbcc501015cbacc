"""Transform pipeline: log scaling, standardization, lag selection, and
additive-outlier cleaning, each on plain arrays."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from denguegp.data import WeeklySeries, compute_dir
from denguegp.preprocess import (LAG_MAX, LAG_MIN, TransformState, _fit_ar,
                                 _select_ar_order, log_transform,
                                 remove_additive_outliers, select_lag,
                                 standardize_covariates)
from denguegp.synth import draw_from_prior, low_incidence_spec


def ar1_log_series(rng, n=150, phi=0.6, noise_sd=0.3, level=2.0):
    z = np.zeros(n)
    for t in range(1, n):
        z[t] = phi * z[t - 1] + rng.normal(scale=noise_sd)
    return z + level


def low_incidence_dir(seed, population=200000):
    """DIR of a quiet prior draw rounded to whole cases: mostly 0-3 cases
    a week, so many weeks are zero and many windows repeat."""
    draw = draw_from_prior(dataclasses.replace(low_incidence_spec(), seed=seed))
    counts = np.round(draw.dir_series.values * population / 1e5)
    return compute_dir(WeeklySeries("c1", 1, counts), population).values, draw.raw_covariates


class TestLogTransform:
    def test_values(self):
        got = log_transform([0.0, np.e - 1, 17.5, 300.0])
        assert_allclose(got, [0.0, 1.0, np.log(18.5), np.log(301.0)], rtol=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_transform([1.0, -0.5, 2.0])


class TestStandardizeCovariates:
    def test_small_column(self):
        X, means, stds = standardize_covariates(np.array([[1.0], [2.0], [3.0]]))
        assert_allclose(means, [2.0])
        assert_allclose(stds, [np.sqrt(2.0 / 3.0)])
        assert_allclose(X[0, 0], -1.0 / np.sqrt(2.0 / 3.0), rtol=1e-15)

    def test_training_rows_mean_zero_unit_sd(self):
        rng = np.random.default_rng(11)
        X, _, _ = standardize_covariates(rng.normal(size=(40, 3)) * 5 + 2)
        assert_allclose(X.mean(axis=0), np.zeros(3), atol=1e-12)
        assert_allclose(X.std(axis=0), np.ones(3), rtol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        X, _, _ = standardize_covariates(rng.normal(size=(25, 3)))
        X2, means, stds = standardize_covariates(X)
        assert_allclose(X2, X, atol=1e-12)
        assert_allclose(means, np.zeros(3), atol=1e-12)
        assert_allclose(stds, np.ones(3), rtol=1e-12)

    def test_constant_column_rejected(self):
        cov = np.column_stack([np.arange(10.0), np.full(10, 4.0)])
        with pytest.raises(ValueError, match="column 1"):
            standardize_covariates(cov)

    def test_bad_row_count(self):
        with pytest.raises(ValueError):
            standardize_covariates(np.ones((0, 2)))
        with pytest.raises(ValueError):
            standardize_covariates(np.ones(5))


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
        lag = select_lag(covariate[:140], target[:140])
        assert lag == 10
        assert lag == brute_force_lag(covariate, target, 140)

    def test_matches_brute_force_on_noise(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            covariate = rng.normal(size=120)
            target = rng.normal(size=120)
            lag = select_lag(covariate[:100], target[:100])
            assert LAG_MIN <= lag <= LAG_MAX
            assert lag == brute_force_lag(covariate, target, 100)

    def test_matches_brute_force_on_low_incidence_windows(self):
        # zero-heavy cleaned log incidence against the draw's own climate
        zero_shares = []
        for seed in range(8):
            dir_values, climate = low_incidence_dir(seed, population=100000)
            for end in (60, 101, 137, 170, 209):
                cleaned, _ = remove_additive_outliers(dir_values[:end])
                target = np.log1p(cleaned)
                zero_shares.append(np.mean(target == 0))
                for d in range(3):
                    assert (select_lag(climate[:end, d], target)
                            == brute_force_lag(climate[:end, d], target, end))
        assert np.mean(zero_shares) > 0.3

    def test_zero_variance_overlap_rejected(self):
        # the covariate is flat over the overlap of the longest lag only
        rng = np.random.default_rng(53)
        covariate = np.concatenate([np.full(100, 25.0), rng.normal(size=LAG_MAX)])
        with pytest.raises(ValueError, match="zero-variance"):
            select_lag(covariate, rng.normal(size=covariate.size))

    def test_exact_tie_breaks_to_smaller_lag(self):
        # period-2 covariate makes |r| exactly 1 at every candidate lag
        covariate = np.tile([1.0, -1.0], 75)
        target = covariate.copy()
        assert select_lag(covariate[:120], target[:120]) == LAG_MIN

    def test_affine_invariance(self):
        rng = np.random.default_rng(23)
        covariate = rng.normal(size=160)
        target = np.concatenate([rng.normal(size=7), covariate[:-7] * 2.0])
        covariate, target = covariate[:130], target[:130]
        base = select_lag(covariate, target)
        assert select_lag(3.5 * covariate + 11.0, target) == base
        assert select_lag(-2.0 * covariate, 0.5 * target - 4.0) == base

    def test_window_too_short(self):
        rng = np.random.default_rng(29)
        with pytest.raises(ValueError):
            select_lag(rng.normal(size=36), rng.normal(size=36))
        with pytest.raises(ValueError):
            select_lag(rng.normal(size=50), rng.normal(size=49))
        assert select_lag(np.sin(np.arange(37.0)), np.cos(np.arange(37.0))) is not None


def brute_force_outliers(values):
    """Per-week t-ratio loop: one dot product per week for omega_t and
    its denominator, and the earliest week within 1e-12 of the largest
    |tau| as the worst.  Returns the patched values and flagged indices."""
    z = np.log1p(values.astype(float))
    flagged = []
    if np.ptp(z) == 0:
        return values.copy(), flagged
    for _ in range(10):
        order = _select_ar_order(z)
        coef, fitted, resid = _fit_ar(z, order)
        sigma = 1.4826 * float(np.median(np.abs(resid - np.median(resid))))
        if sigma == 0:
            sigma = float(np.std(resid))
        if sigma == 0:
            break
        pi = np.concatenate(([1.0], -coef[1:]))
        n = z.size
        tau = np.zeros(n)
        for t in range(order, n):
            ks = np.arange(0, min(order, n - 1 - t) + 1)
            den = float(pi[ks] @ pi[ks])
            tau[t] = float(resid[t - order + ks] @ pi[ks]) / den * np.sqrt(den) / sigma
        abs_tau = np.abs(tau)
        worst = int(np.flatnonzero(abs_tau >= abs_tau.max() * (1.0 - 1e-12))[0])
        if abs_tau[worst] <= 3.5:
            break
        if worst not in flagged:
            flagged.append(worst)
        z[worst] = fitted[worst - order]
    out = values.astype(float).copy()
    for idx in flagged:
        out[idx] = max(np.expm1(z[idx]), 0.0)
    return out, flagged


def assert_matches_brute_force(values):
    patched, flagged = remove_additive_outliers(values)
    expected, indices = brute_force_outliers(values)
    assert flagged == indices
    assert np.array_equal(patched, expected)
    return indices


# Counts of a quiet city (population 200000) through week 115.  Weeks 52
# and 62 (indices 51 and 61) carry mirror-image neighbourhoods, 0 2 1 and
# 1 2 0 cases, so under the AR(1) fit their |tau| are equal in exact
# arithmetic.
TIE_COUNTS = [
    2, 3, 4, 2, 2, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 1, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 2, 1, 1, 1, 2, 1, 1, 1, 0, 1, 2, 0, 0, 1, 2, 2, 1, 1, 1, 1, 1,
    0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 3, 2]


def exact_abs_tau_squared(z, coef, order, t):
    """|omega_t|^2 * den_t in rational arithmetic on the float inputs;
    proportional to tau_t^2."""
    q = [Fraction(float(c)) for c in coef]
    pi = [Fraction(1)] + [-c for c in q[1:]]

    def resid(s):
        return Fraction(float(z[s])) - q[0] - sum(
            q[i] * Fraction(float(z[s - i])) for i in range(1, order + 1))

    ks = range(min(order, z.size - 1 - t) + 1)
    num = sum(resid(t + k) * pi[k] for k in ks)
    return num * num / sum(pi[k] * pi[k] for k in ks)


class TestRemoveAdditiveOutliers:
    def test_matches_brute_force_on_spiked_ar_series(self):
        rng = np.random.default_rng(59)
        n_flagged = 0
        for i in range(40):
            n = int(rng.integers(20, 220))
            z = ar1_log_series(rng, n=n, phi=rng.uniform(-0.5, 0.9),
                               noise_sd=rng.uniform(0.05, 0.5))
            if i % 2:  # add an AR(2) term
                z[2:] += 0.3 * (z[:-2] - z.mean())
            spikes = rng.choice(n, size=int(rng.integers(0, 4)), replace=False)
            z[spikes] += rng.choice([-1.0, 1.0], size=spikes.size) * rng.uniform(1.0, 4.0, spikes.size)
            n_flagged += len(assert_matches_brute_force(np.expm1(np.abs(z))))
        assert n_flagged > 20

    def test_matches_brute_force_on_low_incidence_draws(self):
        n_flagged = 0
        for seed in range(12):
            dir_values, _ = low_incidence_dir(seed)
            for end in (40, 101, 115, 152, 209):
                n_flagged += len(assert_matches_brute_force(dir_values[:end]))
        assert n_flagged > 50

    def test_exact_tie_flags_earlier_week_first(self):
        dir_values = compute_dir(WeeklySeries("c1", 1, TIE_COUNTS), 200000).values
        z = np.log1p(dir_values)
        order = _select_ar_order(z)
        coef, _, _ = _fit_ar(z, order)
        assert order == 1
        assert (exact_abs_tau_squared(z, coef, order, 51)
                == exact_abs_tau_squared(z, coef, order, 61)
                == max(exact_abs_tau_squared(z, coef, order, t)
                       for t in range(order, z.size)))

        _, flagged = remove_additive_outliers(dir_values)
        assert flagged[:2] == [51, 61]
        assert_matches_brute_force(dir_values)

    def test_clean_series_not_flagged(self):
        rng = np.random.default_rng(31)
        values = np.expm1(ar1_log_series(rng))
        patched, flagged = remove_additive_outliers(values)
        assert flagged == []
        assert np.array_equal(patched, values)

    def test_spike_is_flagged_and_patched(self):
        rng = np.random.default_rng(37)
        z_clean = ar1_log_series(rng)
        z = z_clean.copy()
        z[50] += 3.0  # ten noise standard deviations
        corrupted = np.expm1(z)
        patched, flagged = remove_additive_outliers(corrupted)
        assert 50 in flagged
        assert abs(np.log1p(patched[50]) - z_clean[50]) < 0.9
        untouched = [i for i in range(corrupted.size) if i not in flagged]
        assert np.array_equal(patched[untouched], corrupted[untouched])

    def test_second_pass_finds_nothing(self):
        rng = np.random.default_rng(37)
        z = ar1_log_series(rng)
        z[50] += 3.0
        patched, flagged = remove_additive_outliers(np.expm1(z))
        assert flagged != []
        again, flagged2 = remove_additive_outliers(patched)
        assert flagged2 == []
        assert np.array_equal(again, patched)

    def test_constant_series_unchanged(self):
        patched, flagged = remove_additive_outliers([5.0] * 40)
        assert flagged == []
        assert np.array_equal(patched, np.full(40, 5.0))

    def test_patches_never_go_negative(self):
        # a quiet prior draw at 400k population: several flagged weeks sit
        # next to zero counts, where the AR fitted value is below log1p(0)
        dir_values, _ = low_incidence_dir(310, population=400000)
        patched, flagged = remove_additive_outliers(dir_values[:101])
        assert len(flagged) > 0
        assert patched.min() == 0.0
        log_transform(patched)  # must not raise
        untouched = [i for i in range(101) if i not in flagged]
        assert np.array_equal(patched[untouched], dir_values[:101][untouched])

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            remove_additive_outliers(np.arange(10.0))

    def test_negative_values_rejected(self):
        values = np.ones(30)
        values[3] = -1.0
        with pytest.raises(ValueError):
            remove_additive_outliers(values)


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
