"""Transform pipeline: log scaling, standardization, lag selection, and
additive-outlier cleaning, each on plain arrays."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from denguegp.data import WeeklySeries, compute_dir
from denguegp.preprocess import (LAG_MAX, LAG_MIN, TransformState, _ar_design,
                                 _select_ar_order, remove_additive_outliers,
                                 select_lag, standardize_covariates)
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

    @pytest.mark.parametrize("value", [0.1, 1e-3, 0.7, 25.7])
    def test_constant_column_rejected_whatever_its_rounded_std(self, value):
        # np.std of these columns is 2e-19..1.4e-14, not 0
        cov = np.column_stack([np.arange(100.0), np.full(100, value)])
        assert cov[:, 1].std() > 0
        with pytest.raises(ValueError, match="column 1"):
            standardize_covariates(cov)

    def test_bad_row_count(self):
        with pytest.raises(ValueError):
            standardize_covariates(np.ones((0, 2)))
        with pytest.raises(ValueError):
            standardize_covariates(np.ones(5))


def brute_force_lag(covariate, target, n_train, lag_min=LAG_MIN, lag_max=LAG_MAX):
    """np.corrcoef per lag; the smallest lag within 1e-12 of the largest |r|."""
    r = [abs(np.corrcoef(covariate[: n_train - lag], target[lag:n_train])[0, 1])
         for lag in range(lag_min, lag_max + 1)]
    return lag_min + next(i for i, v in enumerate(r) if v >= max(r) * (1.0 - 1e-12))


def climate_scale_pair(rng, n, lag, noise_sd):
    """A smooth covariate with mean about 25 and sd about 2, where sums
    of raw products cancel most, and a target led by it at `lag`."""
    u = np.zeros(n + lag)
    for t in range(1, u.size):
        u[t] = 0.8 * u[t - 1] + rng.normal(scale=0.6)
    covariate = 25.0 + 2.0 * np.sin(2 * np.pi * np.arange(u.size) / 52.0) + u
    target = 0.3 * (covariate[:n] - 25.0) + rng.normal(scale=noise_sd, size=n)
    return covariate[lag:], target


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

    def test_matches_brute_force_on_climate_scale_covariates(self):
        rng = np.random.default_rng(61)
        lags = []
        for _ in range(60):
            n = int(rng.integers(37, 210))
            covariate, target = climate_scale_pair(rng, n, int(rng.integers(4, 27)),
                                                   rng.uniform(0.1, 3.0))
            lag = select_lag(covariate, target)
            assert lag == brute_force_lag(covariate, target, n)
            lags.append(lag)
        assert len(set(lags)) > 5

    @pytest.mark.parametrize("value", [0.1, 1e-3, 0.7, 25.7])
    def test_matches_brute_force_when_only_a_few_weeks_vary(self, value):
        # flat but for the last 1, 2 or 5 weeks of the longest lag's
        # overlap (the covariate) or its first weeks (the target), so that
        # overlap is nearly flat and the one-pass sums cancel most
        rng = np.random.default_rng(67)
        n = 160
        for varying in (1, 2, 5):
            covariate = np.full(n, value)
            covariate[n - LAG_MAX - varying:] += rng.normal(scale=0.01, size=LAG_MAX + varying)
            target = rng.normal(size=n)
            assert select_lag(covariate, target) == brute_force_lag(covariate, target, n)
            target = np.full(n, value)
            target[:LAG_MAX + varying] += rng.normal(scale=0.01, size=LAG_MAX + varying)
            covariate = 25.0 + 2.0 * rng.normal(size=n)
            assert select_lag(covariate, target) == brute_force_lag(covariate, target, n)

    @pytest.mark.parametrize("value", [0.1, 1e-3, 0.7, 25.7])
    def test_flat_overlap_rejected_whatever_its_rounded_variance(self, value):
        # a one-pass or two-pass variance of these windows is not exactly 0
        rng = np.random.default_rng(71)
        flat = np.full(157, value)
        noise = rng.normal(size=LAG_MAX)
        with pytest.raises(ValueError, match="covariate is flat"):
            select_lag(np.concatenate([flat, noise]), rng.normal(size=157 + LAG_MAX))
        with pytest.raises(ValueError, match="target is flat"):
            select_lag(rng.normal(size=157 + LAG_MAX), np.concatenate([noise, flat]))
        with pytest.raises(ValueError, match="covariate is flat"):
            select_lag(np.full(100, value), rng.normal(size=100))

    def test_zero_variance_overlap_rejected(self):
        # the covariate is flat over the overlap of the longest lag only
        rng = np.random.default_rng(53)
        covariate = np.concatenate([np.full(100, 25.0), rng.normal(size=LAG_MAX)])
        with pytest.raises(ValueError, match="zero-variance.*covariate is flat"):
            select_lag(covariate, rng.normal(size=covariate.size))

    def test_flat_target_overlap_named(self):
        # the target is flat from week LAG_MAX on, the longest lag's overlap
        rng = np.random.default_rng(54)
        target = np.concatenate([rng.normal(size=LAG_MAX), np.full(100, 1.0)])
        with pytest.raises(ValueError, match="zero-variance.*target is flat"):
            select_lag(rng.normal(size=target.size), target)

    def test_exact_tie_breaks_to_smaller_lag(self):
        # period-2 series make |r| exactly 1 at every candidate lag; the
        # per-lag sums round differently, by more than 1e-15 at some
        # offsets and lengths
        for offset in (0.0, 0.1, 25.7, 1000.3):
            for n in (37, 120, 157, 209):
                covariate = offset + 2.0 * np.tile([1.0, -1.0], 105)[:n]
                for target in (covariate, 0.5 * covariate - 3.0,
                               np.log1p(np.tile([0.0, 3.0], 105)[:n])):
                    assert select_lag(covariate, target) == LAG_MIN

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


def reference_ar_fit(z, order, t0):
    """lstsq of z_t on [1, z_{t-1}, ..., z_{t-order}] over t = t0..n-1;
    returns (coefficients, fitted, residuals)."""
    n = z.size
    X = np.column_stack([np.ones(n - t0)] + [z[t0 - i:n - i] for i in range(1, order + 1)])
    coef, *_ = np.linalg.lstsq(X, z[t0:], rcond=None)
    fitted = X @ coef
    return coef, fitted, z[t0:] - fitted


def reference_ar_order(z, max_order=4):
    """AIC over max_order separate lstsq fits on the common sample
    t >= max_order; ties go to the lower order."""
    n_eff = z.size - max_order
    best_order, best_aic = 1, np.inf
    for p in range(1, max_order + 1):
        rss = float(np.sum(reference_ar_fit(z, p, max_order)[2] ** 2))
        aic = n_eff * np.log(max(rss / n_eff, 1e-300)) + 2.0 * (p + 1)
        if aic < best_aic:
            best_order, best_aic = p, aic
    return best_order


def brute_force_outliers(values, rounds=None):
    """Per-week t-ratio loop on the reference AR fits: one dot product
    per week for omega_t and its denominator, np.median for the scale,
    and the earliest week within 1e-12 of the largest |tau| as the
    worst.  Returns the patched values and flagged indices; appends a
    copy of each round's log series to `rounds` when given."""
    z = np.log1p(values.astype(float))
    flagged = []
    if np.ptp(z) == 0:
        return values.copy(), flagged
    for _ in range(10):
        if rounds is not None:
            rounds.append(z.copy())
        order = reference_ar_order(z)
        coef, fitted, resid = reference_ar_fit(z, order, order)
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


def spiked_ar_series():
    """Forty AR(1) or AR(2) log series of 20-219 weeks with up to three
    spikes, on the natural scale."""
    rng = np.random.default_rng(59)
    for i in range(40):
        n = int(rng.integers(20, 220))
        z = ar1_log_series(rng, n=n, phi=rng.uniform(-0.5, 0.9),
                           noise_sd=rng.uniform(0.05, 0.5))
        if i % 2:  # add an AR(2) term
            z[2:] += 0.3 * (z[:-2] - z.mean())
        spikes = rng.choice(n, size=int(rng.integers(0, 4)), replace=False)
        z[spikes] += rng.choice([-1.0, 1.0], size=spikes.size) * rng.uniform(1.0, 4.0, spikes.size)
        yield np.expm1(np.abs(z))


def low_incidence_windows():
    """Leading windows of twelve quiet prior draws (DIR)."""
    for seed in range(12):
        dir_values, _ = low_incidence_dir(seed)
        for end in (40, 101, 115, 152, 209):
            yield dir_values[:end]


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
        n_flagged = sum(len(assert_matches_brute_force(v)) for v in spiked_ar_series())
        assert n_flagged > 20

    def test_matches_brute_force_on_low_incidence_draws(self):
        n_flagged = sum(len(assert_matches_brute_force(v)) for v in low_incidence_windows())
        assert n_flagged > 50

    @pytest.mark.parametrize("draws", [spiked_ar_series, low_incidence_windows])
    def test_ar_order_matches_separate_lstsq_fits(self, draws):
        # every round's log series of the reference screen
        orders = []
        for values in draws():
            rounds = []
            brute_force_outliers(values, rounds)
            for z in rounds:
                orders.append(reference_ar_order(z))
                assert _select_ar_order(_ar_design(z)) == orders[-1]
        assert len(set(orders)) > 1

    def test_exact_tie_flags_earlier_week_first(self):
        dir_values = compute_dir(WeeklySeries("c1", 1, TIE_COUNTS), 200000).values
        z = np.log1p(dir_values)
        order = _select_ar_order(_ar_design(z))
        coef, _, _ = reference_ar_fit(z, order, order)
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
        assert np.all(patched >= 0.0)
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
    def test_rejects_bad_std(self):
        with pytest.raises(ValueError):
            TransformState(0.0, (0.0, 0.0, 0.0), (1.0, 0.0, 1.0), (4, 4, 4))

    def test_rejects_lag_outside_range(self):
        with pytest.raises(ValueError):
            TransformState(0.0, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (3, 4, 4))
        with pytest.raises(ValueError):
            TransformState(0.0, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (4, 4, 27))
