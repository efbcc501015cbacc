"""Synthetic generator: reproducibility, agreement between the draws and
the generating covariance, and fixture round-trips."""

import dataclasses
import json
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from denguegp.data import compute_dir, load_dataset
from denguegp.kernels import composite_kernel
from denguegp.synth import (CovariateProcess, SynthSpec, draw_from_prior,
                            low_incidence_spec, make_multi_city_fixture,
                            strongly_periodic_spec)


def autocorrelation(x, lag):
    return float(np.corrcoef(x[:-lag], x[lag:])[0, 1])


def noise_free_spec(weeks=80, seed=0):
    processes = (CovariateProcess(120.0, 80.0, 0.0),
                 CovariateProcess(24.0, 4.0, 1.0),
                 CovariateProcess(70.0, 10.0, 2.0))
    return SynthSpec(weeks=weeks, covariates=processes, seed=seed)


class TestCovariateProcess:
    def test_noise_free_is_deterministic_sinusoid(self):
        p = CovariateProcess(mean=10.0, amplitude=2.0, phase=0.5, period=52.0)
        weeks = np.arange(1, 40)
        rng = np.random.default_rng(0)
        expected = 10.0 + 2.0 * np.sin(2 * np.pi * weeks / 52.0 + 0.5)
        assert np.array_equal(p.sample(weeks, rng), expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            CovariateProcess(1.0, 1.0, period=0.0)
        with pytest.raises(ValueError):
            CovariateProcess(1.0, 1.0, noise_sd=-0.1)


class TestDrawFromPrior:
    def test_same_seed_is_bit_identical(self):
        a = draw_from_prior(SynthSpec(seed=9))
        b = draw_from_prior(SynthSpec(seed=9))
        assert np.array_equal(a.dir_series.values, b.dir_series.values)
        assert np.array_equal(a.raw_covariates, b.raw_covariates)
        assert np.array_equal(a.latent, b.latent)
        assert np.array_equal(a.log_observations, b.log_observations)

    def test_different_seeds_differ(self):
        a = draw_from_prior(SynthSpec(seed=1))
        b = draw_from_prior(SynthSpec(seed=2))
        assert not np.array_equal(a.dir_series.values, b.dir_series.values)

    def test_output_is_nonnegative_and_finite(self):
        draw = draw_from_prior(SynthSpec(seed=3))
        assert np.all(draw.dir_series.values >= 0)
        assert np.all(np.isfinite(draw.dir_series.values))
        assert draw.dir_series.n_weeks == 209

    def test_standardized_covariates_are_standardized(self):
        draw = draw_from_prior(SynthSpec(seed=4))
        assert_allclose(draw.standardized_covariates.mean(axis=0), np.zeros(3), atol=1e-12)
        assert_allclose(draw.standardized_covariates.std(axis=0), np.ones(3), rtol=1e-12)

    def test_seasonal_memory_peaks_at_the_period(self):
        # the generating kernel ties week w to week w+52 far more strongly
        # than to week w+26, and the latent draws must show it
        for seed in range(5):
            draw = draw_from_prior(strongly_periodic_spec(seed=seed))
            assert (autocorrelation(draw.latent, 52)
                    > autocorrelation(draw.latent, 26) + 0.2)

    def test_latent_variance_matches_generating_kernel(self):
        # fixed covariates, many independent draws: the sample variance of
        # the latent value at one week estimates the prior variance there
        spec = noise_free_spec()
        draws = [draw_from_prior(dataclasses.replace(spec, seed=s))
                 for s in range(400)]
        week_index = 40
        samples = np.array([d.latent[week_index] for d in draws])
        x = draws[0].standardized_covariates[week_index]
        expected = composite_kernel(week_index + 1, x, week_index + 1, x,
                                    spec.hyperparameters)
        assert float(np.var(samples)) == pytest.approx(expected, rel=0.15)

    def test_low_incidence_stays_below_medium_band(self):
        draw = draw_from_prior(low_incidence_spec(seed=0))
        assert float(draw.dir_series.values.max()) < 25.0

    def test_strongly_periodic_crosses_high_band(self):
        draw = draw_from_prior(strongly_periodic_spec(seed=0))
        assert float(draw.dir_series.values.max()) > 75.0


class TestSynthSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(weeks=59)
        with pytest.raises(ValueError):
            SynthSpec(covariates=(CovariateProcess(1.0, 1.0),))


class TestMultiCityFixture:
    def test_three_city_bundle(self, tmp_path):
        ds = make_multi_city_fixture(str(tmp_path), 3,
                                     variations=(noise_free_spec(),), seed=0)
        assert sorted(ds.cities) == ["C001", "C002", "C003"]
        assert ds.start_week == 1 and ds.end_week == 80
        assert ds.assignments == {"C001": "S001", "C002": "S002", "C003": "S003"}
        assert [ds.cities[c].population for c in sorted(ds.cities)] == [150000, 200000, 250000]

    def test_counts_are_nonnegative_integers(self, tmp_path):
        ds = make_multi_city_fixture(str(tmp_path), 2,
                                     variations=(noise_free_spec(),), seed=1)
        for series in ds.cases.values():
            assert np.all(series.values >= 0)
            assert np.array_equal(series.values, np.round(series.values))

    def test_dir_survives_count_rounding(self, tmp_path):
        ds = make_multi_city_fixture(str(tmp_path), 2,
                                     variations=(noise_free_spec(),), seed=2)
        for i, cid in enumerate(sorted(ds.cities)):
            spec = dataclasses.replace(noise_free_spec(), seed=2 + i)
            truth = draw_from_prior(spec, city_id=cid).dir_series.values
            reloaded = compute_dir(ds.cases[cid], ds.cities[cid].population).values
            half_count = 0.5 * 1e5 / ds.cities[cid].population
            assert np.max(np.abs(reloaded - truth)) <= half_count + 1e-9

    def test_reproducible_across_directories(self, tmp_path):
        a = make_multi_city_fixture(str(tmp_path / "a"), 2,
                                    variations=(noise_free_spec(),), seed=3)
        b = make_multi_city_fixture(str(tmp_path / "b"), 2,
                                    variations=(noise_free_spec(),), seed=3)
        for cid in a.cases:
            assert a.cases[cid] == b.cases[cid]
        for sid in a.stations:
            assert a.stations[sid] == b.stations[sid]

    def test_spec_provenance_is_written(self, tmp_path):
        make_multi_city_fixture(str(tmp_path), 2, variations=(noise_free_spec(),), seed=4)
        with open(os.path.join(tmp_path, "synth_spec.json"), encoding="utf-8") as fh:
            specs = json.load(fh)
        assert sorted(specs) == ["C001", "C002"]
        assert specs["C001"]["seed"] == 4
        assert specs["C002"]["seed"] == 5
        spec = noise_free_spec()
        assert specs["C001"]["hyperparameters"] == spec.hyperparameters.to_dict()
        assert specs["C001"]["covariates"][1] == dataclasses.asdict(spec.covariates[1])

    def test_round_trips_through_loader(self, tmp_path):
        mixed = (SynthSpec(), strongly_periodic_spec(), low_incidence_spec())
        ds = make_multi_city_fixture(str(tmp_path), 3, variations=mixed, seed=5)
        assert ds == load_dataset(str(tmp_path))

    def test_bad_city_count(self, tmp_path):
        with pytest.raises(ValueError):
            make_multi_city_fixture(str(tmp_path), 0)
