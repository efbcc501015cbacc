"""Synthetic data with known ground truth.

Real surveillance data cannot ship with the package, so every end-to-end
check runs on draws from the model's own prior: seasonal sinusoid
covariates feed the composite kernel, a latent series is drawn through
the Gram Cholesky factor, observation noise is added, and the result is
mapped through expm1 onto a nonnegative incidence-like scale.  A fixture
writer turns per-city draws into the standard five-file CSV bundle.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .data import (REGIONS, CityRecord, Dataset, StationRecord, WeeklySeries,
                   nearest_station, save_dataset)
from .gp import _chol_with_jitter
from .kernels import KernelHyperparameters, gram_from_arrays


@dataclass(frozen=True)
class CovariateProcess:
    """Yearly sinusoid plus white noise for one climate covariate."""

    mean: float
    amplitude: float
    phase: float = 0.0
    period: float = 52.0
    noise_sd: float = 0.0

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be nonnegative")

    def sample(self, weeks: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        clean = self.mean + self.amplitude * np.sin(
            2 * np.pi * weeks / self.period + self.phase)
        if self.noise_sd == 0:
            return clean
        return clean + rng.normal(0.0, self.noise_sd, size=weeks.size)


def _default_processes() -> tuple:
    # rainfall mm, temperature C, humidity % with staggered phases
    return (CovariateProcess(mean=120.0, amplitude=80.0, phase=0.0, noise_sd=10.0),
            CovariateProcess(mean=24.0, amplitude=4.0, phase=1.0, noise_sd=0.5),
            CovariateProcess(mean=70.0, amplitude=10.0, phase=2.0, noise_sd=2.0))


def _default_hyperparameters() -> KernelHyperparameters:
    return KernelHyperparameters(
        sigma_loc_sq=0.1, ell_loc=2.0,
        sigma_qp_sq=1.0, ell_qp=58.0, ell_per=1.0, period=52.0,
        sigma_lin_sq=0.02, ell_rain=50.0, ell_temp=30.0, ell_hum=70.0,
        sigma_noise_sq=0.05)


@dataclass(frozen=True)
class SynthSpec:
    weeks: int = 209
    hyperparameters: KernelHyperparameters = field(default_factory=_default_hyperparameters)
    covariates: tuple = field(default_factory=_default_processes)
    seed: int = 0
    log_offset: float = 2.5  # anchors expm1 output in a plausible incidence range

    def __post_init__(self):
        if self.weeks < 60:
            raise ValueError("need at least 60 weeks")
        if len(self.covariates) != 3:
            raise ValueError("exactly 3 covariate processes required")


@dataclass(frozen=True)
class PriorDraw:
    """One synthetic city: the incidence-like series plus every
    intermediate layer, for tests that need the ground truth."""

    dir_series: WeeklySeries
    raw_covariates: np.ndarray  # (weeks, 3) on natural climate scales
    standardized_covariates: np.ndarray  # (weeks, 3) as fed to the kernel
    latent: np.ndarray  # noise-free draw, log scale, zero mean
    log_observations: np.ndarray  # log_offset + latent + observation noise


def draw_from_prior(spec: SynthSpec, city_id: str = "synth") -> PriorDraw:
    """Sample one city from the generating process.

    Fixed seed gives bit-identical output.  The draw order is: covariate
    noise (column by column), latent standard normals, observation noise.
    """
    rng = np.random.default_rng(spec.seed)
    weeks = np.arange(1, spec.weeks + 1)
    raw = np.column_stack([p.sample(weeks, rng) for p in spec.covariates])

    std = raw.std(axis=0)
    std = np.where(std == 0, 1.0, std)
    standardized = (raw - raw.mean(axis=0)) / std

    gram = gram_from_arrays(weeks, standardized, spec.hyperparameters,
                            include_noise=False)
    chol, _ = _chol_with_jitter(gram)
    latent = chol @ rng.standard_normal(spec.weeks)
    noise_sd = np.sqrt(spec.hyperparameters.sigma_noise_sq)
    log_obs = spec.log_offset + latent + rng.normal(0.0, 1.0, spec.weeks) * noise_sd

    dir_values = np.maximum(0.0, np.expm1(log_obs))
    return PriorDraw(
        dir_series=WeeklySeries(city_id, 1, dir_values),
        raw_covariates=raw,
        standardized_covariates=standardized,
        latent=latent,
        log_observations=log_obs,
    )


def low_incidence_spec(seed: int = 0) -> SynthSpec:
    """Quiet city: the DIR stays below the 25/week medium band."""
    return SynthSpec(
        hyperparameters=KernelHyperparameters(
            sigma_loc_sq=0.05, ell_loc=2.0,
            sigma_qp_sq=0.15, ell_qp=58.0, ell_per=1.0, period=52.0,
            sigma_lin_sq=0.01, ell_rain=50.0, ell_temp=30.0, ell_hum=70.0,
            sigma_noise_sq=0.02),
        seed=seed,
        log_offset=0.5)


def strongly_periodic_spec(seed: int = 0) -> SynthSpec:
    """Seasonal city dominated by the quasi-periodic component; epidemic
    waves cross both incidence bands."""
    return SynthSpec(
        hyperparameters=KernelHyperparameters(
            sigma_loc_sq=0.05, ell_loc=2.0,
            sigma_qp_sq=2.0, ell_qp=80.0, ell_per=0.8, period=52.0,
            sigma_lin_sq=0.01, ell_rain=50.0, ell_temp=30.0, ell_hum=70.0,
            sigma_noise_sq=0.02),
        seed=seed,
        log_offset=2.5)


def make_multi_city_fixture(out_dir: str, n_cities: int, variations=None,
                            seed: int = 0) -> Dataset:
    """Write a loadable CSV bundle of synthetic cities; returns the
    Dataset it wrote, which load_dataset reads back unchanged.

    City i draws from variations[i mod len] reseeded with seed + i, so
    cities are independent but the whole fixture is reproducible.  Each
    city gets its own co-located station and a round-robin region.  The
    generating specs are saved next to the CSVs for provenance.
    """
    if n_cities < 1:
        raise ValueError("n_cities must be >= 1")
    if variations is None:
        variations = (SynthSpec(),)

    cities, cases, stations, specs = {}, {}, {}, {}
    for i in range(n_cities):
        cid = f"C{i + 1:03d}"
        sid = f"S{i + 1:03d}"
        spec = dataclasses.replace(variations[i % len(variations)], seed=seed + i)
        specs[cid] = spec
        draw = draw_from_prior(spec, city_id=cid)

        population = 150000 + 50000 * i
        counts = np.round(draw.dir_series.values * population / 1e5)
        cases[cid] = WeeklySeries(cid, 1, counts)

        lat, lon = -5.0 - 1.5 * i, -35.0 - 1.0 * i
        cities[cid] = CityRecord(cid, f"Synth City {i + 1}", REGIONS[i % len(REGIONS)],
                                 lat, lon, population)
        stations[sid] = StationRecord(sid, lat + 0.05, lon, 1, draw.raw_covariates)

    ordered = [stations[sid] for sid in sorted(stations)]
    assignments = {cid: nearest_station(cities[cid], ordered) for cid in sorted(cities)}
    ds = Dataset(cities=cities, cases=cases, stations=stations, assignments=assignments)

    save_dataset(ds, out_dir)
    with open(os.path.join(out_dir, "synth_spec.json"), "w", encoding="utf-8") as fh:
        json.dump({cid: dataclasses.asdict(s) for cid, s in specs.items()}, fh,
                  indent=2, sort_keys=True)

    return ds
