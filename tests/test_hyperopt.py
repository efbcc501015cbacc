"""Multi-restart likelihood ascent: initialization, determinism, bound
handling, and recovery of known generating parameters."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from denguegp.gp import log_marginal_likelihood
from denguegp.hyperopt import (LOG_BOUNDS, MIN_TRAINING_POINTS, OptimizerConfig,
                               default_initialization, optimize)
from denguegp.kernels import PARAM_NAMES, KernelHyperparameters


def white_noise_instance(rng, n=60, noise_variance=0.5):
    """(weeks, X, targets) with no structure to find."""
    X = np.array([rng.normal(size=3) for _ in range(n)])
    targets = rng.normal(scale=np.sqrt(noise_variance), size=n)
    return np.arange(1, n + 1), X, targets


class TestDefaultInitialization:
    def test_restart_zero_is_deterministic(self):
        a = default_initialization(1.2, 0)
        b = default_initialization(1.2, 0)
        assert a == b
        # values pass through log space once, so compare to an ulp
        assert_allclose(a.period, 52.0, rtol=1e-14)
        assert_allclose(a.ell_loc, 2.0, rtol=1e-14)
        assert_allclose(a.ell_qp, 58.0, rtol=1e-14)
        assert_allclose(a.ell_per, 1.0, rtol=1e-14)
        assert_allclose(a.sigma_loc_sq, 0.4, rtol=1e-14)
        assert_allclose(a.sigma_qp_sq, 0.4, rtol=1e-14)
        assert_allclose(a.sigma_lin_sq, 0.4, rtol=1e-14)
        assert_allclose(a.sigma_noise_sq, 0.12, rtol=1e-14)
        assert_allclose(a.ard_lengthscales, (30.0, 30.0, 30.0), rtol=1e-14)

    def test_tiny_variance_is_floored(self):
        h = default_initialization(0.0, 0)
        assert h.sigma_loc_sq > 0
        assert h.sigma_noise_sq > 0

    def test_jitter_is_seeded(self):
        a = default_initialization(1.0, 1, rng=np.random.default_rng(5))
        b = default_initialization(1.0, 1, rng=np.random.default_rng(5))
        c = default_initialization(1.0, 1, rng=np.random.default_rng(6))
        assert a == b
        assert a != c

    def test_jitter_stays_within_bounds(self):
        rng = np.random.default_rng(7)
        for i in range(1, 40):
            h = default_initialization(100.0, i, rng=rng)
            log_theta = h.to_log_vector()
            for j, (lo, hi) in enumerate(LOG_BOUNDS):
                assert lo - 1e-12 <= log_theta[j] <= hi + 1e-12

    def test_jittered_restart_requires_rng(self):
        with pytest.raises(ValueError):
            default_initialization(1.0, 1)


class TestOptimizerConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert cfg.restarts == 5
        assert cfg.max_iterations == 200
        assert len(LOG_BOUNDS) == len(PARAM_NAMES)
        assert all(lo < hi for lo, hi in LOG_BOUNDS)

    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=0)
        with pytest.raises(ValueError):
            OptimizerConfig(max_iterations=0)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            OptimizerConfig(seed=-1)
        assert OptimizerConfig(seed=0).seed == 0


class TestOptimize:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        weeks, X, targets = white_noise_instance(rng, n=40)
        cfg = OptimizerConfig(restarts=2, max_iterations=60, seed=3)
        h1, lml1, diag1 = optimize(weeks, X, targets, cfg)
        h2, lml2, diag2 = optimize(weeks, X, targets, cfg)
        assert h1 == h2
        assert lml1 == lml2
        assert diag1 == diag2

    def test_final_beats_every_start(self):
        rng = np.random.default_rng(13)
        weeks, X, targets = white_noise_instance(rng, n=40)
        cfg = OptimizerConfig(restarts=3, max_iterations=60, seed=1)
        _, lml, diag = optimize(weeks, X, targets, cfg)
        for record in diag["restarts"]:
            assert lml >= record["initial_lml"] - 1e-9

    def test_initial_lml_is_the_start_point_likelihood(self):
        # taken from the optimizer's first evaluation, not a separate one
        rng = np.random.default_rng(19)
        weeks, X, targets = white_noise_instance(rng, n=40)
        cfg = OptimizerConfig(restarts=3, max_iterations=30, seed=4)
        _, _, diag = optimize(weeks, X, targets, cfg)
        starts = np.random.default_rng(cfg.seed)
        for record in diag["restarts"]:
            start = default_initialization(np.var(targets), record["restart"], starts)
            h = KernelHyperparameters.from_log_vector(start.to_log_vector())
            assert record["initial_lml"] == pytest.approx(
                log_marginal_likelihood(weeks, X, targets, h), rel=1e-12)

    def test_selected_restart_has_best_final(self):
        rng = np.random.default_rng(17)
        weeks, X, targets = white_noise_instance(rng, n=40)
        cfg = OptimizerConfig(restarts=4, max_iterations=60, seed=2)
        _, lml, diag = optimize(weeks, X, targets, cfg)
        finals = [r["final_lml"] for r in diag["restarts"] if not r["failed"]]
        assert_allclose(lml, np.nanmax(finals), rtol=1e-12)
        selected = [r for r in diag["restarts"] if r["selected"]]
        assert len(selected) == 1
        assert selected[0]["restart"] == diag["selected_restart"]
        assert_allclose(selected[0]["final_lml"], lml, rtol=1e-12)

    def test_result_respects_bounds(self):
        rng = np.random.default_rng(19)
        weeks, X, targets = white_noise_instance(rng, n=40)
        cfg = OptimizerConfig(restarts=2, max_iterations=80, seed=5)
        h, _, _ = optimize(weeks, X, targets, cfg)
        log_theta = h.to_log_vector()
        for j, (lo, hi) in enumerate(LOG_BOUNDS):
            assert lo - 1e-9 <= log_theta[j] <= hi + 1e-9

    def test_returned_lml_matches_returned_hyperparameters(self):
        rng = np.random.default_rng(23)
        weeks, X, targets = white_noise_instance(rng, n=40)
        h, lml, _ = optimize(weeks, X, targets,
                             OptimizerConfig(restarts=2, max_iterations=60, seed=7))
        assert_allclose(log_marginal_likelihood(weeks, X, targets, h), lml, rtol=1e-9)

    def test_white_noise_lands_on_noise_variance(self):
        # data with no structure: the noise term should absorb roughly the
        # full sample variance
        rng = np.random.default_rng(29)
        weeks, X, targets = white_noise_instance(rng, n=120, noise_variance=0.5)
        h, _, _ = optimize(weeks, X, targets,
                           OptimizerConfig(restarts=3, max_iterations=150, seed=11))
        sample_variance = float(np.var(targets))
        assert h.sigma_noise_sq == pytest.approx(sample_variance, rel=0.25)

    def test_too_few_points_rejected(self):
        rng = np.random.default_rng(31)
        weeks, X, targets = white_noise_instance(rng, n=MIN_TRAINING_POINTS - 1)
        with pytest.raises(ValueError, match="at least 30"):
            optimize(weeks, X, targets, OptimizerConfig(restarts=1))

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(37)
        weeks, X, _ = white_noise_instance(rng, n=40)
        with pytest.raises(ValueError):
            optimize(weeks, X, np.zeros(39), OptimizerConfig(restarts=1))
