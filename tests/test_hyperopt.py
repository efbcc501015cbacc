"""Multi-restart likelihood ascent: initialization, determinism, bound
handling, and recovery of known generating parameters."""

import types

import numpy as np
import pytest
from numpy.testing import assert_allclose

from denguegp import hyperopt
from denguegp.evaluation import build_design
from denguegp.gp import ModelFitError, lml_value_and_gradient, log_marginal_likelihood
from denguegp.hyperopt import (_FAILURE_VALUE, LOG_BOUNDS, MIN_TRAINING_POINTS, N_PARAMS,
                               OptimizerConfig, default_initialization, optimize)
from denguegp.kernels import PARAM_NAMES, KernelHyperparameters
from denguegp.synth import SynthSpec, low_incidence_spec, strongly_periodic_spec

from test_evaluation import synthetic_city


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

    @pytest.mark.filterwarnings("error")
    def test_every_restart_failing_raises(self):
        # targets near 1e150 put -lml near 1e298 at every evaluation, past
        # _FAILURE_VALUE / 2, so each restart is recorded as failed
        rng = np.random.default_rng(41)
        weeks, X, targets = white_noise_instance(rng, n=40)
        with pytest.raises(ModelFitError, match="all optimizer restarts failed"):
            optimize(weeks, X, targets * 1e150, OptimizerConfig(restarts=3))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_target_variance_raises_before_any_evaluation(self, monkeypatch):
        # squaring deviations near 1e154 overflows np.var to inf
        rng = np.random.default_rng(41)
        weeks, X, targets = white_noise_instance(rng, n=40)
        calls = []
        monkeypatch.setattr(hyperopt, "lml_value_and_gradient",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ModelFitError, match="variance of the targets overflows"):
            optimize(weeks, X, targets * 1e154, OptimizerConfig(restarts=3))
        assert calls == []

    def test_evaluations_count_every_likelihood_call(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return lml_value_and_gradient(*args, **kwargs)

        monkeypatch.setattr(hyperopt, "lml_value_and_gradient", counted)
        rng = np.random.default_rng(43)
        weeks, X, targets = white_noise_instance(rng, n=40)
        _, _, diag = optimize(weeks, X, targets, OptimizerConfig(restarts=3, seed=2))
        assert sum(r["evaluations"] for r in diag["restarts"]) == len(calls)
        assert all(r["evaluations"] > r["iterations"] for r in diag["restarts"])

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


LBFGSB = hyperopt._lbfgsb

#: (truth, view end week) of the designs whose every restart is checked
DESIGNS = [(SynthSpec(seed=600), 101),
           (strongly_periodic_spec(seed=601), 130),
           (low_incidence_spec(seed=7), 150)]


def assert_matches_minimize(objective, x0, max_iterations):
    """Run hyperopt._lbfgsb and scipy's minimize on one objective and
    require the same evaluated points, result, iterations and message;
    returns the loop's result."""
    from scipy.optimize import minimize

    def logged(evaluations):
        def f(x):
            evaluations.append(x.copy())
            return objective(x)
        return f

    ours, theirs = [], []
    x, f, initial, iterations, evaluations, message = LBFGSB(logged(ours), x0, max_iterations)
    result = minimize(logged(theirs), x0, jac=True, method="L-BFGS-B", bounds=LOG_BOUNDS,
                      options={"maxiter": max_iterations, "maxcor": hyperopt._MEMORY,
                               "ftol": hyperopt._FACTR * np.finfo(float).eps,
                               "gtol": hyperopt._GRADIENT_TOLERANCE})
    assert len(ours) == len(theirs) == evaluations
    assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))
    assert np.array_equal(x, result.x)
    assert f == result.fun
    assert initial == objective(ours[0])[0]
    assert (iterations, message) == (result.nit, result.message)
    return x, f, initial, iterations, evaluations, message


class TestLbfgsbLoop:
    """The reverse-communication loop in hyperopt._lbfgsb against
    scipy.optimize.minimize(method="L-BFGS-B"), which it replaces."""

    @staticmethod
    def compare_inside_optimize(monkeypatch, view, config):
        runs = []

        def compared(objective, x0, max_iterations):
            runs.append(assert_matches_minimize(objective, x0, max_iterations))
            return runs[-1]

        monkeypatch.setattr(hyperopt, "_lbfgsb", compared)
        optimize(*build_design([view])[0][:3], config)
        return runs

    @pytest.mark.parametrize("spec, end_week", DESIGNS)
    def test_optimize_objective_every_restart(self, monkeypatch, spec, end_week):
        view = synthetic_city(spec).training_view(end_week)
        runs = self.compare_inside_optimize(monkeypatch, view, OptimizerConfig(restarts=3, seed=7))
        assert len(runs) == 3

    @pytest.mark.parametrize("spec, end_week", DESIGNS)
    def test_shipped_tolerances_reach_the_tight_optimum(self, monkeypatch, spec, end_week):
        # the shipped memory and tolerances against minimize from the same
        # starts at L-BFGS-B's old tight settings, run to convergence
        from scipy.optimize import minimize

        climbs = []

        def recorded(objective, x0, max_iterations):
            climbs.append((objective, x0.copy()))
            return LBFGSB(objective, x0, max_iterations)

        monkeypatch.setattr(hyperopt, "_lbfgsb", recorded)
        view = synthetic_city(spec).training_view(end_week)
        _, lml, _ = optimize(*build_design([view])[0][:3], OptimizerConfig(restarts=3, seed=7))
        tight = min(minimize(objective, x0, jac=True, method="L-BFGS-B", bounds=LOG_BOUNDS,
                             options={"maxcor": 10, "ftol": 1e-12, "gtol": 1e-5,
                                      "maxiter": 1000}).fun
                    for objective, x0 in climbs)
        assert len(climbs) == 3
        assert lml >= -tight - 1e-2

    def test_iteration_limit(self, monkeypatch):
        view = synthetic_city(SynthSpec(seed=600)).training_view(101)
        runs = self.compare_inside_optimize(
            monkeypatch, view, OptimizerConfig(restarts=1, max_iterations=2))
        assert [(run[3], run[5]) for run in runs] == [
            (2, "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT")]

    def test_start_on_a_bounds_corner(self, monkeypatch):
        corner = np.array([bounds[i % 2] for i, bounds in enumerate(LOG_BOUNDS)])
        monkeypatch.setattr(hyperopt, "default_initialization",
                            lambda *args: KernelHyperparameters.from_log_vector(corner))
        view = synthetic_city(SynthSpec(seed=600)).training_view(101)
        runs = self.compare_inside_optimize(monkeypatch, view, OptimizerConfig(restarts=1))
        assert len(runs) == 1

    def test_failure_value_with_zero_gradient(self):
        x0 = default_initialization(1.0, 0).to_log_vector()
        _, f, _, iterations, evaluations, message = assert_matches_minimize(
            lambda x: (_FAILURE_VALUE, np.zeros(N_PARAMS)), x0, 200)
        assert (f, iterations, evaluations) == (_FAILURE_VALUE, 0, 1)
        assert message == "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"

    def test_wrong_gradient_ends_abnormally(self):
        x0 = default_initialization(1.0, 0).to_log_vector()
        message = assert_matches_minimize(lambda x: (float(x @ x), -2 * x), x0, 200)[-1]
        assert message == "ABNORMAL: "

    def test_unknown_setulb_signature_raises(self, monkeypatch):
        def setulb(m, x, l, u, nbd, f, g, factr, pgtol, wa, iwa, task, iprint, csave, lsave,
                   isave, dsave, maxls):
            """x,f,g,... = setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,iprint,csave,...)"""

        monkeypatch.setattr(hyperopt, "_scipy_module",
                            lambda package, name: types.SimpleNamespace(setulb=setulb))
        with pytest.raises(ImportError, match=r"scipy \d+\.\d+.*L-BFGS-B"):
            hyperopt._setulb.__wrapped__()
