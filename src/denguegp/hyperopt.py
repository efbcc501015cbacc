"""Hyperparameter selection by multi-restart likelihood ascent.

The marginal likelihood surface of a quasi-periodic kernel is multimodal,
so a single local climb is unreliable.  Each restart runs a bounded
quasi-Newton ascent in log-hyperparameter space from a jittered copy of
one deterministic starting point; the restart ending highest wins, with
ties going to the lowest restart index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gp import ModelFitError, lml_value_and_gradient, validate_design
from .kernels import PARAM_NAMES, KernelHyperparameters, lag_table

N_PARAMS = len(PARAM_NAMES)

MIN_TRAINING_POINTS = 30

_FAILURE_VALUE = 1e25

_PERIOD_RANGE = (20.0, 110.0)
_LENGTHSCALE_RANGE = (0.5, 300.0)
_VARIANCE_RANGE = (1e-6, 1e3)


def _log_range(name: str) -> tuple:
    if name == "period":
        lo, hi = _PERIOD_RANGE
    elif name.endswith("_sq"):
        lo, hi = _VARIANCE_RANGE
    else:
        lo, hi = _LENGTHSCALE_RANGE
    return (math.log(lo), math.log(hi))


#: Per-parameter (low, high) box in log space, ordered like PARAM_NAMES.
LOG_BOUNDS = tuple(_log_range(name) for name in PARAM_NAMES)

_GRADIENT_TOLERANCE = 1e-5


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 5
    max_iterations: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def default_initialization(target_variance: float, restart_index: int,
                           rng: np.random.Generator | None = None) -> KernelHyperparameters:
    """Starting point for one restart.

    Restart 0 is fully deterministic: a 52-week period, short local and
    medium quasi-periodic lengthscales, the empirical target variance
    split evenly across the three signal components, a tenth of it as
    noise.  Later restarts jitter every log-parameter uniformly by +-0.7
    around that point, clipped into the bounds.
    """
    v = max(float(target_variance), 1e-6)
    base = KernelHyperparameters(
        sigma_loc_sq=v / 3,
        ell_loc=2.0,
        sigma_qp_sq=v / 3,
        ell_qp=58.0,
        ell_per=1.0,
        period=52.0,
        sigma_lin_sq=v / 3,
        ell_rain=30.0,
        ell_temp=30.0,
        ell_hum=30.0,
        sigma_noise_sq=v / 10,
    )
    lo, hi = np.array(LOG_BOUNDS).T
    log_theta = np.clip(base.to_log_vector(), lo, hi)
    if restart_index == 0:
        return KernelHyperparameters.from_log_vector(log_theta)
    if rng is None:
        raise ValueError("restarts >= 1 need an rng for the jitter")
    jittered = log_theta + rng.uniform(-0.7, 0.7, size=N_PARAMS)
    return KernelHyperparameters.from_log_vector(np.clip(jittered, lo, hi))


def optimize(weeks, X, targets, config: OptimizerConfig) -> tuple:
    """Maximize the log marginal likelihood; returns (h, lml, diagnostics).

    The design is n weeks with their (n, 3) covariate rows and n
    targets.  Each restart minimizes the negative likelihood with
    analytic gradients inside the LOG_BOUNDS box; every evaluation
    shares one table of week distances, built here.  A restart whose
    every evaluation fails the Cholesky factorization is recorded as
    failed; if all restarts fail, or the variance of the targets
    overflows, the data is pathological and ModelFitError is raised.
    Identical (weeks, X, targets, config) give bit-identical results.
    """
    # imported here so commands that never optimize do not pay for it
    from scipy.optimize import minimize

    weeks, X, targets = validate_design(weeks, X, targets)
    if targets.size < MIN_TRAINING_POINTS:
        raise ValueError(f"need at least {MIN_TRAINING_POINTS} training points")
    lag = lag_table(weeks)

    def objective(log_theta):
        try:
            h = KernelHyperparameters.from_log_vector(log_theta)
            value, grad = lml_value_and_gradient(weeks, X, targets, h, lag=lag)
        except ModelFitError:
            return _FAILURE_VALUE, np.zeros(N_PARAMS)
        if not (math.isfinite(value) and np.isfinite(grad).all()):
            return _FAILURE_VALUE, np.zeros(N_PARAMS)
        return -value, -grad

    def recorded(log_theta, first_value):
        f, g = objective(log_theta)
        if not first_value:  # L-BFGS-B evaluates the start point first
            first_value.append(f)
        return f, g

    with np.errstate(over="ignore", invalid="ignore"):
        target_variance = float(np.var(targets))
    if not math.isfinite(target_variance):
        raise ModelFitError("the variance of the targets overflows the float range")
    rng = np.random.default_rng(config.seed)
    records = []
    best = None  # (final_lml, restart_index, log_theta)
    for i in range(config.restarts):
        start = default_initialization(target_variance, i, rng)
        x0 = start.to_log_vector()
        first_value = []
        result = minimize(
            recorded, x0, args=(first_value,), jac=True, method="L-BFGS-B", bounds=LOG_BOUNDS,
            options={"maxiter": config.max_iterations,
                     "gtol": _GRADIENT_TOLERANCE,
                     "ftol": 1e-12})
        final = float(result.fun)
        failed = not np.isfinite(final) or final >= _FAILURE_VALUE / 2
        records.append({
            "restart": i,
            "initial_lml": float(-first_value[0]),
            "final_lml": float("nan") if failed else -final,
            "iterations": int(result.nit),
            "termination": str(result.message),
            "failed": failed,
        })
        if not failed and (best is None or -final > best[0]):
            best = (-final, i, np.array(result.x, dtype=float))

    if best is None:
        raise ModelFitError("all optimizer restarts failed")

    lml, selected, log_theta = best
    for r in records:
        r["selected"] = r["restart"] == selected
    diagnostics = {"selected_restart": selected, "restarts": records}
    return KernelHyperparameters.from_log_vector(log_theta), lml, diagnostics
