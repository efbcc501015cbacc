"""Hyperparameter selection by multi-restart likelihood ascent.

The marginal likelihood surface of a quasi-periodic kernel is multimodal,
so a single local climb is unreliable.  Each restart runs a bounded
quasi-Newton ascent in log-hyperparameter space from a jittered copy of
one deterministic starting point; the restart ending highest wins, with
ties going to the lowest restart index.  The ascent is scipy's compiled
L-BFGS-B step (Byrd, Lu, Nocedal & Zhu 1995), driven by _lbfgsb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .gp import ModelFitError, _scipy_module, lml_value_and_gradient, validate_design
from .kernels import PARAM_NAMES, KernelHyperparameters, lag_table

N_PARAMS = len(PARAM_NAMES)

MIN_TRAINING_POINTS = 30

_FAILURE_VALUE = 1e25

#: One row per hyperparameter, in PARAM_NAMES order: its natural-scale
#: (low, high) box, and restart 0's start as a function of the variance
#: v of the targets.
PARAMETERS = {
    "sigma_loc_sq": (1e-6, 1e3, lambda v: v / 3),
    "ell_loc": (0.5, 300.0, lambda v: 2.0),
    "sigma_qp_sq": (1e-6, 1e3, lambda v: v / 3),
    "ell_qp": (0.5, 300.0, lambda v: 58.0),
    "ell_per": (0.5, 300.0, lambda v: 1.0),
    "period": (20.0, 110.0, lambda v: 52.0),
    "ell_rain": (0.5, 300.0, lambda v: 30.0),
    "ell_temp": (0.5, 300.0, lambda v: 30.0),
    "ell_hum": (0.5, 300.0, lambda v: 30.0),
    "sigma_noise_sq": (1e-6, 1e3, lambda v: v / 10),
}

#: Per-parameter (low, high) box in log space, ordered like PARAM_NAMES.
LOG_BOUNDS = tuple((math.log(PARAMETERS[n][0]), math.log(PARAMETERS[n][1]))
                   for n in PARAM_NAMES)

# L-BFGS-B's settings.  The memory of 20 correction pairs exceeds the 10
# parameters, so the quasi-Newton model keeps curvature from more steps
# than there are directions.  A climb stops when an iteration lowers the
# objective by less than _FACTR * eps (about 2.2e-8) relative, or when the
# projected gradient falls below _GRADIENT_TOLERANCE.  On TestLbfgsbLoop's
# designs this ends within 1e-2 nats of climbs at memory 10, ftol 1e-12
# and gtol 1e-5, with fewer than half their evaluations.
_MEMORY = 20
_FACTR = 1e8
_GRADIENT_TOLERANCE = 1e-3

# L-BFGS-B's state codes (task[0]) and the stop reasons (task[1]) that
# this problem can reach, worded as scipy words them.
_STATUS = "START NEW_X RESTART FG CONVERGENCE STOP WARNING ERROR ABNORMAL".split()
_TASK_MESSAGES = {0: "", 401: "NORM OF PROJECTED GRADIENT <= PGTOL",
                  402: "RELATIVE REDUCTION OF F <= FACTR*EPSMCH",
                  504: "TOTAL NO. OF ITERATIONS REACHED LIMIT"}
_SETULB_SIGNATURE = ("setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,"
                     "maxls,ln_task)")


@cache
def _setulb():
    """scipy's compiled L-BFGS-B step, checked against the call in _lbfgsb."""
    setulb = _scipy_module("optimize", "_lbfgsb").setulb
    if (setulb.__doc__ or "").split("\n")[0] != _SETULB_SIGNATURE:
        from importlib.metadata import version
        raise ImportError(f"scipy {version('scipy')}'s L-BFGS-B is not {_SETULB_SIGNATURE}")
    return setulb


def _lbfgsb(objective, x0, max_iterations: int) -> tuple:
    """Minimize objective(x) -> (f, gradient) inside LOG_BOUNDS from x0.

    Returns (x, f, f(x0), iterations, evaluations, message), as scipy's
    minimize(objective, x0, jac=True, method="L-BFGS-B", bounds=LOG_BOUNDS,
    options={"maxiter": max_iterations, "maxcor": _MEMORY, "ftol": _FACTR *
    eps, "gtol": _GRADIENT_TOLERANCE}) does, where evaluations counts the
    calls of objective: this loop mirrors its _minimize_lbfgsb, with the
    same setulb calls, an evaluation of x0 before the first, and the last
    evaluation reused when setulb asks for its point again.  scipy's cap
    of 15000 evaluations is left out; 200 iterations come nowhere near it.
    """
    setulb, m, n = _setulb(), _MEMORY, x0.size
    lower, upper = np.array(LOG_BOUNDS).T.copy()
    x = np.clip(x0, lower, upper)
    point = x.copy()
    evaluated = initial = objective(point)
    evaluations = 1
    f, g = np.array(0.0), np.zeros(n)
    nbd, wa = np.full(n, 2, np.int32), np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa, task, ln_task = np.zeros(3 * n, np.int32), np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    iterations = 0
    while True:
        setulb(m, x, lower, upper, nbd, f, g, _FACTR, _GRADIENT_TOLERANCE,
               wa, iwa, task, lsave, isave, dsave, 20, ln_task)
        status = _STATUS[task[0]]
        if status == "FG":
            if not np.array_equal(x, point):
                point = x.copy()
                evaluated = objective(point)
                evaluations += 1
            f, g = evaluated
        elif status == "NEW_X":
            iterations += 1
            if iterations >= max_iterations:
                task[:] = _STATUS.index("STOP"), 504
        else:
            break
    return x, f, initial[0], iterations, evaluations, f"{status}: {_TASK_MESSAGES[task[1]]}"


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

    Restart 0 is fully deterministic: each parameter starts by its
    PARAMETERS row's rule, from the empirical target variance floored at
    1e-6, clipped into the bounds.  Later restarts jitter every
    log-parameter uniformly by +-0.7 around that point, clipped again.
    """
    v = max(float(target_variance), 1e-6)
    base = KernelHyperparameters(**{n: start(v) for n, (_, _, start) in PARAMETERS.items()})
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

    with np.errstate(over="ignore", invalid="ignore"):
        target_variance = float(np.var(targets))
    if not math.isfinite(target_variance):
        raise ModelFitError("the variance of the targets overflows the float range")
    rng = np.random.default_rng(config.seed)
    records = []
    best = None  # (final_lml, restart_index, log_theta)
    for i in range(config.restarts):
        start = default_initialization(target_variance, i, rng)
        x, final, initial, iterations, evaluations, message = _lbfgsb(
            objective, start.to_log_vector(), config.max_iterations)
        failed = not np.isfinite(final) or final >= _FAILURE_VALUE / 2
        records.append({
            "restart": i,
            "initial_lml": float(-initial),
            "final_lml": float("nan") if failed else -final,
            "iterations": iterations,
            "evaluations": evaluations,
            "termination": message,
            "failed": failed,
        })
        if not failed and (best is None or -final > best[0]):
            best = (-final, i, x)

    if best is None:
        raise ModelFitError("all optimizer restarts failed")

    lml, selected, log_theta = best
    for r in records:
        r["selected"] = r["restart"] == selected
    diagnostics = {"selected_restart": selected, "restarts": records}
    return KernelHyperparameters.from_log_vector(log_theta), lml, diagnostics
