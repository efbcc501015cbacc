"""Reference models the main forecaster is judged against.

Two deliberately simple comparators: an ordinary least squares fit on the
lagged standardized climate covariates, and an AR(1) refit each week on a
short sliding window with the forecast at the protocol horizon obtained
by iterating the one-step map.  Both take plain arrays built from the same training view
and log-scale response as the main model, and fit on all they are given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

AR_WINDOW_WEEKS = 12


@dataclass(frozen=True)
class LinearModelState:
    intercept: float
    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=float))
        if not (np.isfinite(self.intercept) and np.all(np.isfinite(self.coefficients))):
            raise ValueError("coefficients must be finite")


@dataclass(frozen=True)
class ARModelState:
    phi: float
    intercept: float

    def __post_init__(self):
        if not (np.isfinite(self.phi) and np.isfinite(self.intercept)):
            raise ValueError("parameters must be finite")


def lm_fit(covariates: np.ndarray, targets: np.ndarray) -> LinearModelState:
    """OLS with intercept on every row of the design."""
    X = np.asarray(covariates, dtype=float)
    y = np.asarray(targets, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise ValueError("covariates must be (n, d) with matching targets")
    n = X.shape[0]
    if n < 5:
        raise ValueError("need at least 5 training rows")
    design = np.column_stack([np.ones(n), X])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise ValueError("rank-deficient design (collinear covariates)")
    return LinearModelState(intercept=float(coef[0]), coefficients=coef[1:])


def lm_predict(state: LinearModelState, covariates: np.ndarray) -> float:
    x = np.asarray(covariates, dtype=float)
    if x.shape != state.coefficients.shape:
        raise ValueError("covariate vector has wrong length")
    return float(state.intercept + state.coefficients @ x)


def ar_fit(log_values: np.ndarray) -> ARModelState:
    """First-order autoregression on the last 12 values of a weekly series.

    Regresses y_w on y_{w-1} for consecutive weeks inside that window by
    OLS with intercept.  A series shorter than the window is used whole;
    fewer than 3 pairs is an error.
    """
    values = np.asarray(log_values, dtype=float)[-AR_WINDOW_WEEKS:]
    prev, curr = values[:-1], values[1:]
    if curr.size < 3:
        raise ValueError("need at least 3 consecutive pairs in the window")
    if np.ptp(prev) == 0:
        raise ValueError("constant window, autoregression undefined")
    design = np.column_stack([np.ones(prev.size), prev])
    coef, *_ = np.linalg.lstsq(design, curr, rcond=None)
    return ARModelState(phi=float(coef[1]), intercept=float(coef[0]))


def ar_forecast(state: ARModelState, last_observed: float, steps: int) -> float:
    """Iterate y <- intercept + phi * y steps times from last_observed."""
    y = float(last_observed)
    for _ in range(steps):
        y = state.intercept + state.phi * y
    return y
