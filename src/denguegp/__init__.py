"""Gaussian-process forecasting of weekly disease incidence.

A composite kernel (local Matern envelope, quasi-periodic seasonal term,
linear climate-covariate term) drives exact GP regression on the
log-transformed incidence rate.  The package bundles the preprocessing
chain, marginal-likelihood hyperparameter optimization, rolling-origin
evaluation against linear and autoregressive baselines, and synthetic
data generation for end-to-end verification.

Import from the submodules (``denguegp.gp``, ``denguegp.evaluation``,
...); the package itself loads none of them, so ``python -m
denguegp.cli`` imports only what the command needs.
"""

__version__ = "0.1.0"
