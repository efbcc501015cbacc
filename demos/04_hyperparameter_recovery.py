"""Sample a city from known hyperparameters and try to get them back.

This is the self-consistency check behind the whole model: draw latent
log incidence from the GP prior at a known setting, hand the optimizer
only the observations, and compare what it recovers.  Variance splits
between overlapping components are only weakly identified, but the
period and the overall likelihood should come back reliably.

Run with:  python3 demos/04_hyperparameter_recovery.py   (takes ~10 seconds)
"""

import time

import numpy as np

from denguegp.gp import log_marginal_likelihood
from denguegp.hyperopt import OptimizerConfig, optimize
from denguegp.kernels import PARAM_NAMES
from denguegp.synth import draw_from_prior, strongly_periodic_spec


def main():
    spec = strongly_periodic_spec(seed=5)
    draw = draw_from_prior(spec)
    truth = spec.hyperparameters
    print(f"Drew {spec.weeks} weeks from the prior at period "
          f"{truth.period:g}, noise variance {truth.sigma_noise_sq:g}.")

    targets = draw.log_observations - draw.log_observations.mean()
    weeks = np.arange(1, spec.weeks + 1)
    X = draw.standardized_covariates

    config = OptimizerConfig(restarts=3, seed=42)
    started = time.perf_counter()
    recovered, lml, diagnostics = optimize(weeks, X, targets, config)
    elapsed = time.perf_counter() - started
    print(f"Optimized in {elapsed:.1f}s over {config.restarts} restarts; "
          f"kept restart {diagnostics['selected_restart']}.")
    print()

    print(f"  {'parameter':>15s}  {'generating':>10s}  {'recovered':>10s}")
    for name in PARAM_NAMES:
        print(f"  {name:>15s}  {getattr(truth, name):>10.3f}  "
              f"{getattr(recovered, name):>10.3f}")
    print()

    lml_truth = log_marginal_likelihood(weeks, X, targets, truth)
    print(f"  log marginal likelihood at generating values : {lml_truth:9.2f}")
    print(f"  log marginal likelihood at recovered values  : {lml:9.2f}")
    print(f"  period error: {abs(recovered.period - truth.period):.2f} weeks")
    print()
    print("Expect the recovered likelihood at or above the generating one")
    print("(the optimizer sees this particular draw, the generating values")
    print("only the prior) and the period within a week or two of 52.  The")
    print("generating process gave the covariates almost no weight, so the")
    print("optimizer drives sigma_lin_sq to its lower bound; with the")
    print("linear part switched off the ARD lengthscales are unidentified")
    print("and land wherever the search left them.  Both are the right")
    print("reading of this data, not a failure to converge.")
    print()

    rng = np.random.default_rng(7)
    shuffled = targets[rng.permutation(targets.size)]
    _, lml_shuffled, _ = optimize(weeks, X, shuffled, OptimizerConfig(restarts=1, seed=0))
    print(f"Control: optimizing the same values in shuffled week order gives")
    print(f"lml {lml_shuffled:.2f}, far below {lml:.2f}, because shuffling")
    print("destroys the temporal structure the kernel is built to explain.")


if __name__ == "__main__":
    main()
