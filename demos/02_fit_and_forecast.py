"""Fit the GP to one synthetic city and forecast four weeks ahead.

The pipeline mirrors what a single backtest origin does: take everything
observable up to the forecast origin, clean additive outliers, move to
the log scale, pick a reporting lag per climate covariate, standardize,
center, optimize the kernel hyperparameters by marginal likelihood, and
finally predict the next four weeks with 95% intervals on the natural
incidence scale.  The training view is the only leakage boundary:
build_design estimates every statistic from the view alone.

Run with:  python3 demos/02_fit_and_forecast.py   (takes a few seconds)
"""

import dataclasses
import time

from denguegp.evaluation import TrainingView, build_design, gp_forecast, query_row
from denguegp.gp import fit
from denguegp.hyperopt import OptimizerConfig, optimize
from denguegp.synth import draw_from_prior, strongly_periodic_spec

TRAIN_END = 150


def main():
    spec = dataclasses.replace(strongly_periodic_spec(seed=1), weeks=160)
    draw = draw_from_prior(spec, city_id="demo")
    print(f"Synthetic city: {spec.weeks} weeks, generating period "
          f"{spec.hyperparameters.period:g}, training on weeks 1..{TRAIN_END}.")
    print()

    view = TrainingView(
        city_id="demo",
        start_week=1,
        dir_values=draw.dir_series.values[:TRAIN_END].copy(),
        covariates=draw.raw_covariates[:TRAIN_END].copy(),
    )
    (weeks, X, y, state), = build_design([view])
    print("Preprocessing summary:")
    print(f"  outlier weeks patched      : {list(state.flagged_weeks) or 'none'}")
    print(f"  selected covariate lags    : rain {state.lags[0]}, "
          f"temp {state.lags[1]}, hum {state.lags[2]} weeks")
    print(f"  log response mean          : {state.response_mean:.4f}")
    print(f"  design rows (weeks {weeks[0]}..{weeks[-1]}): {len(weeks)}")
    print()

    started = time.perf_counter()
    h, lml, diagnostics = optimize(weeks, X, y, OptimizerConfig(restarts=2, seed=0))
    elapsed = time.perf_counter() - started
    print(f"Optimized hyperparameters (restart "
          f"{diagnostics['selected_restart']}, lml {lml:.2f}, {elapsed:.1f}s):")
    for name, value in h.to_dict().items():
        print(f"  {name:>15s} = {value:.4g}")
    print(f"  recovered period {h.period:.2f} vs generating "
          f"{spec.hyperparameters.period:g}")
    print()

    model = fit(weeks, X, y, h)
    print("Four-week-ahead forecasts (DIR per 100k):")
    print(f"  {'week':>5s}  {'actual':>8s}  {'predicted':>9s}  {'95% interval':>18s}")
    for target in range(TRAIN_END + 1, TRAIN_END + 5):
        predicted, _, lower, upper = gp_forecast(model, target,
                                                 query_row(view, state, target), state)
        actual = draw.dir_series.value_at(target)
        interval = f"[{lower:7.1f}, {upper:7.1f}]"
        print(f"  {target:>5d}  {actual:>8.1f}  {predicted:>9.1f}  {interval:>18s}")
    print()
    print("The GP predicts on the centered log scale.  With the response mean")
    print("added back, to_natural maps mean +/- 1.96 sd of that Gaussian")
    print("through expm1, clamped at zero, so the interval is asymmetric on the")
    print("incidence scale and widens with the forecast horizon.")


if __name__ == "__main__":
    main()
