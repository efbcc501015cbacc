"""Rolling-origin backtest: GP against the two baselines on one city.

Every target week t is forecast from a training view that ends at
t - 4, so the model never sees the four weeks leading up to the target.
The GP refits its hyperparameters once per refit_every targets and
reuses them in between; the AR(1) baseline refits every week on a
12-week window; the linear model refits on the whole view every week.
One call runs all three: each origin's view is screened for outliers
and turned into a design once, and every model forecasts from those.

Run with:  python3 demos/03_backtest_protocol.py   (takes a few seconds)
"""

import time

from denguegp.evaluation import CityData, ProtocolConfig, run_backtest
from denguegp.hyperopt import OptimizerConfig
from denguegp.synth import draw_from_prior, strongly_periodic_spec


def main():
    spec = strongly_periodic_spec(seed=1)
    draw = draw_from_prior(spec, city_id="demo")
    city = CityData(
        city_id="demo",
        dir_series=draw.dir_series,
        covariates=draw.raw_covariates,
    )
    protocol = ProtocolConfig()
    last = protocol.last_target or spec.weeks
    print(f"City of {spec.weeks} weeks; forecasting targets "
          f"{protocol.first_target}..{last} at horizon {protocol.horizon} "
          f"({last - protocol.first_target + 1} origins, GP refit every "
          f"{protocol.refit_every}).")
    print()

    started = time.perf_counter()
    reports = {r.model: r for r in run_backtest(
        city, ("gp", "lm", "ar"), protocol,
        optimizer_config=OptimizerConfig(restarts=2, seed=0))}
    print(f"  ran the three backtests in {time.perf_counter() - started:5.1f}s")
    print()

    print("Scores over the common target weeks:")
    print(f"  {'model':>5s}  {'pearson':>8s}  {'auc_med':>8s}  {'auc_high':>8s}  {'gaps':>4s}")
    for model in ("gp", "lm", "ar"):
        r = reports[model]
        fmt = lambda v: "   --" if v is None else f"{v:8.3f}"
        print(f"  {model:>5s}  {fmt(r.pearson):>8s}  {fmt(r.auc_medium):>8s}  "
              f"{fmt(r.auc_high):>8s}  {r.n_failed:>4d}")
    print(f"  (band eligibility: {reports['gp'].band_eligibility}; AUC columns")
    print("   appear only for bands the actual series actually crosses)")
    print()

    print("A few GP rows with their intervals:")
    print(f"  {'week':>5s}  {'actual':>8s}  {'predicted':>9s}  {'95% interval':>18s}")
    for row in reports["gp"].rows[:6]:
        interval = f"[{row.lower95:7.1f}, {row.upper95:7.1f}]"
        print(f"  {row.target_week:>5d}  {row.actual_dir:>8.1f}  "
              f"{row.predicted_dir:>9.1f}  {interval:>18s}")
    print()
    print("The AR(1) baseline only extrapolates the last 12 weeks, so it")
    print("trails badly whenever the season turns; the linear model knows")
    print("the lagged climate but not the recent trajectory.  The GP sees")
    print("both, which is where its correlation advantage comes from.")


if __name__ == "__main__":
    main()
