"""Command-line surface for the forecasting pipeline.

Subcommands: ingest, train, forecast, backtest, simulate, report.
Settings resolve in four layers, later layers winning: built-in
defaults, a key=value config file (--config), environment variables
prefixed DENGUEGP_, then command-line flags.  All randomness flows from
the single resolved seed.  Exit codes are stable: 0 success, 2 input
validation, 3 model fitting, 4 I/O.

OpenBLAS runs on one thread unless OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS is set.  The matrices here are
small (n ~ 100), so a second BLAS thread mostly spins, and --jobs
workers would oversubscribe the cores.  GP outputs depend on the thread
count in their last digits, so one setting also gives one set of bytes.
The variable is read when numpy and scipy load their OpenBLAS, so it
must be set before the first import below that loads numpy; it has no
effect in a process that loaded numpy already.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if not any(v in os.environ for v in _BLAS_THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .data import DataValidationError, _format_number, load_dataset
from .evaluation import (_METRICS, MIN_VIEW_WEEKS, MODELS, CityData, ForecastRow,
                         ProtocolConfig, aggregate_reports, build_design,
                         query_row, run_backtest, to_natural)
from .gp import ModelFitError, fit, predict
from .hyperopt import OptimizerConfig, optimize
from .kernels import KernelHyperparameters

ENV_PREFIX = "DENGUEGP_"

FORECAST_HEADER = ("target_week", "actual_dir", "predicted_dir",
                   "sd", "lower95", "upper95", "model")

_MODEL_CHOICES = MODELS + ("all",)
_VARIATION_CHOICES = ("default", "low", "periodic", "mixed")


@dataclass(frozen=True)
class RunConfig:
    data_dir: str = "."
    out_dir: str = "out"
    model: str = "gp"
    seed: int = 0
    jobs: int = 1
    horizon: int = ProtocolConfig.horizon
    first_target: int = ProtocolConfig.first_target
    last_target: int | None = ProtocolConfig.last_target
    refit_every: int = ProtocolConfig.refit_every
    restarts: int = OptimizerConfig.restarts
    min_population: int = 0
    city: str | None = None
    n_cities: int = 3
    weeks: int = 209
    variation: str = "default"


_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}

_INT_KEYS = tuple(k for k, v in _DEFAULTS.items() if isinstance(v, int))


def _parse_config_file(path: str) -> dict:
    out = {}
    try:
        fh = open(path, encoding="utf-8")
    except FileNotFoundError:
        raise DataValidationError("config file not found", file=path) from None
    with fh:
        for i, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataValidationError("expected key = value", file=path, line=i)
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _DEFAULTS:
                raise DataValidationError(f"unknown setting {key!r}", file=path, line=i)
            out[key] = value.strip()
    return out


def _coerce(key: str, value):
    if value is None or not isinstance(value, str):
        return value
    if key == "last_target":
        return None if value.lower() in ("", "none") else int(value)
    if key in _INT_KEYS:
        return int(value)
    return value


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults < config file < environment < flags."""
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        merged.update(_parse_config_file(args.config))
    for key in _DEFAULTS:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            merged[key] = env
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag

    try:
        merged = {k: _coerce(k, v) for k, v in merged.items()}
    except ValueError as e:
        raise DataValidationError(f"bad setting value: {e}") from None
    if merged["model"] not in _MODEL_CHOICES:
        raise DataValidationError(
            f"model must be one of {', '.join(_MODEL_CHOICES)}")
    if merged["variation"] not in _VARIATION_CHOICES:
        raise DataValidationError(
            f"variation must be one of {', '.join(_VARIATION_CHOICES)}")
    return RunConfig(**merged)


def _load(cfg: RunConfig):
    d = cfg.data_dir
    return load_dataset(
        cases_path=os.path.join(d, "cases.csv"),
        population_path=os.path.join(d, "population.csv"),
        climate_path=os.path.join(d, "climate.csv"),
        stations_path=os.path.join(d, "stations.csv"),
        cities_path=os.path.join(d, "cities.csv"),
    )


def _write_json(path: str, payload: dict):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(v) -> str:
    return "" if v is None else _format_number(v)


def _write_forecast_csv(path: str, rows, model: str):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(FORECAST_HEADER)
        for r in rows:
            w.writerow((r.target_week, _fmt(r.actual_dir), _fmt(r.predicted_dir),
                        _fmt(r.sd), _fmt(r.lower95), _fmt(r.upper95), model))


def _trained_city(cfg: RunConfig, ds) -> CityData:
    if not cfg.city:
        raise DataValidationError("this command needs --city")
    if cfg.city not in ds.cities:
        raise DataValidationError(f"unknown city {cfg.city!r}")
    return CityData.from_dataset(ds, cfg.city)


def _design(cfg: RunConfig, ds, view):
    """build_design for the --city view; a failure is an input error (exit 2)."""
    try:
        return build_design(view)
    except ValueError as e:
        raise DataValidationError(
            f"cases.csv and climate.csv: city {cfg.city} with station "
            f"{ds.assignments[cfg.city]} cannot be preprocessed: {e}") from None


def _validated(config_class, **settings):
    """Build a settings object; a rejected value is an input error (exit 2)."""
    try:
        return config_class(**settings)
    except ValueError as e:
        raise DataValidationError(f"bad setting value: {e}") from None


def cmd_ingest(cfg: RunConfig) -> int:
    ds = _load(cfg)
    summary = ds.summary()
    _write_json(os.path.join(cfg.out_dir, "dataset_summary.json"), summary)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_train(cfg: RunConfig) -> int:
    ds = _load(cfg)
    city = _trained_city(cfg, ds)
    if city.dir_series.n_weeks < 104:
        raise DataValidationError(
            f"need at least 104 training weeks, have {city.dir_series.n_weeks}")

    optimizer_config = _validated(OptimizerConfig, restarts=cfg.restarts, seed=cfg.seed)
    view = city.training_view(city.dir_series.end_week)
    weeks, X, y, state = _design(cfg, ds, view)
    h, lml, diagnostics = optimize(weeks, X, y, optimizer_config)

    model_path = os.path.join(cfg.out_dir, f"model_{cfg.city}.json")
    _write_json(model_path, {
        "city_id": cfg.city,
        "training_end_week": view.end_week,
        "final_lml": lml,
        "hyperparameters": h.to_dict(),
        "transform": state.to_dict(),
    })
    _write_json(os.path.join(cfg.out_dir, f"train_diagnostics_{cfg.city}.json"),
                diagnostics)
    print(f"model written to {model_path}")
    return 0


def cmd_forecast(cfg: RunConfig) -> int:
    ds = _load(cfg)
    city = _trained_city(cfg, ds)
    model_path = os.path.join(cfg.out_dir, f"model_{cfg.city}.json")
    try:
        with open(model_path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise DataValidationError(
            f"no saved model at {model_path}; run the train command first") from None

    try:
        h = KernelHyperparameters.from_dict(payload["hyperparameters"])
        saved_transform = payload["transform"]
        end = int(payload["training_end_week"])
    except (KeyError, TypeError, ValueError) as e:
        raise DataValidationError(f"invalid saved model: {type(e).__name__} {e}",
                                  file=model_path) from None
    if not city.dir_series.start_week <= end <= city.dir_series.end_week:
        raise DataValidationError(f"training end week {end} is outside this series",
                                  file=model_path)
    if cfg.horizon < 1:
        raise DataValidationError(f"bad setting value: horizon must be >= 1, got {cfg.horizon}")

    # the transform is re-derived from the data, so a saved one that
    # differs means the data through the training end changed
    view = city.training_view(end)
    weeks, X, y, state = _design(cfg, ds, view)
    if state.to_dict() != saved_transform:
        raise DataValidationError(
            f"saved transform does not match the data through week {end}; "
            "train again on this data", file=model_path)
    if cfg.horizon > min(state.lags):
        raise DataValidationError(
            f"horizon {cfg.horizon} exceeds the shortest covariate lag {min(state.lags)}")

    model = fit(weeks, X, y, h)

    rows = []
    for t in range(end + 1, end + cfg.horizon + 1):
        dist = predict(model, t, query_row(view, state, t))
        actual = city.actual_dir(t) if t <= city.dir_series.end_week else None
        rows.append(ForecastRow(t, actual, *to_natural(dist.mean + state.response_mean,
                                                       dist.variance)))

    out_path = os.path.join(cfg.out_dir, f"prediction_{cfg.city}.csv")
    _write_forecast_csv(out_path, rows, "gp")
    print(f"forecast written to {out_path}")
    return 0


def _city_worker(task):
    """Run every requested model for one city; exceptions become data."""
    city, models, protocol, optimizer_config = task
    try:
        return city.city_id, run_backtest(city, models, protocol, optimizer_config), None
    except Exception as e:  # per-city isolation: one bad city cannot sink the run
        return city.city_id, [], f"{type(e).__name__}: {e}"


def cmd_backtest(cfg: RunConfig) -> int:
    if cfg.jobs < 1:
        raise DataValidationError(f"bad setting value: jobs must be >= 1, got {cfg.jobs}")
    ds = _load(cfg)
    city_ids = sorted(cid for cid, c in ds.cities.items()
                      if c.population >= cfg.min_population)
    if not city_ids:
        raise DataValidationError(
            f"no cities with population >= {cfg.min_population}")

    models = MODELS if cfg.model == "all" else (cfg.model,)
    protocol = _validated(ProtocolConfig, horizon=cfg.horizon, first_target=cfg.first_target,
                          last_target=cfg.last_target, refit_every=cfg.refit_every)
    need = max(MIN_VIEW_WEEKS[m] for m in models)
    if cfg.first_target - cfg.horizon < need:
        raise DataValidationError(
            f"bad setting value: first_target {cfg.first_target} leaves a "
            f"{cfg.first_target - cfg.horizon}-week training view, and --model "
            f"{cfg.model} needs at least {need} weeks")
    # load_dataset gives every city the same week window
    for key in ("first_target", "last_target"):
        week = getattr(cfg, key)
        if week is not None and week > ds.end_week:
            raise DataValidationError(
                f"bad setting value: {key} {week} is past the last data week {ds.end_week}")
    tasks = [(CityData.from_dataset(ds, cid), models, protocol,
              _validated(OptimizerConfig, restarts=cfg.restarts, seed=cfg.seed + idx))
             for idx, cid in enumerate(city_ids)]

    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_city_worker, tasks))
    else:
        results = [_city_worker(t) for t in tasks]

    reports, failures = [], {}
    for cid, city_reports, error in results:
        if error is not None:
            failures[cid] = error
        reports.extend(city_reports)
    if not reports:
        raise ModelFitError("backtest failed for every city: "
                            + "; ".join(f"{c}: {e}" for c, e in sorted(failures.items())))

    os.makedirs(cfg.out_dir, exist_ok=True)
    for r in reports:
        _write_forecast_csv(
            os.path.join(cfg.out_dir, f"forecast_{r.city_id}_{r.model}.csv"),
            r.rows, r.model)

    summary = aggregate_reports(reports, ds.cities)
    summary["failures"] = {c: failures[c] for c in sorted(failures)}
    summary["config"] = {
        "model": cfg.model, "seed": cfg.seed, "horizon": cfg.horizon,
        "first_target": cfg.first_target, "last_target": cfg.last_target,
        "refit_every": cfg.refit_every, "restarts": cfg.restarts,
        "min_population": cfg.min_population,
    }
    summary_path = os.path.join(cfg.out_dir, "summary.json")
    _write_json(summary_path, summary)
    print(f"wrote {len(reports)} forecast files and {summary_path}")
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    # imported here so the fast commands never pay for it
    from . import synth

    presets = {
        "default": (synth.SynthSpec(),),
        "low": (synth.low_incidence_spec(),),
        "periodic": (synth.strongly_periodic_spec(),),
        "mixed": (synth.SynthSpec(), synth.strongly_periodic_spec(),
                  synth.low_incidence_spec()),
    }[cfg.variation]
    try:
        variations = tuple(replace(v, weeks=cfg.weeks) for v in presets)
    except ValueError as e:
        raise DataValidationError(f"bad setting value: --weeks {cfg.weeks}: {e}") from None

    ds = synth.make_multi_city_fixture(cfg.out_dir, cfg.n_cities,
                                       variations=variations, seed=cfg.seed)
    print(f"fixture with {len(ds.cities)} cities written to {cfg.out_dir}")
    return 0


def cmd_report(cfg: RunConfig) -> int:
    summary_path = os.path.join(cfg.out_dir, "summary.json")
    try:
        with open(summary_path, encoding="utf-8") as fh:
            summary = json.load(fh)
    except FileNotFoundError:
        raise DataValidationError(
            f"no {summary_path}; run the backtest command first") from None

    models = summary["models"]

    with open(os.path.join(cfg.out_dir, "scatter.csv"), "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(("metric", "model_a", "model_b", "city_id", "value_a", "value_b"))
        for metric in _METRICS:
            for i, a in enumerate(models):
                for b in models[i + 1:]:
                    for cid in sorted(summary["cities"]):
                        city = summary["cities"][cid]
                        if a not in city or b not in city:
                            continue
                        va, vb = city[a][metric], city[b][metric]
                        if va is None or vb is None:
                            continue
                        w.writerow((metric, a, b, cid, _fmt(va), _fmt(vb)))

    with open(os.path.join(cfg.out_dir, "boxplot.csv"), "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(("region", "model", "metric", "q1", "median", "q3", "n"))
        blocks = [("all", summary["overall"])]
        blocks += sorted(summary["regions"].items())
        for region, block in blocks:
            for m in models:
                for metric in _METRICS:
                    q = block[m][metric]
                    if q is None:
                        continue
                    w.writerow((region, m, metric, _fmt(q["q1"]), _fmt(q["median"]),
                                _fmt(q["q3"]), q["n"]))

    n_trajectories = 0
    for name in sorted(os.listdir(cfg.out_dir)):
        if not (name.startswith("forecast_") and name.endswith(".csv")):
            continue
        with open(os.path.join(cfg.out_dir, name), newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if not rows or tuple(rows[0]) != FORECAST_HEADER:
            continue
        out_name = "trajectory_" + name[len("forecast_"):]
        with open(os.path.join(cfg.out_dir, out_name), "w", newline="",
                  encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(("target_week", "actual_dir", "predicted_dir",
                        "lower95", "upper95"))
            for row in rows[1:]:
                w.writerow((row[0], row[1], row[2], row[4], row[5]))
        n_trajectories += 1

    print(f"wrote scatter.csv, boxplot.csv and {n_trajectories} trajectory files "
          f"to {cfg.out_dir}")
    return 0


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key = value settings file")
    p.add_argument("--data-dir", dest="data_dir", help="directory with the input CSVs")
    p.add_argument("--out-dir", dest="out_dir", help="directory for outputs")
    p.add_argument("--seed", type=int, help="base random seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="denguegp",
        description="Weekly incidence forecasting: ingest data, train and "
                    "evaluate models, generate synthetic fixtures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate the input CSVs and summarize them")
    _add_common(p)

    p = sub.add_parser("train", help="optimize hyperparameters for one city")
    _add_common(p)
    p.add_argument("--city", help="city id to train on")
    p.add_argument("--restarts", type=int, help="optimizer restarts")

    p = sub.add_parser("forecast", help="predict ahead from a saved model")
    _add_common(p)
    p.add_argument("--city", help="city id to forecast")
    p.add_argument("--horizon", type=int, help="weeks ahead to predict")

    p = sub.add_parser("backtest", help="rolling-origin evaluation over all cities")
    _add_common(p)
    p.add_argument("--model", choices=_MODEL_CHOICES, help="which model(s) to run")
    p.add_argument("--jobs", type=int, help="parallel city workers")
    p.add_argument("--horizon", type=int, help="forecast gap in weeks")
    p.add_argument("--first-target", dest="first_target", type=int,
                   help="first target week")
    p.add_argument("--last-target", dest="last_target",
                   help="last target week (or 'none' for series end)")
    p.add_argument("--refit-every", dest="refit_every", type=int,
                   help="weeks between hyperparameter re-optimizations")
    p.add_argument("--restarts", type=int, help="optimizer restarts")
    p.add_argument("--min-population", dest="min_population", type=int,
                   help="skip cities below this population")

    p = sub.add_parser("simulate", help="write a synthetic fixture")
    _add_common(p)
    p.add_argument("--n-cities", dest="n_cities", type=int, help="cities to generate")
    p.add_argument("--weeks", type=int, help="weeks per city")
    p.add_argument("--variation", choices=_VARIATION_CHOICES,
                   help="generating process preset")

    p = sub.add_parser("report", help="emit plot-ready CSVs from backtest output")
    _add_common(p)

    return parser


_COMMANDS = {
    "ingest": cmd_ingest,
    "train": cmd_train,
    "forecast": cmd_forecast,
    "backtest": cmd_backtest,
    "simulate": cmd_simulate,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except DataValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ModelFitError as e:
        print(f"model error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
