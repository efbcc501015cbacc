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
effect in a process that loaded numpy already.  scipy loads later, on
the first GP factorization (see gp), so commands that fit no GP never
load it.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if not any(v in os.environ for v in _BLAS_THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .data import DataValidationError, _format_number, load_dataset, write_csv
from .evaluation import (_METRICS, MODELS, CityData, ForecastRow, ProtocolConfig,
                         aggregate_reports, build_design, gp_forecast, query_row,
                         run_backtest, target_weeks)
from .gp import ModelFitError, fit
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


@contextmanager
def _input_error(context: str, file: str | None = None):
    """Re-raise a ValueError from the block as an input error (exit 2).

    With a file, the block reads a JSON file this program wrote, so a
    missing key or a value of the wrong type is an input error too.
    """
    caught = ValueError if file is None else (ValueError, KeyError, TypeError)
    try:
        yield
    except DataValidationError:
        raise
    except caught as e:
        detail = e if isinstance(e, ValueError) else f"{type(e).__name__} {e}"
        raise DataValidationError(f"{context}: {detail}", file=file) from None


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

    with _input_error("bad setting value"):
        merged = {k: _coerce(k, v) for k, v in merged.items()}
    if merged["model"] not in _MODEL_CHOICES:
        raise DataValidationError(
            f"model must be one of {', '.join(_MODEL_CHOICES)}")
    if merged["variation"] not in _VARIATION_CHOICES:
        raise DataValidationError(
            f"variation must be one of {', '.join(_VARIATION_CHOICES)}")
    return RunConfig(**merged)


def _read_json(path: str, command: str):
    """Load a JSON file that the given command writes."""
    try:
        fh = open(path, encoding="utf-8")
    except FileNotFoundError:
        raise DataValidationError(f"no {path}; run the {command} command first") from None
    with fh, _input_error("not valid JSON", file=path):
        return json.load(fh)


def _write_json(path: str, payload: dict):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(v) -> str:
    return "" if v is None else _format_number(v)


def _write_forecast_csv(path: str, rows, model: str):
    write_csv(path, FORECAST_HEADER,
              ((r.target_week, _fmt(r.actual_dir), _fmt(r.predicted_dir), _fmt(r.sd),
                _fmt(r.lower95), _fmt(r.upper95), model) for r in rows))


def _trained_city(cfg: RunConfig, ds) -> CityData:
    if not cfg.city:
        raise DataValidationError("this command needs --city")
    if cfg.city not in ds.cities:
        raise DataValidationError(f"unknown city {cfg.city!r}")
    return CityData.from_dataset(ds, cfg.city)


def _design(cfg: RunConfig, ds, view):
    """build_design for the --city view; a failure is an input error (exit 2)."""
    with _input_error(f"cases.csv and climate.csv: city {cfg.city} with station "
                      f"{ds.assignments[cfg.city]} cannot be preprocessed"):
        return build_design(view)


def cmd_ingest(cfg: RunConfig) -> int:
    ds = load_dataset(cfg.data_dir)
    summary = ds.summary()
    _write_json(os.path.join(cfg.out_dir, "dataset_summary.json"), summary)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_train(cfg: RunConfig) -> int:
    ds = load_dataset(cfg.data_dir)
    city = _trained_city(cfg, ds)
    if city.dir_series.n_weeks < 104:
        raise DataValidationError(
            f"need at least 104 training weeks, have {city.dir_series.n_weeks}")

    with _input_error("bad setting value"):
        optimizer_config = OptimizerConfig(restarts=cfg.restarts, seed=cfg.seed)
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
    ds = load_dataset(cfg.data_dir)
    city = _trained_city(cfg, ds)
    model_path = os.path.join(cfg.out_dir, f"model_{cfg.city}.json")
    payload = _read_json(model_path, "train")
    with _input_error("invalid saved model", file=model_path):
        h = KernelHyperparameters.from_dict(payload["hyperparameters"])
        saved_transform = payload["transform"]
        end = int(payload["training_end_week"])
        if not city.dir_series.start_week <= end <= city.dir_series.end_week:
            raise ValueError(f"training end week {end} is outside this series")
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
    targets = range(end + 1, end + cfg.horizon + 1)
    with _input_error(f"bad setting value: horizon {cfg.horizon}"):
        queries = [query_row(view, state, t) for t in targets]

    model = fit(weeks, X, y, h)
    rows = [ForecastRow(t, city.actual_dir(t) if t <= city.dir_series.end_week else None,
                        *gp_forecast(model, t, x, state))
            for t, x in zip(targets, queries)]

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
    ds = load_dataset(cfg.data_dir)
    models = MODELS if cfg.model == "all" else (cfg.model,)
    with _input_error("bad setting value"):
        if cfg.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {cfg.jobs}")
        protocol = ProtocolConfig(horizon=cfg.horizon, first_target=cfg.first_target,
                                  last_target=cfg.last_target, refit_every=cfg.refit_every)
        optimizer_config = OptimizerConfig(restarts=cfg.restarts, seed=cfg.seed)
        # load_dataset gives every city the same week window
        target_weeks(models, protocol, ds.start_week, ds.end_week)

    # city i of the full sorted list draws seed + i, whichever cities the
    # population filter keeps
    tasks = [(CityData.from_dataset(ds, cid), models, protocol,
              replace(optimizer_config, seed=cfg.seed + i))
             for i, cid in enumerate(sorted(ds.cities))
             if ds.cities[cid].population >= cfg.min_population]
    if not tasks:
        raise DataValidationError(
            f"no cities with population >= {cfg.min_population}")

    workers = min(cfg.jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
    summary["config"] = {k: getattr(cfg, k) for k in (
        "model", "seed", "horizon", "first_target", "last_target", "refit_every",
        "restarts", "min_population")}
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
    with _input_error(f"bad setting value: --n-cities {cfg.n_cities} --weeks {cfg.weeks} "
                      f"--seed {cfg.seed}"):
        variations = tuple(replace(v, weeks=cfg.weeks) for v in presets)
        ds = synth.make_multi_city_fixture(cfg.out_dir, cfg.n_cities,
                                           variations=variations, seed=cfg.seed)
    print(f"fixture with {len(ds.cities)} cities written to {cfg.out_dir}")
    return 0


def cmd_report(cfg: RunConfig) -> int:
    summary_path = os.path.join(cfg.out_dir, "summary.json")
    summary = _read_json(summary_path, "backtest")
    # every summary and forecast row is read and checked before the first
    # file is written
    with _input_error("invalid summary", file=summary_path):
        models = summary["models"]
        scatter = [(metric, a, b, cid, _fmt(city[a][metric]), _fmt(city[b][metric]))
                   for metric in _METRICS
                   for i, a in enumerate(models) for b in models[i + 1:]
                   for cid, city in sorted(summary["cities"].items())
                   if a in city and b in city
                   and city[a][metric] is not None and city[b][metric] is not None]
        blocks = [("all", summary["overall"])] + sorted(summary["regions"].items())
        boxplot = [(region, m, metric, _fmt(q["q1"]), _fmt(q["median"]), _fmt(q["q3"]), q["n"])
                   for region, block in blocks for m in models for metric in _METRICS
                   if (q := block[m][metric]) is not None]
        listed = [(cid, m) for cid, city in sorted(summary["cities"].items())
                  for m in models if m in city]

    trajectories = []
    for cid, m in listed:
        path = os.path.join(cfg.out_dir, f"forecast_{cid}_{m}.csv")
        try:
            fh = open(path, newline="", encoding="utf-8")
        except FileNotFoundError:
            raise DataValidationError("file not found", file=path) from None
        with fh:
            rows = list(csv.reader(fh))
        if not rows or tuple(rows[0]) != FORECAST_HEADER:
            raise DataValidationError(f"expected header {','.join(FORECAST_HEADER)}",
                                      file=path, line=1)
        for line, row in enumerate(rows[1:], start=2):
            if len(row) != len(FORECAST_HEADER):
                raise DataValidationError(f"expected {len(FORECAST_HEADER)} fields, "
                                          f"found {len(row)}", file=path, line=line)
        trajectories.append((f"trajectory_{cid}_{m}.csv",
                             [(r[0], r[1], r[2], r[4], r[5]) for r in rows[1:]]))

    write_csv(os.path.join(cfg.out_dir, "scatter.csv"),
              ("metric", "model_a", "model_b", "city_id", "value_a", "value_b"), scatter)
    write_csv(os.path.join(cfg.out_dir, "boxplot.csv"),
              ("region", "model", "metric", "q1", "median", "q3", "n"), boxplot)
    for name, rows in trajectories:
        write_csv(os.path.join(cfg.out_dir, name),
                  ("target_week", "actual_dir", "predicted_dir", "lower95", "upper95"), rows)

    print(f"wrote scatter.csv, boxplot.csv and {len(trajectories)} trajectory files "
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
