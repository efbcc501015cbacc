"""End-to-end benchmark of `denguegp backtest`.

    python3 perfbench/run.py --workload gp-all --seed 0 --seconds 45 --trace 0

Run from the repository root.  Every command is a child process running
``python3 -m denguegp.cli`` against ``src/`` of this checkout; one
command runs at a time (a closed loop with one client).  The fixture is
made by ``denguegp simulate --seed <seed>``, so the program sees only
the generated CSVs.  BLAS thread variables are recorded, never set.

--trace 0  Set up the fixture three times (simulate + ingest; median is
           setup_s), then repeat the backtest at --jobs 1 at least twice
           and as long as the next repeat is expected to end within
           --seconds, and report medians of the end-to-end metrics.
--trace 1  Set up once, run the backtest untraced twice at --jobs 1 and
           once at --jobs 2, then once at --jobs 1 in-process under
           perfbench/tracer.py, and report per-layer metrics from the
           spans.

Every backtest is checked: exit code 0, one row per target week under
the expected header in every forecast CSV, every city x model in
summary.json, and identical sha256 hashes of the forecast CSVs and
summary.json across repeats.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")

FORECAST_HEADER = ["target_week", "actual_dir", "predicted_dir",
                   "sd", "lower95", "upper95", "model"]
MODELS = ("gp", "lm", "ar")
SETUP_REPEATS = 3
MIN_REPEATS = 2


@dataclass(frozen=True)
class Workload:
    cities: int
    weeks: int
    variation: str
    model: str  # "all" or one of MODELS
    restarts: int
    first_target: int
    last_target: int

    @property
    def models(self) -> tuple:
        return MODELS if self.model == "all" else (self.model,)

    def simulate_args(self, out_dir: str, seed: int) -> list:
        return ["simulate", "--out-dir", out_dir, "--seed", str(seed),
                "--n-cities", str(self.cities), "--weeks", str(self.weeks),
                "--variation", self.variation]

    def backtest_args(self, data_dir: str, out_dir: str, seed: int, jobs: int) -> list:
        return ["backtest", "--data-dir", data_dir, "--out-dir", out_dir,
                "--seed", str(seed), "--model", self.model,
                "--restarts", str(self.restarts), "--jobs", str(jobs),
                "--first-target", str(self.first_target),
                "--last-target", str(self.last_target)]


# Why each workload exists is recorded in BENCHMARK.json.  "tiny" is not
# listed there: perfbench/selftest.py uses it to check the harness fast.
WORKLOADS = {
    "gp-all": Workload(cities=6, weeks=209, variation="default", model="all",
                       restarts=3, first_target=105, last_target=156),
    "baselines-many": Workload(cities=12, weeks=209, variation="mixed", model="lm",
                               restarts=1, first_target=105, last_target=156),
    "tiny": Workload(cities=2, weeks=120, variation="default", model="all",
                     restarts=1, first_target=100, last_target=109),
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (set-up failed)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in list(env):
        if key.startswith("DENGUEGP_"):
            del env[key]  # settings come from the flags only
    return env


@dataclass(frozen=True)
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_child(argv: list, log_path: str) -> Proc:
    """Run one command; CPU and peak RSS cover it and its reaped children.

    The command gets its own process group, which is killed if the wait
    is interrupted (SIGTERM, Ctrl-C), so no worker outlives the benchmark.
    """
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        p = subprocess.Popen(argv, cwd=ROOT, env=child_env(), start_new_session=True,
                             stdout=log, stderr=log, stdin=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
            raise
        wall = time.perf_counter() - start
    p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(p.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)


def cli(args: list) -> list:
    return [sys.executable, "-m", "denguegp.cli"] + args


def sha256_files(directory: str, names) -> dict:
    out = {}
    for name in sorted(names):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def read_city_ids(data_dir: str) -> list:
    with open(os.path.join(data_dir, "cities.csv"), newline="", encoding="utf-8") as fh:
        return sorted(row["city_id"] for row in csv.DictReader(fh))


def setup(w: Workload, seed: int, data_dir: str, log: str) -> float:
    """simulate + ingest wall time; raises when either command fails."""
    wall = 0.0
    for args in (w.simulate_args(data_dir, seed),
                 ["ingest", "--data-dir", data_dir, "--out-dir", data_dir + "-ingest"]):
        proc = run_child(cli(args), log)
        if proc.code != 0:
            raise BenchError(f"{args[0]} exited {proc.code}; see {log}")
        wall += proc.wall_s
    return wall


@dataclass
class Check:
    ok: bool
    problems: list
    rows_attempted: int
    rows_ok: int
    hashes: dict


def check_outputs(w: Workload, code: int, out_dir: str, city_ids: list) -> Check:
    """The output check applied to every backtest run.

    A city the backtest reports under summary.json "failures" is the
    program's documented per-city isolation, not a check failure: its
    rows count as attempted and not as forecasts.
    """
    targets = list(range(w.first_target, w.last_target + 1))
    attempted = len(city_ids) * len(w.models) * len(targets)
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    summary_path = os.path.join(out_dir, "summary.json")
    if not os.path.exists(summary_path):
        return Check(False, problems + ["summary.json missing"], attempted, 0, {})
    with open(summary_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    failed_cities = set(summary.get("failures", {}))
    rows_ok, names = 0, ["summary.json"]
    for cid in city_ids:
        if cid in failed_cities:
            continue
        for m in w.models:
            if m not in summary.get("cities", {}).get(cid, {}):
                problems.append(f"summary.json lacks {cid} x {m}")
            name = f"forecast_{cid}_{m}.csv"
            path = os.path.join(out_dir, name)
            if not os.path.exists(path):
                problems.append(f"{name} missing")
                continue
            names.append(name)
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            if rows[:1] != [FORECAST_HEADER]:
                problems.append(f"{name}: bad header {rows[:1]}")
                continue
            body = [dict(zip(FORECAST_HEADER, r)) for r in rows[1:]]
            if [int(r["target_week"]) for r in body] != targets:
                problems.append(f"{name}: target weeks differ from {targets[0]}..{targets[-1]}")
                continue
            for r in body:
                if not r["predicted_dir"]:
                    continue
                rows_ok += 1
                if r["lower95"] and not 0.0 <= float(r["lower95"]) <= float(r["upper95"]):
                    problems.append(f"{name}: week {r['target_week']} has a bad interval")
    return Check(not problems, problems, attempted, rows_ok if not problems else 0,
                 sha256_files(out_dir, names))


def quality_lines(w: Workload, out_dir: str, city_ids: list) -> list:
    """Forecast quality, printed for the record but not bounded.

    Pearson / AUC medians per model from summary.json and the GP 95%
    interval coverage error from the forecast CSVs.  These depend on the
    fixture far more than on the machine, so they stay out of the bounded
    metrics.
    """
    lines = []
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        overall = json.load(fh)["overall"]
    for m in w.models:
        parts = []
        for metric in ("pearson", "auc_mean"):
            q = overall[m][metric]
            parts.append(f"{metric}={q['median']:.4f}" if q else f"{metric}=n/a")
        lines.append(f"quality {m}: " + " ".join(parts))
    if "gp" not in w.models:
        return lines
    inside = total = 0
    for cid in city_ids:
        path = os.path.join(out_dir, f"forecast_{cid}_gp.csv")
        if not os.path.exists(path):
            continue  # a city the backtest reports as failed
        with open(path, newline="", encoding="utf-8") as fh:
            for r in csv.DictReader(fh):
                if r["predicted_dir"]:
                    total += 1
                    inside += float(r["lower95"]) <= float(r["actual_dir"]) <= float(r["upper95"])
    if total:
        lines.append(f"quality gp: coverage95_err={abs(inside / total - 0.95):.4f} "
                     f"over {total} rows")
    return lines


def environment(w: Workload, name: str, seed: int) -> dict:
    probe = ("import json, platform, numpy, scipy\n"
             "cfg = numpy.show_config(mode='dicts')\n"
             "blas = cfg.get('Build Dependencies', {}).get('blas', {})\n"
             "print(json.dumps({'python': platform.python_version(),"
             " 'numpy': numpy.__version__, 'scipy': scipy.__version__,"
             " 'blas': blas.get('name'), 'blas_version': blas.get('version')}))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=child_env(), cwd=ROOT, check=True).stdout
    env = json.loads(out)
    # the ceiling keeps git from reporting an enclosing repository's commit
    git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT,
                         env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    env.update({
        "nproc": os.cpu_count(),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_commit": git.stdout.strip() if git.returncode == 0 else None,
        "machine": platform.machine(),
        "workload": name, "seed": seed, "fixture": dataclasses.asdict(w),
    })
    return env


def end_to_end(w: Workload, seed: int, seconds: float, run_dir: str, log: str):
    setups = []
    for i in range(SETUP_REPEATS):
        setups.append(setup(w, seed, os.path.join(run_dir, f"data{i}"), log))
    data_dir = os.path.join(run_dir, "data0")
    fixture_hashes = [sha256_files(os.path.join(run_dir, f"data{i}"),
                                   [n for n in os.listdir(data_dir) if n.endswith(".csv")])
                      for i in range(SETUP_REPEATS)]
    city_ids = read_city_ids(data_dir)

    procs, checks = [], []
    start = time.perf_counter()
    # start another repeat only while it is expected to end inside the window
    while len(procs) < MIN_REPEATS or (time.perf_counter() - start
                                       + statistics.median(p.wall_s for p in procs) <= seconds):
        out_dir = os.path.join(run_dir, f"out{len(procs)}")
        proc = run_child(cli(w.backtest_args(data_dir, out_dir, seed, jobs=1)), log)
        procs.append(proc)
        checks.append(check_outputs(w, proc.code, out_dir, city_ids))

    problems = [f"run {i}: {p}" for i, c in enumerate(checks) for p in c.problems]
    if any(h != fixture_hashes[0] for h in fixture_hashes):
        problems.append("simulate wrote different fixtures for one seed")
    if any(c.hashes != checks[0].hashes for c in checks):
        problems.append("forecast_*.csv / summary.json hashes differ across repeats")
    attempted = sum(c.rows_attempted for c in checks)

    print(f"setup_s runs: {' '.join(f'{s:.3f}' for s in setups)}")
    print(f"backtest_s runs: {' '.join(f'{p.wall_s:.3f}' for p in procs)}")
    print("hashes: " + json.dumps(checks[0].hashes, sort_keys=True))
    if checks[0].ok:
        for line in quality_lines(w, os.path.join(run_dir, "out0"), city_ids):
            print(line)
    for p in problems:
        print(f"check failed: {p}")

    med = statistics.median
    metrics = {
        "setup_s": (med(setups), "s"),
        "backtest_s": (med(p.wall_s for p in procs), "s"),
        "forecasts_per_s": (med(c.rows_ok / p.wall_s for c, p in zip(checks, procs)), "1/s"),
        "cpu_s": (med(p.cpu_s for p in procs), "s"),
        "peak_rss_mb": (med(p.peak_rss_mb for p in procs), "MB"),
        "ok_frac": (sum(c.rows_ok for c in checks) / attempted, "ratio"),
    }
    failed = sum(not c.ok for c in checks)
    return not problems, len(checks), failed, metrics


def span_stats(spans: list) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, and the
    attribute values summed; self time is the span minus its children."""
    child_time = {}
    for span_id, parent, _, start, end, _, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    stats = {}
    for span_id, _, name, start, end, _, attrs in spans:
        s = stats.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["incl_s"] += end - start
        s["self_s"] += end - start - child_time.get(span_id, 0.0)
        for key, value in attrs.items():
            if isinstance(value, (bool, int, float)):
                s[key] = s.get(key, 0) + value
            else:
                s[f"{key}={value}"] = s.get(f"{key}={value}", 0) + 1
    return stats


def layer_metrics(trace: dict, sim_trace: dict, untraced_s: float, traced_s: float,
                  jobs2_s: float) -> tuple:
    """Per-layer metrics and the entry points the tracer could not find.

    A metric whose entry point is missing is left out, never reported
    as zero; a layer that exists but was not called reports 0 calls.
    Every other metric is always printed, so a ratio whose base is 0 (no
    GP call, as on baselines-many) gets a placeholder that reads as "no
    work wasted": 1 for useful_eval_ratio, 0 for the rest.  The names of
    such ratios are returned too, to be printed beside the result.
    """
    missing = sorted(set(trace["missing"]) | set(sim_trace["missing"]))
    stats = span_stats(trace["spans"])
    sim_stats = span_stats(sim_trace["spans"])
    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
    get = lambda name: stats.get(name, zero)  # noqa: E731
    out, no_base = {}, []

    def put(name, unit, needs, value):
        if not any(n in missing for n in needs):
            out[name] = (value, unit)

    def ratio(name, unit, needs, num, den, placeholder=0.0):
        if not den and not any(n in missing for n in needs):
            no_base.append(name)
        put(name, unit, needs, num / den if den else placeholder)

    for entry in ("kernels.gram_gradients", "kernels.gram_from_arrays",
                  "gp.lml_value_and_gradient", "hyperopt.optimize", "gp.fit",
                  "gp.predict", "evaluation.build_design"):
        put(f"{entry}.calls", "count", [entry], get(entry)["calls"])
        put(f"{entry}.self_s", "s", [entry], get(entry)["self_s"])
    for entry in ("preprocess.remove_additive_outliers", "preprocess.select_lag",
                  "baselines.lm_fit", "baselines.ar_fit", "data.load_dataset",
                  "evaluation.aggregate_reports", "cli.backtest"):
        put(f"{entry}.self_s", "s", [entry], get(entry)["self_s"])
    for m in MODELS:
        put(f"evaluation.run_backtest.{m}.self_s", "s", ["evaluation.run_backtest"],
            get(f"evaluation.run_backtest.{m}")["self_s"])
    put("synth.make_multi_city_fixture.self_s", "s", ["synth.make_multi_city_fixture"],
        sim_stats.get("synth.make_multi_city_fixture", zero)["self_s"])

    lml, opt, fit = get("gp.lml_value_and_gradient"), get("hyperopt.optimize"), get("gp.fit")
    evals = lml["calls"]
    failed_evals = lml["calls"] - lml.get("finite", 0)
    lml_needs = ["gp.lml_value_and_gradient"]
    opt_needs = ["hyperopt.optimize"]
    ratio("gp.lml_value_and_gradient.ms_per_call", "ms", lml_needs,
          1000.0 * lml["incl_s"], evals)
    put("hyperopt.evals", "count", lml_needs, evals)
    ratio("hyperopt.evals_per_optimize", "count", lml_needs + opt_needs, evals, opt["calls"])
    put("hyperopt.iterations", "count", opt_needs, opt.get("iterations", 0))
    put("hyperopt.failed_evals", "count", lml_needs, failed_evals)
    ratio("hyperopt.useful_eval_ratio", "ratio", lml_needs, evals - failed_evals, evals,
          placeholder=1.0)
    put("hyperopt.failed_restarts", "count", opt_needs, opt.get("failed_restarts", 0))
    put("hyperopt.maxiter_stops", "count", opt_needs, opt.get("maxiter_stops", 0))
    ratio("hyperopt.optimize.gp_share", "ratio", opt_needs + ["evaluation.run_backtest"],
          opt["incl_s"], get("evaluation.run_backtest.gp")["incl_s"])
    put("gp.jitter_fits", "count", ["gp.fit"], fit.get("jittered", 0))
    put("gp.fit_errors", "count", ["gp.fit"], fit.get("error=ModelFitError", 0))
    put("cli.main.wall_s", "s", ["cli.main"], get("cli.main")["incl_s"])
    out["cli.jobs_speedup"] = (untraced_s / jobs2_s, "ratio")
    out["trace.overhead"] = (traced_s / untraced_s - 1.0, "ratio")
    out["trace.missing_entry_points"] = (len(missing), "count")
    return out, missing, no_base


def traced_child(args: list, spans_path: str, log: str) -> tuple:
    proc = run_child([sys.executable, TRACER, "--out", spans_path, "--"] + args, log)
    if proc.code != 0:
        return proc, None
    with open(spans_path, encoding="utf-8") as fh:
        return proc, json.load(fh)


def per_layer(w: Workload, seed: int, run_dir: str, log: str):
    data_dir = os.path.join(run_dir, "data0")
    setup(w, seed, data_dir, log)
    city_ids = read_city_ids(data_dir)

    checks, untraced = [], []
    for i in range(MIN_REPEATS):
        out_dir = os.path.join(run_dir, f"out{i}")
        proc = run_child(cli(w.backtest_args(data_dir, out_dir, seed, jobs=1)), log)
        untraced.append(proc)
        checks.append(check_outputs(w, proc.code, out_dir, city_ids))
    jobs2 = run_child(cli(w.backtest_args(data_dir, os.path.join(run_dir, "out-jobs2"),
                                          seed, jobs=2)), log)
    checks.append(check_outputs(w, jobs2.code, os.path.join(run_dir, "out-jobs2"), city_ids))

    traced, trace = traced_child(
        w.backtest_args(data_dir, os.path.join(run_dir, "out-traced"), seed, jobs=1),
        os.path.join(run_dir, "spans-backtest.json"), log)
    checks.append(check_outputs(w, traced.code, os.path.join(run_dir, "out-traced"), city_ids))
    _, sim_trace = traced_child(
        w.simulate_args(os.path.join(run_dir, "data-traced"), seed),
        os.path.join(run_dir, "spans-simulate.json"), log)

    problems = [p for c in checks for p in c.problems]
    if any(c.hashes != checks[0].hashes for c in checks):
        problems.append("outputs differ between untraced, traced and --jobs runs")
    if trace is None or sim_trace is None:
        problems.append(f"traced command failed; see {log}")
    for p in problems:
        print(f"check failed: {p}")
    failed = sum(not c.ok for c in checks)
    if trace is None or sim_trace is None:
        return False, len(checks), failed, {}

    untraced_s = statistics.median(p.wall_s for p in untraced)
    metrics, missing, no_base = layer_metrics(trace, sim_trace, untraced_s, traced.wall_s,
                                              jobs2.wall_s)
    self_sum = sum(s["self_s"] for s in span_stats(trace["spans"]).values())
    print(f"trace: run_id {trace['run_id']}, {len(trace['spans'])} spans, "
          f"sum of self times {self_sum:.3f} s, cli.main {trace['wall_s']:.3f} s, "
          f"traced process {traced.wall_s:.3f} s vs untraced median {untraced_s:.3f} s")
    print("trace aliases: " + json.dumps(trace["aliases"], sort_keys=True))
    if missing:
        print("missing entry points: " + ", ".join(missing))
    if no_base:
        print("no base (placeholder printed): " + ", ".join(no_base))
    return not problems, len(checks), failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="denguegp backtest benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.exists(os.path.join(SRC, "denguegp", "cli.py")):
        print(f"error: no denguegp sources under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    run_dir = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    log = os.path.join(run_dir, "commands.log")
    # run_dir is deleted only after a passing run; otherwise its fixtures,
    # outputs, spans and commands.log stay for inspection
    try:
        print("env: " + json.dumps(environment(w, args.workload, args.seed), sort_keys=True))
        if args.trace:
            correct, attempted, failed, metrics = per_layer(w, args.seed, run_dir, log)
        else:
            correct, attempted, failed, metrics = end_to_end(w, args.seed, args.seconds,
                                                             run_dir, log)
    except BenchError as e:
        with open(log, encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(fh.read()[-4000:])
        print(f"error: {e}; kept {run_dir}", file=sys.stderr)
        return 1
    if correct:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # other runs' directories are still there
    else:
        print(f"check failed: kept {run_dir}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
