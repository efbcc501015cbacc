"""Run one denguegp command in-process with spans around each layer.

    python3 perfbench/tracer.py --out spans.json -- backtest --data-dir d ...

The program is not modified.  Before calling ``denguegp.cli.main`` the
tracer replaces each entry point in ENTRY_POINTS with a wrapper, on
every name a caller looks it up by: the defining module, every
``denguegp`` module that imported it (``from .gp import fit``) and
module-level dicts that hold it (``cli._COMMANDS``).  Each call records
a span (id, parent id, name, start, end, pid, attributes) in memory;
the spans are written to ``--out`` under one run id when the command
returns.

Spans are recorded in this process only, so trace with ``--jobs 1``:
pool workers would inherit the wrappers but their spans are not
collected.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import os
import sys
import time
import uuid

# (span name, defining module, attribute).  A name that is not found
# is reported under "missing" rather than silently counting zero calls.
ENTRY_POINTS = (
    ("cli.main", "denguegp.cli", "main"),
    ("cli.backtest", "denguegp.cli", "cmd_backtest"),
    ("cli.simulate", "denguegp.cli", "cmd_simulate"),
    ("data.load_dataset", "denguegp.data", "load_dataset"),
    ("synth.make_multi_city_fixture", "denguegp.synth", "make_multi_city_fixture"),
    ("evaluation.run_backtest", "denguegp.evaluation", "run_backtest"),
    ("evaluation.build_design", "denguegp.evaluation", "build_design"),
    ("evaluation.aggregate_reports", "denguegp.evaluation", "aggregate_reports"),
    ("preprocess.remove_additive_outliers", "denguegp.preprocess",
     "remove_additive_outliers"),
    ("preprocess.select_lag", "denguegp.preprocess", "select_lag"),
    ("baselines.lm_fit", "denguegp.baselines", "lm_fit"),
    ("baselines.ar_fit", "denguegp.baselines", "ar_fit"),
    ("hyperopt.optimize", "denguegp.hyperopt", "optimize"),
    ("gp.lml_value_and_gradient", "denguegp.gp", "lml_value_and_gradient"),
    ("gp.fit", "denguegp.gp", "fit"),
    ("gp.predict", "denguegp.gp", "predict"),
    ("kernels.gram_from_arrays", "denguegp.kernels", "gram_from_arrays"),
    ("kernels.gram_gradients", "denguegp.kernels", "gram_gradients"),
)

_MAXITER_MESSAGE = "ITERATIONS REACHED LIMIT"


def _run_backtest_name(args, kwargs):
    model = kwargs.get("model", args[1] if len(args) > 1 else "?")
    return f"evaluation.run_backtest.{model}"


def _optimize_attrs(result):
    records = result[2]["restarts"]
    return {"restarts": len(records),
            "iterations": sum(r["iterations"] for r in records),
            "failed_restarts": sum(bool(r["failed"]) for r in records),
            "maxiter_stops": sum(_MAXITER_MESSAGE in r["termination"].upper()
                                 for r in records)}


def _lml_attrs(result):
    value, grad = result
    finite = math.isfinite(value) and all(math.isfinite(g) for g in grad)
    return {"finite": finite}


# span name -> function of the return value giving span attributes
_RESULT_ATTRS = {
    "hyperopt.optimize": _optimize_attrs,
    "gp.lml_value_and_gradient": _lml_attrs,
    "gp.fit": lambda model: {"jittered": model.jitter > 0},
}


class Tracer:
    """In-memory span recorder shared by every wrapper in one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans = []  # [id, parent, name, start, end, pid, attrs]
        self.stack = []
        self.next_id = 0
        self.missing = []
        self.aliases = {}

    def wrap(self, name: str, original):
        by_model = name == "evaluation.run_backtest"
        result_attrs = _RESULT_ATTRS.get(name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            pid = os.getpid()
            span_id = f"{pid}:{tracer.next_id}"
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(span_id)
            attrs = {}
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as e:
                attrs["error"] = type(e).__name__
                raise
            else:
                if result_attrs is not None:
                    attrs.update(result_attrs(result))
                return result
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                span_name = _run_backtest_name(args, kwargs) if by_model else name
                tracer.spans.append([span_id, parent, span_name, start, end, pid, attrs])

        return wrapper

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "denguegp" or n.startswith("denguegp."))]
        for name, module_name, attr in ENTRY_POINTS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            count = 0
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        count += 1
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
                                count += 1
            self.aliases[name] = count

    def write(self, path: str, exit_code: int, wall_s: float):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "pid": self.pid, "exit_code": exit_code,
                       "wall_s": wall_s, "missing": self.missing,
                       "aliases": self.aliases, "spans": self.spans}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the spans")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="denguegp arguments, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    import denguegp
    for info in sorted(os.listdir(os.path.dirname(denguegp.__file__))):
        if info.endswith(".py") and info != "__init__.py":
            importlib.import_module(f"denguegp.{info[:-3]}")

    tracer = Tracer(uuid.uuid4().hex)
    tracer.install()
    cli = sys.modules["denguegp.cli"]
    start = time.perf_counter()
    code = cli.main(command)
    tracer.write(args.out, code, time.perf_counter() - start)
    return code


if __name__ == "__main__":
    sys.exit(main())
