"""Fast self-test of the benchmark harness on a tiny fixture.

    python3 perfbench/selftest.py

Runs perfbench/run.py on the "tiny" workload (2 cities x 120 weeks,
10 targets) with --trace 0 and --trace 1 and checks that every metric
named in BENCHMARK.json is printed with its unit, that the output checks
passed, and that the tracer found every entry point it wraps.  Takes
about 20 seconds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", "tiny",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise AssertionError(f"--trace {trace} exited {out.returncode}:\n"
                             f"{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(result: dict, declared: list, trace: int) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"--trace {trace}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"--trace {trace}: correct={result['correct']} "
                        f"attempted={result['attempted']} failed={result['failed']}")
    metrics = result["metrics"]
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"--trace {trace}: {m['name']} not printed")
        elif got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"--trace {trace}: {m['name']} printed as {got}")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append(f"--trace {trace}: undeclared metrics {sorted(extra)}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check(run(0), spec["end_to_end"], 0)
    traced = run(1)
    problems += check(traced, spec["per_layer"], 1)
    missing = traced["metrics"].get("trace.missing_entry_points", {}).get("value")
    if missing != 0:
        problems.append(f"tracer missed {missing} entry points")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
