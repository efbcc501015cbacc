"""The four demos and the README's Python examples run end to end
against the current API."""

import os
import re
import runpy

import pytest

from denguegp.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEMOS = os.path.join(ROOT, "demos")

# a line each demo prints only after its last library call succeeded
EXPECTED = {
    "01_kernel_anatomy.py": "composite_kernel(week 10, week 62) = ",
    "02_fit_and_forecast.py": "Four-week-ahead forecasts (DIR per 100k):",
    "03_backtest_protocol.py": "The AR(1) baseline only extrapolates the last 12 weeks",
    "04_hyperparameter_recovery.py": "Control: optimizing the same values in shuffled",
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs(name, capsys):
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    assert EXPECTED[name] in capsys.readouterr().out


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    # the blocks share one namespace and read the fixture from data/
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.S | re.M)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--out-dir", "data", "--n-cities", "1", "--seed", "0"]) == 0
    capsys.readouterr()
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    assert namespace["gp"].n_failed == 0
