"""The two fast demos run end to end against the current API."""

import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "demos")

# a line each demo prints only after its last library call succeeded
EXPECTED = {
    "01_kernel_anatomy.py": "composite_kernel(week 10, week 62) = ",
    "02_fit_and_forecast.py": "Four-week-ahead forecasts (DIR per 100k):",
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs(name, capsys):
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    assert EXPECTED[name] in capsys.readouterr().out
