"""Command-line interface: config layering, subcommand round-trips, file
formats, exit codes, and run-to-run determinism."""

import concurrent.futures
import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

import denguegp
import denguegp.cli
import denguegp.evaluation
from denguegp.cli import (FORECAST_HEADER, build_parser, main, resolve_config)
from denguegp.data import BUNDLE, DataValidationError, load_dataset, save_dataset
from denguegp.evaluation import CityData, build_design
from denguegp.gp import PredictiveDistribution
from denguegp.hyperopt import MIN_TRAINING_POINTS


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("DENGUEGP_"):
            monkeypatch.delenv(key)


def resolve(argv):
    return resolve_config(build_parser().parse_args(argv))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def copy_bundle(src, dst):
    """Copy the five input CSVs of a fixture into a new directory."""
    dst.mkdir()
    for name in BUNDLE:
        shutil.copy(os.path.join(src, name), dst)
    return dst


def copy_report_inputs(src, dst):
    """Copy summary.json and the forecast CSVs, which report reads."""
    for name in os.listdir(src):
        if name == "summary.json" or name.startswith("forecast_"):
            shutil.copy(os.path.join(src, name), dst / name)


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    """Two seasonal synthetic cities, 150 weeks."""
    d = str(tmp_path_factory.mktemp("sim"))
    assert main(["simulate", "--out-dir", d, "--n-cities", "2",
                 "--weeks", "150", "--variation", "periodic", "--seed", "0"]) == 0
    return d


@pytest.fixture(scope="module")
def backtest_dir(sim_dir, tmp_path_factory):
    """All three models over a short target window."""
    d = str(tmp_path_factory.mktemp("bt"))
    assert main(["backtest", "--data-dir", sim_dir, "--out-dir", d,
                 "--model", "all", "--first-target", "120", "--last-target", "130",
                 "--refit-every", "52", "--restarts", "1", "--seed", "0"]) == 0
    return d


class TestConfigResolution:
    def test_defaults(self):
        cfg = resolve(["ingest"])
        assert cfg.data_dir == "."
        assert cfg.out_dir == "out"
        assert cfg.model == "gp"
        assert cfg.seed == 0
        assert cfg.first_target == 105
        assert cfg.last_target is None
        assert cfg.refit_every == 52

    def test_config_file_beats_defaults(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# comment line\nseed = 7\nout-dir = /tmp/elsewhere\n"
                            "last_target = 150\n")
        cfg = resolve(["ingest", "--config", str(cfg_file)])
        assert cfg.seed == 7
        assert cfg.out_dir == "/tmp/elsewhere"
        assert cfg.last_target == 150

    def test_env_beats_config_file(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed = 7\n")
        monkeypatch.setenv("DENGUEGP_SEED", "9")
        assert resolve(["ingest", "--config", str(cfg_file)]).seed == 9

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("DENGUEGP_SEED", "9")
        assert resolve(["ingest", "--seed", "11"]).seed == 11

    def test_last_target_none_spelling(self, monkeypatch):
        monkeypatch.setenv("DENGUEGP_LAST_TARGET", "none")
        assert resolve(["ingest"]).last_target is None
        monkeypatch.setenv("DENGUEGP_LAST_TARGET", "130")
        assert resolve(["ingest"]).last_target == 130

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("sede = 3\n")
        with pytest.raises(DataValidationError, match="unknown setting 'sede'"):
            resolve(["ingest", "--config", str(cfg_file)])

    def test_malformed_config_line_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed 3\n")
        with pytest.raises(DataValidationError, match="run.cfg:1"):
            resolve(["ingest", "--config", str(cfg_file)])

    def test_bad_model_rejected(self, monkeypatch):
        monkeypatch.setenv("DENGUEGP_MODEL", "glm")
        with pytest.raises(DataValidationError, match="model must be one of"):
            resolve(["ingest"])

    def test_missing_config_file(self):
        with pytest.raises(DataValidationError, match="config file not found"):
            resolve(["ingest", "--config", "/nonexistent/run.cfg"])


class TestSimulate:
    def test_writes_loadable_bundle(self, sim_dir):
        for name in BUNDLE:
            assert os.path.exists(os.path.join(sim_dir, name))
        assert os.path.exists(os.path.join(sim_dir, "synth_spec.json"))

    def test_bundle_round_trips_byte_for_byte(self, sim_dir, tmp_path):
        save_dataset(load_dataset(sim_dir), str(tmp_path / "saved"))
        for name in BUNDLE:
            assert (read_bytes(os.path.join(tmp_path, "saved", name))
                    == read_bytes(os.path.join(sim_dir, name)))

    def test_deterministic_across_runs(self, sim_dir, tmp_path):
        again = str(tmp_path / "again")
        assert main(["simulate", "--out-dir", again, "--n-cities", "2",
                     "--weeks", "150", "--variation", "periodic", "--seed", "0"]) == 0
        for name in ("cases", "climate"):
            assert (read_bytes(os.path.join(again, f"{name}.csv"))
                    == read_bytes(os.path.join(sim_dir, f"{name}.csv")))

    def test_n_cities_honored(self, tmp_path):
        d = str(tmp_path / "one")
        assert main(["simulate", "--out-dir", d, "--n-cities", "1",
                     "--weeks", "80", "--seed", "1"]) == 0
        rows = read_csv(os.path.join(d, "cases.csv"))
        assert {r[0] for r in rows[1:]} == {"C001"}

    def test_too_few_weeks_exits_2(self, tmp_path, capsys):
        d = str(tmp_path / "short")
        assert main(["simulate", "--out-dir", d, "--n-cities", "1",
                     "--weeks", "30", "--seed", "1"]) == 2
        assert "--weeks 30" in capsys.readouterr().err
        assert not os.path.exists(d)

    @pytest.mark.parametrize("flag, value", [("--n-cities", "0"), ("--seed", "-1")])
    def test_invalid_setting_exits_2(self, tmp_path, capsys, flag, value):
        d = str(tmp_path / "bad")
        assert main(["simulate", "--out-dir", d, "--weeks", "80", flag, value]) == 2
        err = capsys.readouterr().err
        assert "bad setting value" in err and f"{flag} {value}" in err
        assert not os.path.exists(d)


class TestIngest:
    def test_summary_output(self, sim_dir, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["ingest", "--data-dir", sim_dir, "--out-dir", out]) == 0
        summary = read_json(os.path.join(out, "dataset_summary.json"))
        assert [c["city_id"] for c in summary["cities"]] == ["C001", "C002"]
        assert summary["weeks"]["count"] == 150
        assert "C001" in capsys.readouterr().out

    def test_broken_csv_exits_2_with_location(self, sim_dir, tmp_path, capsys):
        broken = copy_bundle(sim_dir, tmp_path / "broken")
        lines = (broken / "cases.csv").read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",-5"
        (broken / "cases.csv").write_text("\n".join(lines) + "\n")

        assert main(["ingest", "--data-dir", str(broken),
                     "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "cases.csv:4" in err
        assert "cases must be >= 0" in err

    @pytest.mark.parametrize("name", ["cities.csv", "stations.csv"])
    def test_latitude_out_of_range_exits_2_with_location(self, sim_dir, tmp_path, capsys,
                                                          name):
        broken = copy_bundle(sim_dir, tmp_path / "broken")
        rows = read_csv(broken / name)
        lat = rows[0].index("lat")
        rows[1][lat] = "-95"
        with open(broken / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)

        out = tmp_path / "o"
        assert main(["ingest", "--data-dir", str(broken), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{name}:2: lat must lie in [-90, 90], got -95.0" in err
        assert not out.exists()

    def test_out_dir_that_is_a_file_exits_4(self, sim_dir, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["ingest", "--data-dir", sim_dir, "--out-dir", str(taken)]) == 4
        assert "i/o error: [Errno 17] File exists" in capsys.readouterr().err

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(["ingest", "--data-dir", str(tmp_path / "void"),
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert "file not found" in capsys.readouterr().err


class TestBacktestCommand:
    def test_writes_per_city_per_model_csvs(self, backtest_dir):
        expected = {f"forecast_{c}_{m}.csv"
                    for c in ("C001", "C002") for m in ("gp", "lm", "ar")}
        present = {n for n in os.listdir(backtest_dir) if n.startswith("forecast_")}
        assert present == expected

    def test_forecast_csv_layout(self, backtest_dir):
        rows = read_csv(os.path.join(backtest_dir, "forecast_C001_gp.csv"))
        assert tuple(rows[0]) == FORECAST_HEADER
        assert len(rows) == 1 + 11  # targets 120..130
        assert [r[0] for r in rows[1:]] == [str(t) for t in range(120, 131)]
        assert all(r[6] == "gp" for r in rows[1:])
        gp_row = rows[1]
        assert gp_row[2] != "" and gp_row[3] != ""
        assert float(gp_row[4]) <= float(gp_row[2]) <= float(gp_row[5])

    def test_baseline_rows_have_empty_uncertainty(self, backtest_dir):
        for model in ("lm", "ar"):
            rows = read_csv(os.path.join(backtest_dir, f"forecast_C001_{model}.csv"))
            for r in rows[1:]:
                assert r[3] == "" and r[4] == "" and r[5] == ""
                assert r[6] == model

    def test_summary_contents(self, backtest_dir):
        summary = read_json(os.path.join(backtest_dir, "summary.json"))
        assert summary["models"] == ["ar", "gp", "lm"]
        assert summary["n_cities"] == 2
        assert summary["config"]["first_target"] == 120
        assert summary["config"]["restarts"] == 1
        assert summary["failures"] == {}
        for cid in ("C001", "C002"):
            assert set(summary["cities"][cid]) == {"ar", "gp", "lm"}
            assert summary["cities"][cid]["gp"]["n_rows"] == 11

    def test_single_model_run(self, sim_dir, tmp_path):
        d = str(tmp_path / "ar_only")
        assert main(["backtest", "--data-dir", sim_dir, "--out-dir", d,
                     "--model", "ar", "--first-target", "120",
                     "--last-target", "125", "--seed", "0"]) == 0
        names = [n for n in os.listdir(d) if n.startswith("forecast_")]
        assert sorted(names) == ["forecast_C001_ar.csv", "forecast_C002_ar.csv"]

    def test_parallel_jobs_match_serial(self, sim_dir, tmp_path):
        serial = str(tmp_path / "serial")
        parallel = str(tmp_path / "parallel")
        args = ["backtest", "--data-dir", sim_dir, "--model", "ar",
                "--first-target", "120", "--last-target", "130", "--seed", "0"]
        assert main(args + ["--out-dir", serial, "--jobs", "1"]) == 0
        assert main(args + ["--out-dir", parallel, "--jobs", "2"]) == 0
        for cid in ("C001", "C002"):
            name = f"forecast_{cid}_ar.csv"
            assert (read_bytes(os.path.join(parallel, name))
                    == read_bytes(os.path.join(serial, name)))
        assert (read_bytes(os.path.join(parallel, "summary.json"))
                == read_bytes(os.path.join(serial, "summary.json")))

    @pytest.mark.parametrize("flag, value", [
        ("--horizon", "0"), ("--horizon", "8"), ("--restarts", "0"),
        ("--refit-every", "0"), ("--first-target", "3"), ("--jobs", "0"),
        ("--jobs", "-2"), ("--first-target", "400"), ("--last-target", "300")])
    def test_invalid_setting_exits_2(self, sim_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "x"
        assert main(["backtest", "--data-dir", sim_dir, "--out-dir", str(out),
                     "--model", "lm", flag, value]) == 2
        assert "bad setting value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model, first_target, code", [
        ("lm", "10", 2), ("gp", "40", 2), ("lm", "41", 0), ("ar", "23", 2), ("ar", "24", 0)])
    def test_first_view_must_fit_the_models(self, sim_dir, tmp_path, capsys, model,
                                            first_target, code):
        # gp and lm need a 37-week view for lag selection, ar a 20-week
        # view for the outlier screen; the view ends 4 weeks before the target
        out = tmp_path / "x"
        last_target = str(int(first_target) + 2)
        assert main(["backtest", "--data-dir", sim_dir, "--out-dir", str(out),
                     "--model", model, "--restarts", "1", "--first-target", first_target,
                     "--last-target", last_target]) == code
        if code == 2:
            assert "bad setting value" in capsys.readouterr().err
            assert not out.exists()

    def test_short_gp_designs_are_gaps(self, tmp_path):
        # designs under 30 rows cannot be optimized: those weeks are gaps,
        # and the city goes on once the design is long enough
        data, out = str(tmp_path / "d"), str(tmp_path / "o")
        assert main(["simulate", "--out-dir", data, "--n-cities", "2",
                     "--weeks", "150", "--seed", "0"]) == 0
        assert main(["backtest", "--data-dir", data, "--out-dir", out, "--model", "gp",
                     "--restarts", "1", "--first-target", "45", "--last-target", "75"]) == 0
        assert read_json(os.path.join(out, "summary.json"))["failures"] == {}
        ds = load_dataset(data)
        for cid in ("C001", "C002"):
            city = CityData.from_dataset(ds, cid)
            rows = read_csv(os.path.join(out, f"forecast_{cid}_gp.csv"))[1:]
            gaps = [int(r[0]) for r in rows if r[2] == ""]
            assert 0 < len(gaps) < len(rows)
            for t in gaps:
                weeks, _, _, _ = build_design([city.training_view(t - 4)])[0]
                assert weeks.size < MIN_TRAINING_POINTS

    def test_failing_city_is_isolated(self, sim_dir, tmp_path, monkeypatch):
        real = denguegp.cli.run_backtest

        def fail_c001(city, *args):
            if city.city_id == "C001":
                raise RuntimeError("injected")
            return real(city, *args)

        monkeypatch.setattr(denguegp.cli, "run_backtest", fail_c001)
        out = str(tmp_path / "o")
        assert main(["backtest", "--data-dir", sim_dir, "--out-dir", out, "--model", "ar",
                     "--jobs", "1", "--first-target", "120", "--last-target", "125"]) == 0
        assert read_json(os.path.join(out, "summary.json"))["failures"]["C001"].startswith(
            "RuntimeError: ")
        names = os.listdir(out)
        assert not any(n.startswith("forecast_C001_") for n in names)
        assert "forecast_C002_ar.csv" in names

    def test_every_city_failing_exits_3(self, sim_dir, tmp_path, monkeypatch, capsys):
        def fail(*args):
            raise RuntimeError("injected")

        monkeypatch.setattr(denguegp.cli, "run_backtest", fail)
        assert main(["backtest", "--data-dir", sim_dir, "--out-dir", str(tmp_path / "o"),
                     "--model", "ar", "--jobs", "1", "--first-target", "120",
                     "--last-target", "125"]) == 3
        assert "backtest failed for every city" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["backtest", "train"])
    def test_negative_seed_exits_2(self, sim_dir, tmp_path, capsys, command):
        out = tmp_path / "x"
        argv = [command, "--data-dir", sim_dir, "--out-dir", str(out), "--seed", "-1",
                "--restarts", "1"]
        argv += (["--model", "gp", "--first-target", "120", "--last-target", "121"]
                 if command == "backtest" else ["--city", "C001"])
        assert main(argv) == 2
        assert "bad setting value: seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_city_seed_ignores_the_population_filter(self, tmp_path):
        # C001 (population 150000) is dropped by the filter; C002 keeps
        # its place in the sorted list and so its seed.  On this fixture
        # C002's optimum moves in its last digits with the seed.
        data = str(tmp_path / "d")
        assert main(["simulate", "--out-dir", data, "--n-cities", "2",
                     "--weeks", "120", "--seed", "0"]) == 0
        args = ["backtest", "--data-dir", data, "--model", "gp", "--restarts", "3",
                "--first-target", "100", "--last-target", "101", "--seed", "0"]
        both, c002 = str(tmp_path / "both"), str(tmp_path / "c002")
        assert main(args + ["--out-dir", both]) == 0
        assert main(args + ["--out-dir", c002, "--min-population", "180000"]) == 0
        assert not os.path.exists(os.path.join(c002, "forecast_C001_gp.csv"))
        assert (read_bytes(os.path.join(c002, "forecast_C002_gp.csv"))
                == read_bytes(os.path.join(both, "forecast_C002_gp.csv")))

    @pytest.mark.parametrize("jobs, min_population, workers", [
        ("64", "0", [2]), ("2", "180000", [])])
    def test_jobs_capped_at_the_number_of_cities(self, sim_dir, tmp_path, monkeypatch,
                                                 jobs, min_population, workers):
        started = []

        class RecordingPool:
            """Runs in this process; records the pool size asked for."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        assert main(["backtest", "--data-dir", sim_dir, "--out-dir", str(tmp_path / "o"),
                     "--model", "ar", "--first-target", "120", "--last-target", "121",
                     "--jobs", jobs, "--min-population", min_population]) == 0
        assert started == workers

    def test_min_population_filter_can_exclude_everything(self, sim_dir, tmp_path, capsys):
        assert main(["backtest", "--data-dir", sim_dir,
                     "--out-dir", str(tmp_path / "x"),
                     "--min-population", "99999999"]) == 2
        assert "population" in capsys.readouterr().err


class TestReportCommand:
    def test_plot_ready_files(self, backtest_dir):
        assert main(["report", "--out-dir", backtest_dir]) == 0

        scatter = read_csv(os.path.join(backtest_dir, "scatter.csv"))
        assert scatter[0] == ["metric", "model_a", "model_b", "city_id",
                              "value_a", "value_b"]
        pairs = {(r[1], r[2]) for r in scatter[1:]}
        assert pairs <= {("ar", "gp"), ("ar", "lm"), ("gp", "lm")}
        pearson_rows = [r for r in scatter[1:] if r[0] == "pearson"]
        assert len(pearson_rows) == 6  # 3 model pairs x 2 cities

        boxplot = read_csv(os.path.join(backtest_dir, "boxplot.csv"))
        assert boxplot[0] == ["region", "model", "metric", "q1", "median", "q3", "n"]
        regions = {r[0] for r in boxplot[1:]}
        assert "all" in regions

        summary = read_json(os.path.join(backtest_dir, "summary.json"))
        row = next(r for r in boxplot[1:]
                   if r[0] == "all" and r[1] == "gp" and r[2] == "pearson")
        assert float(row[4]) == summary["overall"]["gp"]["pearson"]["median"]
        assert int(row[6]) == summary["overall"]["gp"]["pearson"]["n"]

    def test_trajectories_mirror_forecasts(self, backtest_dir):
        main(["report", "--out-dir", backtest_dir])
        for model in ("gp", "ar"):
            src = read_csv(os.path.join(backtest_dir, f"forecast_C001_{model}.csv"))
            got = read_csv(os.path.join(backtest_dir, f"trajectory_C001_{model}.csv"))
            assert got[0] == ["target_week", "actual_dir", "predicted_dir",
                              "lower95", "upper95"]
            assert len(got) == len(src)
            for src_row, got_row in zip(src[1:], got[1:]):
                assert got_row == [src_row[0], src_row[1], src_row[2],
                                   src_row[4], src_row[5]]

    def test_report_before_backtest_exits_2(self, tmp_path, capsys):
        assert main(["report", "--out-dir", str(tmp_path / "empty")]) == 2
        assert "backtest" in capsys.readouterr().err

    @pytest.mark.parametrize("broken", ["not json", "no overall"])
    def test_broken_summary_exits_2(self, backtest_dir, tmp_path, capsys, broken):
        summary = read_json(os.path.join(backtest_dir, "summary.json"))
        del summary["overall"]
        (tmp_path / "summary.json").write_text(
            "{not json" if broken == "not json" else json.dumps(summary))
        assert main(["report", "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "summary.json: " in err
        assert ("not valid JSON" if broken == "not json" else "KeyError 'overall'") in err
        assert os.listdir(tmp_path) == ["summary.json"]


    def test_short_forecast_row_exits_2_and_writes_nothing(self, backtest_dir, tmp_path,
                                                           capsys):
        copy_report_inputs(backtest_dir, tmp_path)
        header = ",".join(read_csv(os.path.join(backtest_dir, "forecast_C001_gp.csv"))[0])
        (tmp_path / "forecast_C001_gp.csv").write_text(header + "\n105,1.0\n")
        before = sorted(os.listdir(tmp_path))
        assert main(["report", "--out-dir", str(tmp_path)]) == 2
        assert "forecast_C001_gp.csv:2: expected 7 fields, found 2" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before

    def test_blank_forecast_rows_are_skipped(self, backtest_dir, tmp_path):
        plain, blank = tmp_path / "plain", tmp_path / "blank"
        for d in (plain, blank):
            d.mkdir()
            copy_report_inputs(backtest_dir, d)
        with open(blank / "forecast_C001_gp.csv", "a", newline="", encoding="utf-8") as fh:
            fh.write("\r\n")
        for d in (plain, blank):
            assert main(["report", "--out-dir", str(d)]) == 0
        for name in os.listdir(plain):
            if not name.startswith("forecast_"):
                assert read_bytes(blank / name) == read_bytes(plain / name), name

    @pytest.mark.parametrize("broken", ["missing", "foreign header"])
    def test_unreadable_listed_forecast_exits_2_and_writes_nothing(self, backtest_dir,
                                                                   tmp_path, capsys, broken):
        copy_report_inputs(backtest_dir, tmp_path)
        listed = tmp_path / "forecast_C002_ar.csv"
        if broken == "missing":
            listed.unlink()
        else:
            listed.write_text("week,value\n105,1.0\n")
        before = sorted(os.listdir(tmp_path))
        assert main(["report", "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "forecast_C002_ar.csv" in err
        assert ("not found" if broken == "missing" else "expected header") in err
        assert sorted(os.listdir(tmp_path)) == before

    def test_covers_only_the_cities_in_the_summary(self, sim_dir, tmp_path, capsys):
        # the second backtest keeps C002 alone; C001's forecast stays behind
        out = str(tmp_path)
        for extra in ([], ["--min-population", "200000"]):
            assert main(["backtest", "--data-dir", sim_dir, "--out-dir", out, "--model", "lm",
                         "--first-target", "120", "--last-target", "130"] + extra) == 0
        assert main(["report", "--out-dir", out]) == 0
        assert "and 1 trajectory files" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out, "trajectory_C002_lm.csv"))
        assert not os.path.exists(os.path.join(out, "trajectory_C001_lm.csv"))


@pytest.fixture(scope="module")
def trained_dir(sim_dir, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("trained"))
    assert main(["train", "--data-dir", sim_dir, "--out-dir", d,
                 "--city", "C001", "--restarts", "1", "--seed", "0"]) == 0
    return d


class TestTrainForecast:
    def test_model_file_contents(self, trained_dir):
        payload = read_json(os.path.join(trained_dir, "model_C001.json"))
        assert payload["city_id"] == "C001"
        assert payload["training_end_week"] == 150
        assert len(payload["hyperparameters"]) == 10
        assert all(v > 0 for v in payload["hyperparameters"].values())
        assert len(payload["transform"]["lags"]) == 3
        diag = read_json(os.path.join(trained_dir, "train_diagnostics_C001.json"))
        assert diag["restarts"][0]["selected"] is True
        assert diag["restarts"][0]["evaluations"] > diag["restarts"][0]["iterations"]

    def test_train_is_deterministic(self, sim_dir, trained_dir, tmp_path):
        again = str(tmp_path / "again")
        assert main(["train", "--data-dir", sim_dir, "--out-dir", again,
                     "--city", "C001", "--restarts", "1", "--seed", "0"]) == 0
        assert (read_bytes(os.path.join(again, "model_C001.json"))
                == read_bytes(os.path.join(trained_dir, "model_C001.json")))

    def test_forecast_from_saved_model(self, sim_dir, trained_dir):
        assert main(["forecast", "--data-dir", sim_dir, "--out-dir", trained_dir,
                     "--city", "C001"]) == 0
        rows = read_csv(os.path.join(trained_dir, "prediction_C001.csv"))
        assert tuple(rows[0]) == FORECAST_HEADER
        assert [r[0] for r in rows[1:]] == ["151", "152", "153", "154"]
        for r in rows[1:]:
            assert r[1] == ""  # beyond the observed series
            assert float(r[2]) >= 0.0
            assert r[6] == "gp"

    def test_saved_model_with_a_linear_bias_forecasts_without_it(self, sim_dir, trained_dir,
                                                                 tmp_path):
        # a model file from before the linear kernel lost its constant bias
        # carries an eleventh key, sigma_lin_sq; loading reads PARAM_NAMES only
        payload = read_json(os.path.join(trained_dir, "model_C001.json"))
        old = dict(payload, hyperparameters=dict(payload["hyperparameters"], sigma_lin_sq=0.5))
        for name, saved in (("current", payload), ("old", old)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "model_C001.json").write_text(json.dumps(saved))
            assert main(["forecast", "--data-dir", sim_dir, "--out-dir", str(tmp_path / name),
                         "--city", "C001"]) == 0
        assert (read_bytes(tmp_path / "old" / "prediction_C001.csv")
                == read_bytes(tmp_path / "current" / "prediction_C001.csv"))

    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_forecast_nonpositive_horizon_exits_2(self, sim_dir, trained_dir, tmp_path,
                                                  capsys, horizon):
        out = tmp_path / "f"
        out.mkdir()
        shutil.copy(os.path.join(trained_dir, "model_C001.json"), out)
        assert main(["forecast", "--data-dir", sim_dir, "--out-dir", str(out),
                     "--city", "C001", "--horizon", horizon]) == 2
        assert "bad setting value" in capsys.readouterr().err
        assert not (out / "prediction_C001.csv").exists()

    def test_forecast_past_the_shortest_lag_exits_2(self, sim_dir, trained_dir, tmp_path,
                                                    capsys):
        lags = read_json(os.path.join(trained_dir, "model_C001.json"))["transform"]["lags"]
        out = tmp_path / "f"
        out.mkdir()
        shutil.copy(os.path.join(trained_dir, "model_C001.json"), out)
        assert main(["forecast", "--data-dir", sim_dir, "--out-dir", str(out),
                     "--city", "C001", "--horizon", str(min(lags) + 1)]) == 2
        err = capsys.readouterr().err
        assert "bad setting value" in err and "outside the view" in err
        assert os.listdir(out) == ["model_C001.json"]

    def test_overflowing_forecast_exits_3(self, sim_dir, trained_dir, tmp_path, capsys,
                                          monkeypatch):
        shutil.copy(os.path.join(trained_dir, "model_C001.json"), tmp_path)
        monkeypatch.setattr(denguegp.evaluation, "predict",
                            lambda model, week, x: PredictiveDistribution(1e6, 0.01))
        assert main(["forecast", "--data-dir", sim_dir, "--out-dir", str(tmp_path),
                     "--city", "C001"]) == 3
        assert "overflows" in capsys.readouterr().err
        assert not (tmp_path / "prediction_C001.csv").exists()

    @staticmethod
    def forecast_with_edited_model(sim_dir, trained_dir, out, **hyperparameters):
        """forecast in a fresh process, which warnings do not stop, on a
        copy of the saved model with some hyperparameters replaced."""
        payload = read_json(os.path.join(trained_dir, "model_C001.json"))
        payload["hyperparameters"].update(hyperparameters)
        with open(out / "model_C001.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        src = os.path.dirname(os.path.dirname(os.path.abspath(denguegp.__file__)))
        return subprocess.run([sys.executable, "-m", "denguegp.cli", "forecast",
                               "--data-dir", sim_dir, "--out-dir", str(out), "--city", "C001"],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, timeout=60)

    def test_unfactorizable_saved_model_exits_3(self, sim_dir, trained_dir, tmp_path):
        # every Gram entry is subnormal, so the factorization fails and the
        # first jitter underflows to 0
        done = self.forecast_with_edited_model(
            sim_dir, trained_dir, tmp_path, sigma_loc_sq=5e-324, ell_loc=300.0,
            sigma_qp_sq=5e-324, ell_qp=300.0, ell_rain=1e300,
            ell_temp=1e300, ell_hum=1e300, sigma_noise_sq=0.0)
        assert done.returncode == 3
        assert "model error: Cholesky factorization failed" in done.stderr
        assert os.listdir(tmp_path) == ["model_C001.json"]

    def test_overflowing_saved_model_exits_2(self, sim_dir, trained_dir, tmp_path):
        done = self.forecast_with_edited_model(sim_dir, trained_dir, tmp_path,
                                               sigma_loc_sq=1e308, sigma_qp_sq=1e308)
        assert done.returncode == 2
        assert "error: model_C001.json: invalid saved model" in done.stderr
        assert len(done.stderr.splitlines()) == 1
        assert "RuntimeWarning" not in done.stderr
        assert "Traceback" not in done.stderr
        assert os.listdir(tmp_path) == ["model_C001.json"]

    def test_forecast_without_model_exits_2(self, sim_dir, tmp_path, capsys):
        assert main(["forecast", "--data-dir", sim_dir,
                     "--out-dir", str(tmp_path / "nomodel"), "--city", "C001"]) == 2
        assert "train" in capsys.readouterr().err

    def test_train_needs_city(self, sim_dir, tmp_path, capsys):
        assert main(["train", "--data-dir", sim_dir,
                     "--out-dir", str(tmp_path / "x")]) == 2
        assert "--city" in capsys.readouterr().err

    def test_train_on_fewer_than_104_weeks_exits_2(self, tmp_path, capsys):
        data, out = str(tmp_path / "d"), tmp_path / "o"
        assert main(["simulate", "--out-dir", data, "--n-cities", "1",
                     "--weeks", "103", "--seed", "0"]) == 0
        assert main(["train", "--data-dir", data, "--out-dir", str(out),
                     "--city", "C001", "--restarts", "1"]) == 2
        assert "need at least 104 training weeks, have 103" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_restarts_exits_2(self, sim_dir, tmp_path, capsys):
        assert main(["train", "--data-dir", sim_dir, "--out-dir", str(tmp_path / "x"),
                     "--city", "C001", "--restarts", "0"]) == 2
        assert "restarts" in capsys.readouterr().err

    def test_constant_climate_column_exits_2(self, sim_dir, tmp_path, capsys):
        data = copy_bundle(sim_dir, tmp_path / "flat")
        rows = read_csv(data / "climate.csv")
        with open(data / "climate.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([rows[0]] + [r[:4] + ["70"] for r in rows[1:]])
        assert main(["train", "--data-dir", str(data), "--out-dir", str(tmp_path / "x"),
                     "--city", "C001", "--restarts", "1"]) == 2
        err = capsys.readouterr().err
        assert "climate.csv" in err and "zero-variance" in err and "humidity_pct" in err

    @pytest.mark.parametrize("lags", [[2, 5, 6], None])
    def test_invalid_saved_model_exits_2(self, sim_dir, trained_dir, tmp_path, capsys,
                                         lags):
        payload = read_json(os.path.join(trained_dir, "model_C001.json"))
        if lags is None:
            del payload["transform"]["lags"]
        else:
            payload["transform"]["lags"] = lags
        (tmp_path / "model_C001.json").write_text(json.dumps(payload))
        assert main(["forecast", "--data-dir", sim_dir, "--out-dir", str(tmp_path),
                     "--city", "C001"]) == 2
        assert "model_C001.json" in capsys.readouterr().err
        assert not (tmp_path / "prediction_C001.csv").exists()

    def test_saved_model_that_is_not_json_exits_2(self, sim_dir, tmp_path, capsys):
        (tmp_path / "model_C001.json").write_text('{"city_id": "C001", ')
        assert main(["forecast", "--data-dir", sim_dir, "--out-dir", str(tmp_path),
                     "--city", "C001"]) == 2
        assert "model_C001.json: not valid JSON" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["model_C001.json"]

    def test_forecast_after_data_edit_exits_2(self, sim_dir, trained_dir, tmp_path,
                                              capsys):
        # the transform is re-derived from the data, not reloaded, so an
        # edit before the training end must not pass silently
        data = copy_bundle(sim_dir, tmp_path / "edited")
        rows = read_csv(data / "cases.csv")
        row = next(r for r in rows if r[:2] == ["C001", "100"])
        row[2] = str(int(row[2]) * 3 + 7)
        with open(data / "cases.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        out = tmp_path / "f"
        out.mkdir()
        shutil.copy(os.path.join(trained_dir, "model_C001.json"), out)
        assert main(["forecast", "--data-dir", str(data), "--out-dir", str(out),
                     "--city", "C001"]) == 2
        assert "model_C001.json" in capsys.readouterr().err
        assert not (out / "prediction_C001.csv").exists()

    def test_unknown_city_exits_2(self, sim_dir, tmp_path, capsys):
        assert main(["train", "--data-dir", sim_dir,
                     "--out-dir", str(tmp_path / "x"), "--city", "zzz"]) == 2
        assert "unknown city" in capsys.readouterr().err


def test_cli_import_leaves_optimizer_unloaded():
    # commands that never optimize (simulate, ingest, lm/ar backtests)
    # should not pay for importing any of scipy at start-up
    src = os.path.dirname(os.path.dirname(os.path.abspath(denguegp.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, denguegp.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("command, gp_fit", [
    (["ingest"], False),
    (["backtest", "--model", "lm"], False),
    (["backtest", "--model", "ar"], False),
    (["backtest", "--model", "gp", "--restarts", "1"], True)])
def test_commands_that_fit_no_gp_leave_scipy_unloaded(sim_dir, tmp_path, command, gp_fit):
    # a GP fit loads scipy's two compiled modules and none of its
    # packages, on the first factorization, so after the CLI has set the
    # BLAS thread variable; with no user setting that is one thread.  Run
    # from the caller's environment, so that CI checks this path at the
    # CLI's own default too.
    src = os.path.dirname(os.path.dirname(os.path.abspath(denguegp.__file__)))
    argv = command + ["--data-dir", sim_dir, "--out-dir", str(tmp_path)]
    if command[0] == "backtest":
        argv += ["--first-target", "120", "--last-target", "124"]
    code = ("import json, os, sys; from denguegp.cli import main; code = main(sys.argv[1:]); "
            "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "os.environ.get('OPENBLAS_NUM_THREADS')]))")
    out = subprocess.run([sys.executable, "-c", code, *argv],
                         env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True, timeout=120)
    exit_code, loaded, threads = json.loads(out.stdout.splitlines()[-1])
    assert exit_code == 0
    assert loaded == (["scipy.linalg._flapack", "scipy.optimize._lbfgsb"] if gp_fit else [])
    user_set = any(v in os.environ for v in BLAS_THREAD_VARIABLES)
    assert threads == (os.environ.get("OPENBLAS_NUM_THREADS") if user_set else "1")


def test_one_worker_backtest_leaves_pool_and_masked_arrays_unloaded(sim_dir, tmp_path):
    # --jobs 1 starts no pool, and the summary's quartiles need no numpy.ma
    src = os.path.dirname(os.path.dirname(os.path.abspath(denguegp.__file__)))
    argv = ["backtest", "--data-dir", sim_dir, "--out-dir", str(tmp_path), "--model", "all",
            "--restarts", "1", "--jobs", "1", "--first-target", "120", "--last-target", "124"]
    unwanted = ("multiprocessing", "concurrent.futures.process", "numpy.ma")
    code = ("import json, sys; from denguegp.cli import main; code = main(sys.argv[1:]); "
            f"print(json.dumps([code, [m for m in {unwanted!r} if m in sys.modules]]))")
    out = subprocess.run([sys.executable, "-c", code, *argv],
                         env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True, timeout=120)
    assert json.loads(out.stdout.splitlines()[-1]) == [0, []]


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def thread_free_env(**settings):
    """This environment with no BLAS thread variable but the given ones."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(denguegp.__file__)))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    return dict(env, PYTHONPATH=src, **settings)


@pytest.mark.parametrize("settings", [
    {}, {"OPENBLAS_NUM_THREADS": "2"}, {"GOTO_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}])
def test_cli_import_sets_one_blas_thread_unless_the_user_did(settings):
    code = ("import json, os, denguegp.cli; "
            f"print(json.dumps({{k: os.environ.get(k) for k in {BLAS_THREAD_VARIABLES!r}}}))")
    out = subprocess.run([sys.executable, "-c", code], env=thread_free_env(**settings),
                         check=True, capture_output=True, text=True, timeout=60)
    expected = dict.fromkeys(BLAS_THREAD_VARIABLES)
    expected.update(settings or {"OPENBLAS_NUM_THREADS": "1"})
    assert json.loads(out.stdout) == expected


def test_default_thread_setting_gives_identical_bytes_under_jobs(sim_dir, tmp_path):
    # the GP's last digits depend on the BLAS thread count, so this holds
    # only because every process of a run uses the same count
    outputs = {}
    for jobs in ("1", "2"):
        out = str(tmp_path / f"jobs{jobs}")
        subprocess.run([sys.executable, "-m", "denguegp.cli", "backtest",
                        "--data-dir", sim_dir, "--out-dir", out, "--model", "all",
                        "--first-target", "120", "--last-target", "130",
                        "--restarts", "1", "--seed", "0", "--jobs", jobs],
                       env=thread_free_env(), check=True, capture_output=True, timeout=300)
        outputs[jobs] = {n: read_bytes(os.path.join(out, n)) for n in sorted(os.listdir(out))
                         if n.startswith("forecast_") or n == "summary.json"}
    assert len(outputs["1"]) == 7
    assert outputs["2"] == outputs["1"]
