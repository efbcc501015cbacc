"""CSV ingestion, validation, the in-memory data model, and station
assignment geometry."""

import csv
import math
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from denguegp.data import (EARTH_RADIUS_KM, CityRecord, DataValidationError,
                           Dataset, StationRecord, WeeklySeries, compute_dir,
                           haversine_km, load_dataset, nearest_station,
                           save_dataset)


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def case_rows(city_id, values, start_week=1):
    return [(city_id, start_week + i, v) for i, v in enumerate(values)]


def climate_rows(station_id, n_weeks, start_week=1, base=10.0):
    return [(station_id, start_week + i, base + i, 24.0 + 0.1 * i, 70.0)
            for i in range(n_weeks)]


def write_fixture(tmp_path, cases=None, population=None, climate=None,
                  stations=None, cities=None):
    """Two cities, two stations, twelve weeks unless overridden."""
    if cases is None:
        cases = case_rows("c1", range(12)) + case_rows("c2", range(10, 22))
    if population is None:
        population = [("c1", 100000), ("c2", 200000)]
    if climate is None:
        climate = climate_rows("s1", 12) + climate_rows("s2", 12, base=50.0)
    if stations is None:
        stations = [("s1", -23.1, -46.1), ("s2", -3.05, -60.02)]
    if cities is None:
        cities = [("c1", "Alpha", "Southeast", -23.0, -46.0),
                  ("c2", "Beta", "North", -3.0, -60.0)]
    write_csv(tmp_path / "cases.csv", ("city_id", "week", "cases"), cases)
    write_csv(tmp_path / "population.csv", ("city_id", "population"), population)
    write_csv(tmp_path / "climate.csv",
              ("station_id", "week", "rainfall_mm", "temperature_c", "humidity_pct"), climate)
    write_csv(tmp_path / "stations.csv", ("station_id", "lat", "lon"), stations)
    write_csv(tmp_path / "cities.csv", ("city_id", "name", "region", "lat", "lon"), cities)
    return str(tmp_path)


def set_cell(row, column, text):
    """A REJECTIONS edit: cell `column` of data row `row` becomes `text`."""
    def edit(rows):
        rows[row][column] = text
        return rows
    return edit


# one fault each against write_fixture's bundle: (file, edit of its data rows,
# or None for an empty file; the start of the message)
REJECTIONS = [
    pytest.param("cases.csv", None, "cases.csv:1: empty file", id="empty file"),
    pytest.param("cities.csv", lambda rows: [rows[0], rows[1][:4]],
                 "cities.csv:3: expected 5 fields, found 4", id="short row"),
    pytest.param("population.csv", lambda rows: [rows[0], [], ["c2", "0"]],
                 "population.csv:4: population must be >= 1", id="blank row counts as a line"),
    pytest.param("population.csv", set_cell(1, 1, "many"),
                 "population.csv:3: population must be an integer, got 'many'",
                 id="not an integer"),
    pytest.param("climate.csv", set_cell(3, 3, "warm"),
                 "climate.csv:5: temperature_c must be a number, got 'warm'", id="not a number"),
    pytest.param("stations.csv", set_cell(0, 1, "inf"),
                 "stations.csv:2: lat must be finite", id="infinite coordinate"),
    pytest.param("climate.csv", set_cell(1, 2, "nan"),
                 "climate.csv:3: rainfall_mm must be finite", id="nan climate cell"),
    pytest.param("cities.csv", lambda rows: rows + [rows[0]],
                 "cities.csv:4: duplicate city 'c1'", id="duplicate city"),
    pytest.param("population.csv", lambda rows: rows + [rows[1]],
                 "population.csv:4: duplicate city 'c2'", id="duplicate population"),
    pytest.param("population.csv", lambda rows: rows + [["C099", "123456"]],
                 "population.csv:4: population for unknown city 'C099'",
                 id="population for unknown city"),
    pytest.param("population.csv", set_cell(0, 1, "0"),
                 "population.csv:2: population must be >= 1", id="population below 1"),
    pytest.param("cases.csv", set_cell(0, 1, "0"),
                 "cases.csv:2: week must be >= 1", id="case week below 1"),
    pytest.param("cases.csv", lambda rows: rows[:3] + [["zz", "1", "5"]] + rows[3:],
                 "cases.csv:5: case rows for unknown city 'zz'", id="case rows for unknown city"),
    pytest.param("stations.csv", lambda rows: rows + [rows[0]],
                 "stations.csv:4: duplicate station 's1'", id="duplicate station"),
    pytest.param("stations.csv", lambda rows: [],
                 "stations.csv: no stations", id="no stations"),
    pytest.param("climate.csv", lambda rows: rows + [["s9", "1", "1", "1", "1"]],
                 "climate.csv:26: climate rows for unknown station 's9'",
                 id="climate for unknown station"),
    pytest.param("climate.csv", lambda rows: rows + [rows[4]],
                 "climate.csv:26: duplicate (station, week) row ('s1', 5)",
                 id="duplicate station week"),
    pytest.param("climate.csv", lambda rows: rows[:12],
                 "climate.csv: station 's2' has no climate rows", id="station without climate"),
    pytest.param("cities.csv", set_cell(1, 2, "Atlantis"),
                 "cities.csv:3: region must be one of North, ", id="unknown region"),
    pytest.param("cities.csv", set_cell(0, 3, "90.5"),
                 "cities.csv:2: lat must lie in [-90, 90], got 90.5", id="city latitude"),
    pytest.param("cities.csv", set_cell(1, 4, "-181"),
                 "cities.csv:3: lon must lie in [-180, 180], got -181.0", id="city longitude"),
    pytest.param("stations.csv", set_cell(1, 1, "-91"),
                 "stations.csv:3: lat must lie in [-90, 90], got -91.0", id="station latitude"),
    pytest.param("stations.csv", set_cell(0, 2, "180.25"),
                 "stations.csv:2: lon must lie in [-180, 180], got 180.25", id="station longitude"),
]


class TestWeeklySeries:
    def test_accessors(self):
        s = WeeklySeries("c1", 5, np.array([1.0, 2.0, 3.0]))
        assert s.end_week == 7
        assert s.n_weeks == 3
        assert s.value_at(6) == 2.0

    def test_out_of_range(self):
        s = WeeklySeries("c1", 5, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(IndexError):
            s.value_at(4)
        with pytest.raises(IndexError):
            s.value_at(8)

    def test_equality_is_by_value(self):
        a = WeeklySeries("c1", 1, np.array([1.0, 2.0]))
        assert a == WeeklySeries("c1", 1, np.array([1.0, 2.0]))
        assert a != WeeklySeries("c1", 2, np.array([1.0, 2.0]))
        assert a != WeeklySeries("c1", 1, np.array([1.0, 2.5]))

    def test_validation(self):
        with pytest.raises(ValueError):
            WeeklySeries("c1", 0, np.array([1.0]))
        with pytest.raises(ValueError):
            WeeklySeries("c1", 1, np.array([np.nan]))
        with pytest.raises(ValueError):
            WeeklySeries("c1", 1, np.array([]))


class TestGeometry:
    def test_zero_distance(self):
        assert haversine_km(-23.5, -46.6, -23.5, -46.6) == 0.0

    def test_one_degree_longitude_on_equator(self):
        expected = EARTH_RADIUS_KM * math.radians(1.0)
        assert_allclose(haversine_km(0.0, 0.0, 0.0, 1.0), expected, rtol=1e-12)

    def test_symmetry(self):
        assert_allclose(haversine_km(-23.0, -46.0, -3.0, -60.0),
                        haversine_km(-3.0, -60.0, -23.0, -46.0), rtol=1e-14)

    def test_colocated_station_wins(self):
        city = CityRecord("c1", "X", "South", -30.0, -51.0, 1000)
        stations = [
            StationRecord("far", 10.0, 10.0, 1, np.zeros((1, 3))),
            StationRecord("here", -30.0, -51.0, 1, np.zeros((1, 3))),
        ]
        assert nearest_station(city, stations) == "here"

    def test_equidistant_tie_breaks_to_smaller_id(self):
        city = CityRecord("c1", "X", "South", 0.0, 0.0, 1000)
        stations = [
            StationRecord("B", 0.0, 1.0, 1, np.zeros((1, 3))),
            StationRecord("A", 0.0, -1.0, 1, np.zeros((1, 3))),
        ]
        assert nearest_station(city, stations) == "A"
        assert nearest_station(city, list(reversed(stations))) == "A"

    def test_matches_brute_force_and_order_invariant(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            city = CityRecord("c1", "X", "Other",
                              float(rng.uniform(-60, 10)), float(rng.uniform(-75, -30)), 1000)
            stations = [
                StationRecord(f"s{k}", float(rng.uniform(-60, 10)),
                              float(rng.uniform(-75, -30)), 1, np.zeros((1, 3)))
                for k in range(3)
            ]
            dists = {s.station_id: haversine_km(city.latitude, city.longitude,
                                                s.latitude, s.longitude)
                     for s in stations}
            expected = min(sorted(dists), key=lambda sid: dists[sid])
            assert nearest_station(city, stations) == expected
            shuffled = [stations[i] for i in rng.permutation(3)]
            assert nearest_station(city, shuffled) == expected


class TestComputeDir:
    def test_examples(self):
        s = WeeklySeries("c1", 1, np.array([500.0, 0.0]))
        d = compute_dir(s, 100000)
        assert d.value_at(1) == 500.0
        assert d.value_at(2) == 0.0
        assert compute_dir(WeeklySeries("c1", 1, np.array([250.0])), 500000).value_at(1) == 50.0

    def test_linear_in_cases(self):
        s1 = compute_dir(WeeklySeries("c1", 1, np.array([40.0])), 123456)
        s2 = compute_dir(WeeklySeries("c1", 1, np.array([80.0])), 123456)
        assert_allclose(s2.values, 2 * s1.values, rtol=1e-15)

    def test_bad_population(self):
        with pytest.raises(ValueError):
            compute_dir(WeeklySeries("c1", 1, np.array([1.0])), 0)


class TestLoadDataset:
    def test_well_formed_fixture(self, tmp_path):
        ds = load_dataset(write_fixture(tmp_path))
        assert set(ds.cities) == {"c1", "c2"}
        assert ds.start_week == 1 and ds.end_week == 12
        assert ds.cities["c1"].population == 100000
        assert ds.assignments == {"c1": "s1", "c2": "s2"}
        assert ds.cases["c2"].value_at(1) == 10.0

    def test_summary(self, tmp_path):
        summary = load_dataset(write_fixture(tmp_path)).summary()
        assert [c["city_id"] for c in summary["cities"]] == ["c1", "c2"]
        assert summary["weeks"] == {"start": 1, "end": 12, "count": 12}
        assert summary["station_assignments"] == {"c1": "s1", "c2": "s2"}

    def test_duplicate_city_week(self, tmp_path):
        rows = case_rows("c1", range(12)) + case_rows("c2", range(12)) + [("c1", 3, 9)]
        with pytest.raises(DataValidationError, match=r"duplicate \(city, week\)"):
            load_dataset(write_fixture(tmp_path, cases=rows))

    def test_missing_week_names_the_gap(self, tmp_path):
        rows = [r for r in case_rows("c1", range(12)) if r[1] != 7]
        rows += case_rows("c2", range(12))
        with pytest.raises(DataValidationError, match="week 7 missing"):
            load_dataset(write_fixture(tmp_path, cases=rows))

    def test_city_without_cases(self, tmp_path):
        with pytest.raises(DataValidationError, match="no case rows"):
            load_dataset(write_fixture(tmp_path, cases=case_rows("c1", range(12))))

    def test_mismatched_windows(self, tmp_path):
        rows = case_rows("c1", range(12)) + case_rows("c2", range(11), start_week=2)
        with pytest.raises(DataValidationError, match="expected 1..12"):
            load_dataset(write_fixture(tmp_path, cases=rows))

    def test_negative_cases(self, tmp_path):
        rows = case_rows("c1", range(12)) + case_rows("c2", range(12))
        rows[3] = ("c1", 4, -2)
        with pytest.raises(DataValidationError, match="cases must be >= 0"):
            load_dataset(write_fixture(tmp_path, cases=rows))

    def test_bad_region(self, tmp_path):
        cities = [("c1", "Alpha", "Southeast", -23.0, -46.0),
                  ("c2", "Beta", "Atlantis", -3.0, -60.0)]
        with pytest.raises(DataValidationError, match="region"):
            load_dataset(write_fixture(tmp_path, cities=cities))

    def test_missing_population(self, tmp_path):
        with pytest.raises(DataValidationError, match="no population entry"):
            load_dataset(write_fixture(tmp_path, population=[("c1", 100000)]))

    def test_wrong_header(self, tmp_path):
        data = write_fixture(tmp_path)
        write_csv(tmp_path / "cases.csv", ("city", "week", "cases"), [])
        with pytest.raises(DataValidationError, match="expected header"):
            load_dataset(data)

    def test_missing_file_reports_name(self, tmp_path):
        data = write_fixture(tmp_path)
        os.remove(tmp_path / "stations.csv")
        with pytest.raises(DataValidationError, match="stations.csv: file not found"):
            load_dataset(data)

    def test_error_carries_file_and_line(self, tmp_path):
        rows = case_rows("c1", range(12)) + case_rows("c2", range(12))
        rows[5] = ("c1", "six", 3)
        data = write_fixture(tmp_path, cases=rows)
        with pytest.raises(DataValidationError, match=r"cases.csv:7: week must be"):
            load_dataset(data)

    def test_climate_must_cover_case_window(self, tmp_path):
        climate = climate_rows("s1", 8) + climate_rows("s2", 12)
        with pytest.raises(DataValidationError, match="does not cover case window"):
            load_dataset(write_fixture(tmp_path, climate=climate))

    @pytest.mark.parametrize("name, edit, message", REJECTIONS)
    def test_each_rejection_names_its_file(self, tmp_path, name, edit, message):
        # rows[k] is line k + 2 of the file; a fault in one row names that
        # line, a fault in joining rows or files names the file only
        data = write_fixture(tmp_path)
        path = tmp_path / name
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        if edit is None:
            path.write_text("")
        else:
            write_csv(path, header, edit(rows))
        with pytest.raises(DataValidationError) as caught:
            load_dataset(data)
        assert str(caught.value).startswith(message)


class TestClimateGapFilling:
    def test_interior_gap_is_linear(self, tmp_path):
        climate = climate_rows("s1", 12) + climate_rows("s2", 12)
        # rainfall blank on week 6; neighbors are weeks 5 and 7
        climate[5] = ("s1", 6, "", 24.5, 70.0)
        ds = load_dataset(write_fixture(tmp_path, climate=climate))
        window = ds.stations["s1"].window(5, 7)
        assert_allclose(window[1, 0], (window[0, 0] + window[2, 0]) / 2)

    def test_edge_gap_clamps_to_nearest(self, tmp_path):
        climate = climate_rows("s1", 12) + climate_rows("s2", 12)
        climate[0] = ("s1", 1, "", 24.0, 70.0)
        climate[11] = ("s1", 12, 21.0, 25.1, "")
        ds = load_dataset(write_fixture(tmp_path, climate=climate))
        s = ds.stations["s1"]
        assert s.window(1, 1)[0, 0] == s.window(2, 2)[0, 0]
        assert s.window(12, 12)[0, 2] == s.window(11, 11)[0, 2]

    def test_all_blank_column_rejected(self, tmp_path):
        climate = [("s1", w, "", 24.0, 70.0) for w in range(1, 13)] + climate_rows("s2", 12)
        with pytest.raises(DataValidationError, match="rainfall_mm has no observed values"):
            load_dataset(write_fixture(tmp_path, climate=climate))


class TestSaveDataset:
    def test_round_trip_identity(self, tmp_path):
        original = load_dataset(write_fixture(tmp_path))
        save_dataset(original, str(tmp_path / "saved"))
        reloaded = load_dataset(str(tmp_path / "saved"))
        assert reloaded.cities == original.cities
        assert reloaded.assignments == original.assignments
        for cid in original.cases:
            assert reloaded.cases[cid] == original.cases[cid]
        for sid in original.stations:
            assert reloaded.stations[sid] == original.stations[sid]

    def test_round_trip_preserves_non_integer_floats(self, tmp_path):
        climate = [("s1", w, repr(0.1 + 0.01 * w), 24.37, 70.123456789)
                   for w in range(1, 13)] + climate_rows("s2", 12)
        original = load_dataset(write_fixture(tmp_path, climate=climate))
        save_dataset(original, str(tmp_path / "saved"))
        reloaded = load_dataset(str(tmp_path / "saved"))
        assert np.array_equal(reloaded.stations["s1"].climate,
                              original.stations["s1"].climate)
