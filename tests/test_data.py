"""CSV ingestion, validation, the in-memory data model, and station
assignment geometry."""

import csv
import math

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
    return str(path)


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
    return {
        "cases": write_csv(tmp_path / "cases.csv", ("city_id", "week", "cases"), cases),
        "population": write_csv(tmp_path / "population.csv", ("city_id", "population"), population),
        "climate": write_csv(tmp_path / "climate.csv",
                             ("station_id", "week", "rainfall_mm", "temperature_c", "humidity_pct"),
                             climate),
        "stations": write_csv(tmp_path / "stations.csv", ("station_id", "lat", "lon"), stations),
        "cities": write_csv(tmp_path / "cities.csv", ("city_id", "name", "region", "lat", "lon"), cities),
    }


def load(paths):
    return load_dataset(paths["cases"], paths["population"], paths["climate"],
                        paths["stations"], paths["cities"])


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
        ds = load(write_fixture(tmp_path))
        assert set(ds.cities) == {"c1", "c2"}
        assert ds.start_week == 1 and ds.end_week == 12
        assert ds.cities["c1"].population == 100000
        assert ds.assignments == {"c1": "s1", "c2": "s2"}
        assert ds.cases["c2"].value_at(1) == 10.0

    def test_summary(self, tmp_path):
        summary = load(write_fixture(tmp_path)).summary()
        assert [c["city_id"] for c in summary["cities"]] == ["c1", "c2"]
        assert summary["weeks"] == {"start": 1, "end": 12, "count": 12}
        assert summary["station_assignments"] == {"c1": "s1", "c2": "s2"}

    def test_duplicate_city_week(self, tmp_path):
        rows = case_rows("c1", range(12)) + case_rows("c2", range(12)) + [("c1", 3, 9)]
        with pytest.raises(DataValidationError, match=r"duplicate \(city, week\)"):
            load(write_fixture(tmp_path, cases=rows))

    def test_missing_week_names_the_gap(self, tmp_path):
        rows = [r for r in case_rows("c1", range(12)) if r[1] != 7]
        rows += case_rows("c2", range(12))
        with pytest.raises(DataValidationError, match="week 7 missing"):
            load(write_fixture(tmp_path, cases=rows))

    def test_unknown_city_in_cases(self, tmp_path):
        rows = case_rows("c1", range(12)) + case_rows("c2", range(12)) + case_rows("zz", range(12))
        with pytest.raises(DataValidationError, match="unknown city 'zz'"):
            load(write_fixture(tmp_path, cases=rows))

    def test_city_without_cases(self, tmp_path):
        with pytest.raises(DataValidationError, match="no case rows"):
            load(write_fixture(tmp_path, cases=case_rows("c1", range(12))))

    def test_mismatched_windows(self, tmp_path):
        rows = case_rows("c1", range(12)) + case_rows("c2", range(11), start_week=2)
        with pytest.raises(DataValidationError, match="expected 1..12"):
            load(write_fixture(tmp_path, cases=rows))

    def test_negative_cases(self, tmp_path):
        rows = case_rows("c1", range(12)) + case_rows("c2", range(12))
        rows[3] = ("c1", 4, -2)
        with pytest.raises(DataValidationError, match="cases must be >= 0"):
            load(write_fixture(tmp_path, cases=rows))

    def test_bad_region(self, tmp_path):
        cities = [("c1", "Alpha", "Southeast", -23.0, -46.0),
                  ("c2", "Beta", "Atlantis", -3.0, -60.0)]
        with pytest.raises(DataValidationError, match="region"):
            load(write_fixture(tmp_path, cities=cities))

    def test_missing_population(self, tmp_path):
        with pytest.raises(DataValidationError, match="no population entry"):
            load(write_fixture(tmp_path, population=[("c1", 100000)]))

    def test_wrong_header(self, tmp_path):
        paths = write_fixture(tmp_path)
        write_csv(tmp_path / "cases.csv", ("city", "week", "cases"), [])
        with pytest.raises(DataValidationError, match="expected header"):
            load(paths)

    def test_missing_file_reports_name(self, tmp_path):
        paths = write_fixture(tmp_path)
        paths["stations"] = str(tmp_path / "nope.csv")
        with pytest.raises(DataValidationError, match="nope.csv: file not found"):
            load(paths)

    def test_error_carries_file_and_line(self, tmp_path):
        rows = case_rows("c1", range(12)) + case_rows("c2", range(12))
        rows[5] = ("c1", "six", 3)
        paths = write_fixture(tmp_path, cases=rows)
        with pytest.raises(DataValidationError, match=r"cases.csv:7: week must be"):
            load(paths)

    def test_climate_must_cover_case_window(self, tmp_path):
        climate = climate_rows("s1", 8) + climate_rows("s2", 12)
        with pytest.raises(DataValidationError, match="does not cover case window"):
            load(write_fixture(tmp_path, climate=climate))


class TestClimateGapFilling:
    def test_interior_gap_is_linear(self, tmp_path):
        climate = climate_rows("s1", 12) + climate_rows("s2", 12)
        # rainfall blank on week 6; neighbors are weeks 5 and 7
        climate[5] = ("s1", 6, "", 24.5, 70.0)
        ds = load(write_fixture(tmp_path, climate=climate))
        window = ds.stations["s1"].window(5, 7)
        assert_allclose(window[1, 0], (window[0, 0] + window[2, 0]) / 2)

    def test_edge_gap_clamps_to_nearest(self, tmp_path):
        climate = climate_rows("s1", 12) + climate_rows("s2", 12)
        climate[0] = ("s1", 1, "", 24.0, 70.0)
        climate[11] = ("s1", 12, 21.0, 25.1, "")
        ds = load(write_fixture(tmp_path, climate=climate))
        s = ds.stations["s1"]
        assert s.window(1, 1)[0, 0] == s.window(2, 2)[0, 0]
        assert s.window(12, 12)[0, 2] == s.window(11, 11)[0, 2]

    def test_all_blank_column_rejected(self, tmp_path):
        climate = [("s1", w, "", 24.0, 70.0) for w in range(1, 13)] + climate_rows("s2", 12)
        with pytest.raises(DataValidationError, match="rainfall_mm has no observed values"):
            load(write_fixture(tmp_path, climate=climate))


class TestSaveDataset:
    def test_round_trip_identity(self, tmp_path):
        original = load(write_fixture(tmp_path))
        paths = save_dataset(original, str(tmp_path / "saved"))
        reloaded = load_dataset(paths["cases"], paths["population"], paths["climate"],
                                paths["stations"], paths["cities"])
        assert reloaded.cities == original.cities
        assert reloaded.assignments == original.assignments
        for cid in original.cases:
            assert reloaded.cases[cid] == original.cases[cid]
        for sid in original.stations:
            assert reloaded.stations[sid] == original.stations[sid]

    def test_round_trip_preserves_non_integer_floats(self, tmp_path):
        climate = [("s1", w, repr(0.1 + 0.01 * w), 24.37, 70.123456789)
                   for w in range(1, 13)] + climate_rows("s2", 12)
        original = load(write_fixture(tmp_path, climate=climate))
        paths = save_dataset(original, str(tmp_path / "saved"))
        reloaded = load_dataset(paths["cases"], paths["population"], paths["climate"],
                                paths["stations"], paths["cities"])
        assert np.array_equal(reloaded.stations["s1"].climate,
                              original.stations["s1"].climate)
