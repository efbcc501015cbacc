"""CSV ingestion and the immutable in-memory data model.

Five input files describe a study: weekly case counts per city, a single
population figure per city, city coordinates and regions, weather-station
coordinates, and weekly station climate (rainfall mm, temperature C,
relative humidity %).  Loading validates schemas, aligns every city to a
common week window, fills isolated climate gaps, and assigns each city to
its nearest station by great-circle distance.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

REGIONS = ("North", "Northeast", "Southeast", "South", "CenterWest", "Other")

EARTH_RADIUS_KM = 6371.0

CLIMATE_COLUMNS = ("rainfall_mm", "temperature_c", "humidity_pct")


class DataValidationError(ValueError):
    """Schema or consistency problem in an input file."""

    def __init__(self, message: str, file: str | None = None, line: int | None = None):
        self.file = file
        self.line = line
        where = ""
        if file is not None:
            where = f"{os.path.basename(file)}"
            if line is not None:
                where += f":{line}"
            where += ": "
        super().__init__(where + message)


@dataclass(frozen=True)
class CityRecord:
    city_id: str
    name: str
    region: str
    latitude: float
    longitude: float
    population: int

    def __post_init__(self):
        if self.region not in REGIONS:
            raise ValueError(f"unknown region {self.region!r}")
        if not -90 <= self.latitude <= 90:
            raise ValueError("latitude out of range")
        if not -180 <= self.longitude <= 180:
            raise ValueError("longitude out of range")
        if self.population < 1:
            raise ValueError("population must be >= 1")


@dataclass(frozen=True, eq=False)
class WeeklySeries:
    """Contiguous weekly values for one city: values[i] is week start_week + i."""

    city_id: str
    start_week: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("values must be a non-empty 1-D array")
        if self.start_week < 1:
            raise ValueError("start_week must be >= 1")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    def __eq__(self, other):
        if not isinstance(other, WeeklySeries):
            return NotImplemented
        return (self.city_id == other.city_id
                and self.start_week == other.start_week
                and np.array_equal(self.values, other.values))

    @property
    def end_week(self) -> int:
        return self.start_week + self.values.size - 1

    @property
    def n_weeks(self) -> int:
        return self.values.size

    def value_at(self, week: int) -> float:
        if not self.start_week <= week <= self.end_week:
            raise IndexError(f"week {week} outside [{self.start_week}, {self.end_week}]")
        return float(self.values[week - self.start_week])


@dataclass(frozen=True, eq=False)
class StationRecord:
    """Station coordinates plus contiguous weekly climate rows
    (columns: rainfall mm, temperature C, humidity %)."""

    station_id: str
    latitude: float
    longitude: float
    start_week: int
    climate: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "climate", np.asarray(self.climate, dtype=float))
        if self.climate.ndim != 2 or self.climate.shape[1] != 3:
            raise ValueError("climate must have shape (n_weeks, 3)")
        if not np.all(np.isfinite(self.climate)):
            raise ValueError("climate must be finite after gap filling")
        if not -90 <= self.latitude <= 90:
            raise ValueError("latitude out of range")
        if not -180 <= self.longitude <= 180:
            raise ValueError("longitude out of range")

    def __eq__(self, other):
        if not isinstance(other, StationRecord):
            return NotImplemented
        return (self.station_id == other.station_id
                and self.latitude == other.latitude
                and self.longitude == other.longitude
                and self.start_week == other.start_week
                and np.array_equal(self.climate, other.climate))

    @property
    def end_week(self) -> int:
        return self.start_week + self.climate.shape[0] - 1

    def window(self, start: int, end: int) -> np.ndarray:
        """Climate rows for weeks start..end inclusive, shape (end-start+1, 3)."""
        if start < self.start_week or end > self.end_week or start > end:
            raise IndexError(f"window [{start}, {end}] outside [{self.start_week}, {self.end_week}]")
        i = start - self.start_week
        return self.climate[i:i + (end - start + 1)]


@dataclass(frozen=True)
class Dataset:
    """Immutable bundle of everything one study run needs.

    Safe to share read-only across concurrent per-city pipelines.
    """

    cities: dict  # city_id -> CityRecord
    cases: dict  # city_id -> WeeklySeries (counts)
    stations: dict  # station_id -> StationRecord
    assignments: dict  # city_id -> station_id

    @property
    def start_week(self) -> int:
        return next(iter(self.cases.values())).start_week

    @property
    def end_week(self) -> int:
        return next(iter(self.cases.values())).end_week

    def summary(self) -> dict:
        return {
            "cities": [
                {
                    "city_id": c.city_id,
                    "name": c.name,
                    "region": c.region,
                    "population": c.population,
                }
                for c in sorted(self.cities.values(), key=lambda c: c.city_id)
            ],
            "weeks": {
                "start": self.start_week,
                "end": self.end_week,
                "count": self.end_week - self.start_week + 1,
            },
            "station_assignments": {k: self.assignments[k] for k in sorted(self.assignments)},
        }


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two points, in km."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def nearest_station(city: CityRecord, stations) -> str:
    """Station id minimizing haversine distance to the city centroid.

    Exact distance ties go to the lexicographically smallest station id,
    which also makes the result independent of the station list order.
    """
    ordered = sorted(stations, key=lambda s: s.station_id)
    if not ordered:
        raise ValueError("station list is empty")
    best_id, best_d = None, math.inf
    for s in ordered:
        d = haversine_km(city.latitude, city.longitude, s.latitude, s.longitude)
        if d < best_d:
            best_id, best_d = s.station_id, d
    return best_id


def compute_dir(cases: WeeklySeries, population: int) -> WeeklySeries:
    """Weekly incidence per 100,000 inhabitants."""
    if population < 1:
        raise ValueError("population must be >= 1")
    if np.any(cases.values < 0):
        raise ValueError("case counts must be nonnegative")
    return WeeklySeries(cases.city_id, cases.start_week, cases.values * 1e5 / population)


def _read_rows(path: str, header: tuple) -> list:
    try:
        fh = open(path, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise DataValidationError("file not found", file=path) from None
    with fh:
        reader = csv.reader(fh)
        try:
            got = next(reader)
        except StopIteration:
            raise DataValidationError("empty file", file=path, line=1) from None
        if got != list(header):
            raise DataValidationError(
                f"expected header {','.join(header)}, got {','.join(got)}", file=path, line=1)
        rows = []
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataValidationError(
                    f"expected {len(header)} columns, got {len(row)}", file=path, line=i)
            rows.append((i, row))
    return rows


def _parse_int(text: str, what: str, path: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise DataValidationError(f"{what} must be an integer, got {text!r}",
                                  file=path, line=line) from None


def _parse_float(text: str, what: str, path: str, line: int) -> float:
    try:
        v = float(text)
    except ValueError:
        raise DataValidationError(f"{what} must be a number, got {text!r}",
                                  file=path, line=line) from None
    if not math.isfinite(v):
        raise DataValidationError(f"{what} must be finite", file=path, line=line)
    return v


def _contiguous_series(by_week: dict, what: str, path: str) -> tuple:
    """(start_week, values asc by week); errors on gaps."""
    weeks = sorted(by_week)
    start, end = weeks[0], weeks[-1]
    if len(weeks) != end - start + 1:
        have = set(weeks)
        missing = next(w for w in range(start, end + 1) if w not in have)
        raise DataValidationError(f"{what}: weeks not contiguous, week {missing} missing",
                                  file=path)
    return start, [by_week[w] for w in weeks]


def _fill_climate_gaps(column: np.ndarray) -> np.ndarray:
    """Linear interpolation for interior NaNs, nearest value at the edges."""
    known = np.flatnonzero(~np.isnan(column))
    if known.size == 0:
        raise ValueError("column has no observed values")
    if known.size == column.size:
        return column
    idx = np.arange(column.size, dtype=float)
    return np.interp(idx, idx[known], column[known])


def load_dataset(cases_path: str, population_path: str, climate_path: str,
                 stations_path: str, cities_path: str) -> Dataset:
    """Read and cross-validate the five input files.

    All cities must share one contiguous case window; every station must
    cover that window with contiguous climate rows (blank climate cells
    are filled by interpolation).  Each city is assigned its nearest
    station.
    """
    # cities.csv: city_id,name,region,lat,lon
    city_rows = {}
    for line, row in _read_rows(cities_path, ("city_id", "name", "region", "lat", "lon")):
        cid, name, region, lat, lon = row
        if cid in city_rows:
            raise DataValidationError(f"duplicate city {cid!r}", file=cities_path, line=line)
        if region not in REGIONS:
            raise DataValidationError(
                f"region must be one of {', '.join(REGIONS)}, got {region!r}",
                file=cities_path, line=line)
        city_rows[cid] = (name, region,
                          _parse_float(lat, "lat", cities_path, line),
                          _parse_float(lon, "lon", cities_path, line), line)

    # population.csv: city_id,population
    populations = {}
    for line, row in _read_rows(population_path, ("city_id", "population")):
        cid, pop = row
        if cid in populations:
            raise DataValidationError(f"duplicate city {cid!r}", file=population_path, line=line)
        p = _parse_int(pop, "population", population_path, line)
        if p < 1:
            raise DataValidationError("population must be >= 1", file=population_path, line=line)
        populations[cid] = p

    cities = {}
    for cid, (name, region, lat, lon, line) in city_rows.items():
        if cid not in populations:
            raise DataValidationError(f"city {cid!r} has no population entry",
                                      file=population_path)
        cities[cid] = CityRecord(cid, name, region, lat, lon, populations[cid])

    # cases.csv: city_id,week,cases
    counts = {}
    for line, row in _read_rows(cases_path, ("city_id", "week", "cases")):
        cid, week, value = row
        w = _parse_int(week, "week", cases_path, line)
        if w < 1:
            raise DataValidationError("week must be >= 1", file=cases_path, line=line)
        n = _parse_int(value, "cases", cases_path, line)
        if n < 0:
            raise DataValidationError("cases must be >= 0", file=cases_path, line=line)
        per_city = counts.setdefault(cid, {})
        if w in per_city:
            raise DataValidationError(f"duplicate (city, week) row ({cid!r}, {w})",
                                      file=cases_path, line=line)
        per_city[w] = n
    if not counts:
        raise DataValidationError("no case rows", file=cases_path)

    cases = {}
    window = None
    for cid in sorted(counts):
        if cid not in cities:
            raise DataValidationError(f"case rows for unknown city {cid!r}", file=cases_path)
        start, values = _contiguous_series(counts[cid], f"city {cid!r}", cases_path)
        series = WeeklySeries(cid, start, np.array(values, dtype=float))
        if window is None:
            window = (series.start_week, series.end_week)
        elif window != (series.start_week, series.end_week):
            raise DataValidationError(
                f"city {cid!r} covers weeks {series.start_week}..{series.end_week}, "
                f"expected {window[0]}..{window[1]} like the first city", file=cases_path)
        cases[cid] = series
    for cid in cities:
        if cid not in cases:
            raise DataValidationError(f"city {cid!r} has no case rows", file=cases_path)

    # stations.csv: station_id,lat,lon
    station_coords = {}
    for line, row in _read_rows(stations_path, ("station_id", "lat", "lon")):
        sid, lat, lon = row
        if sid in station_coords:
            raise DataValidationError(f"duplicate station {sid!r}", file=stations_path, line=line)
        station_coords[sid] = (_parse_float(lat, "lat", stations_path, line),
                               _parse_float(lon, "lon", stations_path, line))
    if not station_coords:
        raise DataValidationError("no stations", file=stations_path)

    # climate.csv: station_id,week,rainfall_mm,temperature_c,humidity_pct
    # Blank cells are allowed and filled after the weeks are assembled.
    climate_rows = {}
    for line, row in _read_rows(climate_path, ("station_id", "week") + CLIMATE_COLUMNS):
        sid, week = row[0], row[1]
        if sid not in station_coords:
            raise DataValidationError(f"climate rows for unknown station {sid!r}",
                                      file=climate_path, line=line)
        w = _parse_int(week, "week", climate_path, line)
        triple = [math.nan if cell.strip() == "" else
                  _parse_float(cell, name, climate_path, line)
                  for cell, name in zip(row[2:], CLIMATE_COLUMNS)]
        per_station = climate_rows.setdefault(sid, {})
        if w in per_station:
            raise DataValidationError(f"duplicate (station, week) row ({sid!r}, {w})",
                                      file=climate_path, line=line)
        per_station[w] = triple

    stations = {}
    for sid, (lat, lon) in station_coords.items():
        if sid not in climate_rows:
            raise DataValidationError(f"station {sid!r} has no climate rows", file=climate_path)
        start, triples = _contiguous_series(climate_rows[sid], f"station {sid!r}", climate_path)
        raw = np.array(triples, dtype=float)
        end = start + raw.shape[0] - 1
        if start > window[0] or end < window[1]:
            raise DataValidationError(
                f"station {sid!r} climate covers weeks {start}..{end}, "
                f"does not cover case window {window[0]}..{window[1]}", file=climate_path)
        filled = np.empty_like(raw)
        for j, name in enumerate(CLIMATE_COLUMNS):
            try:
                filled[:, j] = _fill_climate_gaps(raw[:, j])
            except ValueError:
                raise DataValidationError(
                    f"station {sid!r}: column {name} has no observed values",
                    file=climate_path) from None
        stations[sid] = StationRecord(sid, lat, lon, start, filled)

    ordered_stations = [stations[sid] for sid in sorted(stations)]
    assignments = {cid: nearest_station(cities[cid], ordered_stations)
                   for cid in sorted(cities)}
    return Dataset(cities=cities, cases=cases, stations=stations, assignments=assignments)


def _format_number(v: float) -> str:
    # repr round-trips float64 exactly, keeping save -> load an identity
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def save_dataset(ds: Dataset, out_dir: str) -> dict:
    """Write the five-file CSV bundle; returns the path of each file.

    Inverse of load_dataset up to climate gap filling (saved files have
    no blank cells).
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, f"{name}.csv")
             for name in ("cases", "population", "climate", "stations", "cities")}

    with open(paths["cases"], "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(("city_id", "week", "cases"))
        for cid in sorted(ds.cases):
            s = ds.cases[cid]
            for i, v in enumerate(s.values):
                w.writerow((cid, s.start_week + i, int(round(v))))

    with open(paths["population"], "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(("city_id", "population"))
        for cid in sorted(ds.cities):
            w.writerow((cid, ds.cities[cid].population))

    with open(paths["cities"], "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(("city_id", "name", "region", "lat", "lon"))
        for cid in sorted(ds.cities):
            c = ds.cities[cid]
            w.writerow((cid, c.name, c.region, _format_number(c.latitude),
                        _format_number(c.longitude)))

    with open(paths["stations"], "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(("station_id", "lat", "lon"))
        for sid in sorted(ds.stations):
            s = ds.stations[sid]
            w.writerow((sid, _format_number(s.latitude), _format_number(s.longitude)))

    with open(paths["climate"], "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(("station_id", "week") + CLIMATE_COLUMNS)
        for sid in sorted(ds.stations):
            s = ds.stations[sid]
            for i in range(s.climate.shape[0]):
                w.writerow((sid, s.start_week + i) +
                           tuple(_format_number(v) for v in s.climate[i]))

    return paths
