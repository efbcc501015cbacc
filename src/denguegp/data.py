"""CSV ingestion and the immutable in-memory data model.

Five CSV files in one directory describe a study (BUNDLE gives their
names and headers): city coordinates and regions, a single population
figure per city, weekly case counts per city, weather-station
coordinates, and weekly station climate (rainfall mm, temperature C,
relative humidity %).  Loading validates schemas, aligns every city to a
common week window, fills isolated climate gaps, and assigns each city to
its nearest station by great-circle distance.  load_dataset is the one
gate for outside input: it checks every value before a record is built,
so CityRecord and StationRecord do not check again.
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

# the input bundle: file name -> header, in the order load_dataset reads them
BUNDLE = {
    "cities.csv": ("city_id", "name", "region", "lat", "lon"),
    "population.csv": ("city_id", "population"),
    "cases.csv": ("city_id", "week", "cases"),
    "stations.csv": ("station_id", "lat", "lon"),
    "climate.csv": ("station_id", "week") + CLIMATE_COLUMNS,
}


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


def read_csv(path: str, header) -> list:
    """(line, cells) for each non-blank data row of a UTF-8 CSV, after
    checking its header and every row's width; the mirror of write_csv."""
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
                    f"expected {len(header)} fields, found {len(row)}", file=path, line=i)
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


def _parse_coordinates(lat: str, lon: str, path: str, line: int) -> tuple:
    coords = (_parse_float(lat, "lat", path, line), _parse_float(lon, "lon", path, line))
    for what, v, bound in zip(("lat", "lon"), coords, (90, 180)):
        if not -bound <= v <= bound:
            raise DataValidationError(f"{what} must lie in [-{bound}, {bound}], got {v!r}",
                                      file=path, line=line)
    return coords


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


def load_dataset(data_dir: str) -> Dataset:
    """Read and cross-validate the five BUNDLE files in data_dir.

    All cities must share one contiguous case window; every station must
    cover that window with contiguous climate rows (blank climate cells
    are filled by interpolation).  Each city is assigned its nearest
    station.
    """
    cities_path, population_path, cases_path, stations_path, climate_path = (
        os.path.join(data_dir, name) for name in BUNDLE)

    city_rows = {}
    for line, row in read_csv(cities_path, BUNDLE["cities.csv"]):
        cid, name, region, lat, lon = row
        if cid in city_rows:
            raise DataValidationError(f"duplicate city {cid!r}", file=cities_path, line=line)
        if region not in REGIONS:
            raise DataValidationError(
                f"region must be one of {', '.join(REGIONS)}, got {region!r}",
                file=cities_path, line=line)
        city_rows[cid] = (name, region) + _parse_coordinates(lat, lon, cities_path, line)

    populations = {}
    for line, row in read_csv(population_path, BUNDLE["population.csv"]):
        cid, pop = row
        if cid in populations:
            raise DataValidationError(f"duplicate city {cid!r}", file=population_path, line=line)
        if cid not in city_rows:
            raise DataValidationError(f"population for unknown city {cid!r}",
                                      file=population_path, line=line)
        p = _parse_int(pop, "population", population_path, line)
        if p < 1:
            raise DataValidationError("population must be >= 1", file=population_path, line=line)
        populations[cid] = p

    cities = {}
    for cid, (name, region, lat, lon) in city_rows.items():
        if cid not in populations:
            raise DataValidationError(f"city {cid!r} has no population entry",
                                      file=population_path)
        cities[cid] = CityRecord(cid, name, region, lat, lon, populations[cid])

    counts = {}
    for line, row in read_csv(cases_path, BUNDLE["cases.csv"]):
        cid, week, value = row
        if cid not in cities:
            raise DataValidationError(f"case rows for unknown city {cid!r}",
                                      file=cases_path, line=line)
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

    station_coords = {}
    for line, row in read_csv(stations_path, BUNDLE["stations.csv"]):
        sid, lat, lon = row
        if sid in station_coords:
            raise DataValidationError(f"duplicate station {sid!r}", file=stations_path, line=line)
        station_coords[sid] = _parse_coordinates(lat, lon, stations_path, line)
    if not station_coords:
        raise DataValidationError("no stations", file=stations_path)

    # blank climate cells are allowed and filled after the weeks are assembled
    climate_rows = {}
    for line, row in read_csv(climate_path, BUNDLE["climate.csv"]):
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

    assignments = {cid: nearest_station(cities[cid], stations.values()) for cid in sorted(cities)}
    return Dataset(cities=cities, cases=cases, stations=stations, assignments=assignments)


def _format_number(v: float) -> str:
    # repr round-trips float64 exactly, keeping save -> load an identity
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def write_csv(path: str, header, rows):
    """Write a header and rows as UTF-8 CSV; every CSV the program writes
    goes through here."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def save_dataset(ds: Dataset, out_dir: str):
    """Write the five BUNDLE files into out_dir.

    Inverse of load_dataset up to climate gap filling (saved files have
    no blank cells).
    """
    os.makedirs(out_dir, exist_ok=True)
    cities, stations = sorted(ds.cities.items()), sorted(ds.stations.items())
    bodies = (  # in BUNDLE order
        ((cid, c.name, c.region, _format_number(c.latitude), _format_number(c.longitude))
         for cid, c in cities),
        ((cid, c.population) for cid, c in cities),
        ((cid, s.start_week + i, int(round(v)))
         for cid, s in sorted(ds.cases.items()) for i, v in enumerate(s.values)),
        ((sid, _format_number(s.latitude), _format_number(s.longitude)) for sid, s in stations),
        ((sid, s.start_week + i) + tuple(_format_number(v) for v in row)
         for sid, s in stations for i, row in enumerate(s.climate)),
    )
    for (name, header), rows in zip(BUNDLE.items(), bodies):
        write_csv(os.path.join(out_dir, name), header, rows)
