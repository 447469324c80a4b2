"""Trip-record ingestion: filtering, grid binning, rate estimation, replay traces.

The pipeline turns raw trip CSVs (NYC-yellow-cab-style schema) into either a
fitted arrival model (IID mode) or a per-second replay trace (replay mode).
All steps are pure transforms; the only randomness is the seeded car
subsample.  A deterministic fixture generator produces schema-identical
synthetic files so the pipeline is testable without the real dataset.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import SchemaError
from .grid import RequestModel, build_grid, distance_weights, manhattan_distance
from .rng import stream
from .simulate import TraceEntry

TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M:%S"

#: Half-open analysis window over lower Manhattan, [lat_min, lat_max) x [lon_min, lon_max).
DEFAULT_BBOX_BOUNDS = (40.7014, 40.8024, -74.0041, -73.9552)

DEFAULT_GRID_ROWS = 21
DEFAULT_GRID_COLS = 11

#: Daily analysis segments as half-open [start, end) hours of the pickup time.
SEGMENTS = {"morning": (7, 11), "afternoon": (11, 15), "evening": (15, 19)}

DEFAULT_COLUMNS: dict[str, str] = {
    "car_id": "medallion",
    "pickup_time": "pickup_datetime",
    "dropoff_time": "dropoff_datetime",
    "pickup_lat": "pickup_latitude",
    "pickup_lon": "pickup_longitude",
    "dropoff_lat": "dropoff_latitude",
    "dropoff_lon": "dropoff_longitude",
}


@dataclass(frozen=True)
class TripRecord:
    car_id: str
    pickup_time: dt.datetime
    dropoff_time: dt.datetime
    pickup_lat: float
    pickup_lon: float
    dropoff_lat: float
    dropoff_lon: float


@dataclass(frozen=True)
class Bbox:
    """Half-open geographic box: lower bounds inclusive, upper bounds exclusive."""

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        if not (self.lat_min < self.lat_max and self.lon_min < self.lon_max):
            raise ValueError("bounding box must have positive extent")

    def contains(self, lat: float, lon: float) -> bool:
        return (
            self.lat_min <= lat < self.lat_max and self.lon_min <= lon < self.lon_max
        )


DEFAULT_BBOX = Bbox(*DEFAULT_BBOX_BOUNDS)


@dataclass
class ParseResult:
    """Parsed trips plus a count of rows dropped as malformed."""

    records: list[TripRecord]
    skipped: int


def parse_trips(path, column_mapping: Mapping[str, str] | None = None) -> ParseResult:
    """Read trip records from a headered CSV, skipping malformed rows.

    column_mapping sends TripRecord field names to CSV column names;
    unmapped fields use the stock yellow-cab names.  A row is malformed if
    any mapped value is missing, a timestamp does not match
    ``YYYY-MM-DD HH:MM:SS`` exactly, a coordinate is not a finite number,
    or the dropoff precedes the pickup.
    """
    mapping = dict(DEFAULT_COLUMNS)
    if column_mapping:
        unknown = set(column_mapping) - set(mapping)
        if unknown:
            raise SchemaError(f"unknown trip fields in column mapping: {sorted(unknown)}")
        mapping.update(column_mapping)
    records: list[TripRecord] = []
    skipped = 0
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [col for col in mapping.values() if col not in header]
        if missing:
            raise SchemaError(f"input is missing mapped columns: {missing}")
        for row in reader:
            try:
                pickup = dt.datetime.strptime(row[mapping["pickup_time"]], TIMESTAMP_FORMAT)
                dropoff = dt.datetime.strptime(row[mapping["dropoff_time"]], TIMESTAMP_FORMAT)
                coords = [
                    float(row[mapping[name]])
                    for name in ("pickup_lat", "pickup_lon", "dropoff_lat", "dropoff_lon")
                ]
                car = row[mapping["car_id"]]
                if car is None or any(not math.isfinite(x) for x in coords):
                    raise ValueError("bad field")
                if dropoff < pickup:
                    raise ValueError("dropoff precedes pickup")
            except (ValueError, TypeError, KeyError):
                skipped += 1
                continue
            records.append(TripRecord(car, pickup, dropoff, *coords))
    return ParseResult(records=records, skipped=skipped)


def filter_bbox(records: Iterable[TripRecord], bbox: Bbox = DEFAULT_BBOX) -> list[TripRecord]:
    """Keep trips whose pickup and dropoff both fall inside the box."""
    return [
        r
        for r in records
        if bbox.contains(r.pickup_lat, r.pickup_lon)
        and bbox.contains(r.dropoff_lat, r.dropoff_lon)
    ]


def bin_point(
    lat: float,
    lon: float,
    rows: int = DEFAULT_GRID_ROWS,
    cols: int = DEFAULT_GRID_COLS,
    bbox: Bbox = DEFAULT_BBOX,
) -> tuple[int, int]:
    """Equal-width bin of an in-box coordinate; the top edge clamps into the last bin."""
    if not bbox.contains(lat, lon):
        raise ValueError(f"point ({lat}, {lon}) lies outside the bounding box")
    row = int((lat - bbox.lat_min) / (bbox.lat_max - bbox.lat_min) * rows)
    col = int((lon - bbox.lon_min) / (bbox.lon_max - bbox.lon_min) * cols)
    return min(row, rows - 1), min(col, cols - 1)


def bin_to_grid(
    record: TripRecord,
    rows: int = DEFAULT_GRID_ROWS,
    cols: int = DEFAULT_GRID_COLS,
    bbox: Bbox = DEFAULT_BBOX,
) -> tuple[int, int]:
    """Map a trip to a request: row-major cell indices of its endpoints."""
    pr, pc = bin_point(record.pickup_lat, record.pickup_lon, rows, cols, bbox)
    dr, dc = bin_point(record.dropoff_lat, record.dropoff_lon, rows, cols, bbox)
    return pr * cols + pc, dr * cols + dc


@dataclass
class SegmentResult:
    """Trips partitioned by (segment, pickup date); out-of-segment trips counted."""

    parts: dict[str, dict[dt.date, list[TripRecord]]]
    dropped: int

    def dates(self, segment: str) -> list[dt.date]:
        return sorted(self.parts[segment.lower()])


def segment_by_time(records: Iterable[TripRecord]) -> SegmentResult:
    """Assign trips to daily segments by pickup hour, one part per date."""
    parts: dict[str, dict[dt.date, list[TripRecord]]] = {name: {} for name in SEGMENTS}
    dropped = 0
    for r in records:
        hour = r.pickup_time.hour
        for name, (start, end) in SEGMENTS.items():
            if start <= hour < end:
                parts[name].setdefault(r.pickup_time.date(), []).append(r)
                break
        else:
            dropped += 1
    return SegmentResult(parts=parts, dropped=dropped)


def segment_seconds(segment: str) -> int:
    """Length of one day's segment window in per-second rounds."""
    start, end = SEGMENTS[segment.lower()]
    return (end - start) * 3600


@dataclass
class RateEstimate:
    """Fitted arrival model plus the bookkeeping of the fit.

    p is the per-slot empirical frequency of each request; when arrivals
    exceed one per slot on aggregate the matrix is rescaled by rescale
    (= max(1, sum of raw frequencies)) to stay a sub-probability law.
    """

    model: RequestModel
    rescale: float
    requests: int
    slots: int


def estimate_rates(
    requests: Iterable[tuple[int, int]],
    slots: int,
    rows: int = DEFAULT_GRID_ROWS,
    cols: int = DEFAULT_GRID_COLS,
) -> RateEstimate:
    """Empirical per-second arrival frequencies with distance weights.

    requests are binned (origin cell, destination cell) pairs; slots is the
    total count of per-second rounds the sample spans (window seconds times
    number of dates).
    """
    if slots < 1:
        raise ValueError("rate estimation needs at least one per-second slot")
    grid = build_grid(rows, cols)
    n = grid.n
    counts = np.zeros((n, n))
    total = 0
    for u, v in requests:
        grid.check_location(u)
        grid.check_location(v)
        counts[u, v] += 1
        total += 1
    p = counts / slots
    rescale = max(1.0, float(p.sum()))
    p /= rescale
    model = RequestModel(grid=grid, p=p, w=distance_weights(grid))
    return RateEstimate(model=model, rescale=rescale, requests=total, slots=slots)


def estimate_segment_rates(
    segmented: SegmentResult,
    segment: str,
    dates: Sequence[dt.date],
    rows: int = DEFAULT_GRID_ROWS,
    cols: int = DEFAULT_GRID_COLS,
    bbox: Bbox = DEFAULT_BBOX,
) -> RateEstimate:
    """Rates for one segment over the given dates (one window each), trips binned on the fly."""
    segment = segment.lower()
    parts = segmented.parts[segment]
    if not dates:
        raise ValueError(f"no trips fall in the {segment} segment")
    pairs = (bin_to_grid(r, rows, cols, bbox) for date in dates for r in parts[date])
    return estimate_rates(pairs, segment_seconds(segment) * len(dates), rows, cols)


def subsample_cars(records: Sequence[TripRecord], k: int, seed: int) -> list[TripRecord]:
    """Keep the trips of k distinct cars drawn uniformly without replacement.

    The candidate ids are sorted before sampling, so the result depends
    only on (set of ids, k, seed), not on record order.
    """
    ids = sorted({r.car_id for r in records})
    if k < 0 or k > len(ids):
        raise ValueError(f"cannot sample {k} cars from {len(ids)} distinct ids")
    rng = stream(seed)
    chosen = set(rng.choice(np.array(ids, dtype=object), size=k, replace=False)) if k else set()
    return [r for r in records if r.car_id in chosen]


@dataclass
class ReplayTrace:
    """Per-second arrival sequence for one (segment, date) window.

    entries hold (round, origin cell, destination cell, weight) with
    non-decreasing rounds; same-second trips keep their input order and the
    simulator serves them sequentially within the round.  rounds is the
    window length, one round per second.
    """

    entries: list[TraceEntry]
    rounds: int
    segment: str | None = None
    date: dt.date | None = None

    def __len__(self) -> int:
        return len(self.entries)


def build_replay(
    records: Sequence[TripRecord],
    segment: str,
    date: dt.date | None = None,
    rows: int = DEFAULT_GRID_ROWS,
    cols: int = DEFAULT_GRID_COLS,
    bbox: Bbox = DEFAULT_BBOX,
) -> ReplayTrace:
    """Turn one date's segment trips into a per-second replay trace.

    Each trip becomes a request at its pickup second, weighted by the
    Manhattan distance between its binned endpoints.
    """
    segment = segment.lower()
    start_hour, end_hour = SEGMENTS[segment]
    if date is None:
        dates = {r.pickup_time.date() for r in records}
        if len(dates) != 1:
            raise ValueError(f"records span {len(dates)} dates; pass one date per trace")
        (date,) = dates
    grid = build_grid(rows, cols)
    window_start = dt.datetime.combine(date, dt.time(hour=start_hour))
    rounds = segment_seconds(segment)
    stamped = []
    for r in records:
        if r.pickup_time.date() != date or not (start_hour <= r.pickup_time.hour < end_hour):
            raise ValueError(f"trip at {r.pickup_time} lies outside {segment} of {date}")
        rnd = int((r.pickup_time - window_start).total_seconds())
        u, v = bin_to_grid(r, rows, cols, bbox)
        stamped.append((rnd, u, v, float(manhattan_distance(grid, u, v))))
    stamped.sort(key=lambda e: e[0])
    return ReplayTrace(entries=stamped, rounds=rounds, segment=segment, date=date)


def write_replay(path, trace: ReplayTrace) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "origin", "dest", "weight"])
        for rnd, u, v, w in trace.entries:
            writer.writerow([rnd, u, v, f"{w:.17g}"])


def read_replay(path) -> ReplayTrace:
    """Load a replay CSV; the round count is inferred from the last entry."""
    entries: list[TraceEntry] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        needed = {"round", "origin", "dest", "weight"}
        if not needed.issubset(reader.fieldnames or []):
            raise SchemaError(f"replay file needs columns {sorted(needed)}")
        for row in reader:
            entries.append(
                (int(row["round"]), int(row["origin"]), int(row["dest"]), float(row["weight"]))
            )
    rounds = entries[-1][0] + 1 if entries else 0
    return ReplayTrace(entries=entries, rounds=rounds)


FIXTURE_COLUMNS = [
    "medallion",
    "hack_license",
    "vendor_id",
    "rate_code",
    "store_and_fwd_flag",
    "pickup_datetime",
    "dropoff_datetime",
    "passenger_count",
    "trip_time_in_secs",
    "trip_distance",
    "pickup_longitude",
    "pickup_latitude",
    "dropoff_longitude",
    "dropoff_latitude",
]

FIXTURE_DATES = [dt.date(2013, 1, d) for d in (14, 15, 16, 17, 18)]


def make_fixture(path, trips: int = 1000, seed: int = 0, cars: int = 40) -> int:
    """Write a synthetic trip CSV in the stock 14-column yellow-cab layout.

    Rows are deterministic in (trips, seed, cars).  Roughly a quarter of
    the trips have an endpoint outside the default bounding box and pickup
    hours cover the whole day, so every pipeline stage has work to do.
    Returns the number of rows written.
    """
    rng = stream(seed, 99)
    bbox = DEFAULT_BBOX
    lat_span = bbox.lat_max - bbox.lat_min
    lon_span = bbox.lon_max - bbox.lon_min
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FIXTURE_COLUMNS)
        for i in range(trips):
            car = int(rng.integers(cars))
            date = FIXTURE_DATES[int(rng.integers(len(FIXTURE_DATES)))]
            second = int(rng.integers(86400))
            pickup = dt.datetime.combine(date, dt.time()) + dt.timedelta(seconds=second)
            duration = int(rng.integers(120, 2400))
            dropoff = pickup + dt.timedelta(seconds=duration)
            coords = []
            for _ in range(2):
                lat = bbox.lat_min + float(rng.random()) * lat_span
                lon = bbox.lon_min + float(rng.random()) * lon_span
                if rng.random() < 0.13:
                    lat += lat_span * (1 if rng.random() < 0.5 else -1)
                if rng.random() < 0.13:
                    lon += lon_span * (1 if rng.random() < 0.5 else -1)
                coords.append((lat, lon))
            (plat, plon), (dlat, dlon) = coords
            distance = 0.2 + abs(plat - dlat) * 69.0 + abs(plon - dlon) * 52.0
            writer.writerow(
                [
                    f"CAR{car:05d}",
                    f"LIC{car:05d}",
                    "CMT" if car % 2 else "VTS",
                    "1",
                    "N",
                    pickup.strftime(TIMESTAMP_FORMAT),
                    dropoff.strftime(TIMESTAMP_FORMAT),
                    str(1 + int(rng.integers(4))),
                    str(duration),
                    f"{distance:.2f}",
                    f"{plon:.6f}",
                    f"{plat:.6f}",
                    f"{dlon:.6f}",
                    f"{dlat:.6f}",
                ]
            )
    return trips
