"""Trip-record ingestion: filtering, grid binning, rate estimation, replay traces.

The pipeline turns raw trip CSVs (NYC-yellow-cab-style schema) into either a
fitted arrival model (IID mode) or a per-second replay trace (replay mode).
Trips travel as a ``TripTable`` of numpy columns, and every step works over
whole columns.  All steps are pure transforms; the only randomness is the
seeded car subsample.  A deterministic fixture generator produces
schema-identical synthetic files so the pipeline is testable without the
real dataset.
"""

from __future__ import annotations

import datetime as dt
import gc
from contextlib import suppress
from dataclasses import dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from .csvblocks import Columns, CsvBlocks, _cast, _text, read_table, write_table
from .errors import SchemaError
from .grid import RequestModel, build_grid, distance_weights
from .rng import RawDraws, stream
from .simulate import ReplayTrace

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

# A canonical timestamp with every digit taken as 0, and where its fields' digits lie.
_STAMP = b"0000-00-00 00:00:00"
_YEAR, _MONTH, _DAY, _HOUR, _MINUTE, _SECOND = 0, 5, 8, 11, 14, 17

# Days in each month of a common year, and the days before it, by month number;
# 0 for a number that names no month.
_MONTH_DAYS = np.zeros(100, np.int32)
_MONTH_DAYS[1:13] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
_DAYS_BEFORE = (np.cumsum(_MONTH_DAYS) - _MONTH_DAYS).astype(np.int32)

# Each year's January 1 as days from 1970-01-01 in numpy's proleptic Gregorian calendar,
# and whether it is a leap year, by its four digits.
_JAN1 = (np.arange(10001) - 1970).astype("datetime64[Y]").astype("datetime64[D]").astype(np.int32)
_LEAP = (np.diff(_JAN1) == 366).astype(np.int32)
_JAN1 = _JAN1[:-1]


@dataclass(frozen=True, eq=False)
class TripTable:
    """Trips as numpy columns, one row per trip in input order.

    car holds codes into car_ids, the sorted distinct car ids (a table taken
    from another keeps its ids); times are ``datetime64[s]``.
    """

    car_ids: np.ndarray
    car: np.ndarray
    pickup_time: np.ndarray
    dropoff_time: np.ndarray
    pickup_lat: np.ndarray
    pickup_lon: np.ndarray
    dropoff_lat: np.ndarray
    dropoff_lon: np.ndarray

    def __len__(self) -> int:
        return len(self.car)

    def take(self, rows) -> TripTable:
        """The trips a boolean mask or an index array selects, in its order."""
        return TripTable(self.car_ids, *(getattr(self, f.name)[rows] for f in fields(self)[1:]))


@dataclass(frozen=True)
class Bbox:
    """Half-open geographic box: lower bounds inclusive, upper bounds exclusive.

    Each span must be positive and finite, which also refuses infinite
    bounds and finite bounds whose difference overflows: binning divides by it.
    """

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        if not all(0 < span < np.inf for span in (self.lat_max - self.lat_min, self.lon_max - self.lon_min)):
            raise ValueError("bounding box must have positive, finite extent")

    def contains(self, lat, lon):
        """Whether each point lies in the box; scalars or arrays."""
        return (
            (self.lat_min <= lat) & (lat < self.lat_max)
            & (self.lon_min <= lon) & (lon < self.lon_max)
        )


DEFAULT_BBOX = Bbox(*DEFAULT_BBOX_BOUNDS)


@dataclass
class ParseResult:
    """Parsed trips plus a count of rows dropped as malformed."""

    records: TripTable
    skipped: int


def _timestamps(texts: np.ndarray | Sequence[str]) -> np.ndarray:
    """``strptime(text, TIMESTAMP_FORMAT)`` of each field as datetime64[s], NaT where it fails.

    texts is a plain block's ``S`` array (ASCII without NUL, so its first
    NUL ends each value) or csv row strings.  A canonical
    ``YYYY-MM-DD HH:MM:SS`` string naming a real second of a nonzero year
    is read from its digits at their fixed offsets, its day number that
    of its year's January 1 (``_JAN1``) plus the days before it in its
    year, which is what strptime gives for it; any other string
    (unpadded, ``T``-separated, out of range, with a NUL) goes to strptime
    itself.  The digits are read here because numpy's ``datetime64[s]``
    cast of an ``S19`` array segfaults on NumPy 2.4.6 when some 600 or more
    stamps hold one that fails to parse (``2013-02-30 07:00:00``).
    """
    n = len(texts)
    if isinstance(texts, np.ndarray):
        codes = texts.view(np.uint8).reshape(n, texts.dtype.itemsize)
        width = codes.shape[1]
        if width < 19:
            codes = np.zeros((n, 19), np.uint8)
        elif width > 19:  # a value of exactly 19 characters has NUL padding after them
            codes = np.where(codes[:, 19:20] == 0, codes[:, :19], 0)
    else:
        stamp = np.fromiter(map(len, texts), np.int64, n) == 19
        # other characters than ASCII, and strings of another length, as NULs: never canonical
        codes = np.array([t if ok and t.isascii() else "" for t, ok in zip(texts, stamp.tolist())], "S19")
        codes = codes.view(np.uint8).reshape(n, 19)
    digits = codes - np.uint8(ord("0"))
    layout = codes - digits * (digits < 10)
    flat = layout.ravel()
    rows = None  # every row canonical
    if not (n and layout[0].tobytes() == _STAMP and (flat[19:] == flat[:-19]).all()):
        rows = np.flatnonzero(np.ascontiguousarray(layout).view("S19").ravel() == _STAMP)
        digits = digits[rows]
    # two digits make at most 99, so each pair is read in uint8
    pairs = (_YEAR, _YEAR + 2, _MONTH, _DAY, _HOUR, _MINUTE, _SECOND)
    century, year, month, day, hour, minute, second = (digits[:, i] * np.uint8(10) + digits[:, i + 1] for i in pairs)
    year = century.astype(np.int32) * 100 + year  # widened first, as a uint8 product would wrap
    leap = _LEAP[year]
    real = ((year >= 1) & (1 <= day) & (day <= _MONTH_DAYS[month] + (leap & (month == 2)))
            & (hour < 24) & (minute < 60) & (second < 60))
    days = _JAN1[year] + _DAYS_BEFORE[month] + leap * (month > 2) + day - 1
    seconds = days.astype(np.int64) * 86400 + ((hour.astype(np.int32) * 60 + minute) * 60 + second)
    stamps = np.where(real, seconds.view("datetime64[s]"), np.datetime64("NaT", "s"))
    if rows is None:
        out = stamps
    else:
        out = np.full(n, np.datetime64("NaT"), dtype="datetime64[s]")
        out[rows] = stamps
    for i in np.flatnonzero(np.isnat(out)).tolist():
        with suppress(ValueError):
            out[i] = dt.datetime.strptime(_text(texts[i]), TIMESTAMP_FORMAT)
    return out


def _trip_columns(ids: dict[str, int], cars, pickup, dropoff, *coords) -> tuple[tuple, int]:
    """One chunk's mapped fields as trip columns, and how many of its rows the row rule skips.

    The fields are a plain block's ``S`` arrays or csv row strings.  A car
    id not seen before takes the next code in ids.
    """
    # the two ends of each field pair are read in one pass
    pickup, dropoff = np.split(_timestamps(_pair(pickup, dropoff)), 2)
    plat, dlat = np.split(_cast(_pair(coords[0], coords[2]), np.dtype(np.float64), np.nan), 2)
    plon, dlon = np.split(_cast(_pair(coords[1], coords[3]), np.dtype(np.float64), np.nan), 2)
    coords = plat, plon, dlat, dlon
    keep = (dropoff >= pickup) & np.isfinite(coords).all(axis=0)
    if keep.all():
        keep = slice(None)
    if isinstance(cars, np.ndarray):
        cars = cars[keep]
        first, inverse = _distinct_rows(cars.view(np.uint8).reshape(len(cars), cars.dtype.itemsize))
        names = cars[first].astype(str).tolist()
    else:
        names, inverse = np.unique(np.array(cars, dtype=object)[keep], return_inverse=True)
        names = names.tolist()
    car = np.array([ids.setdefault(name, len(ids)) for name in names], dtype=np.int64)[inverse]
    return (car, *(col[keep] for col in (pickup, dropoff, *coords))), len(pickup) - len(car)


def _distinct_rows(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One of each distinct row of a 2-d uint8 array, in the rows' byte order, and each row's index among them.

    Rows sort as their bytes read as big-endian 8-byte words (``np.lexsort``),
    which is the order of their ``S`` strings when they hold no NUL but padding.
    """
    n, width = codes.shape
    padded = np.zeros((n, -(-width // 8) * 8), np.uint8)
    padded[:, :width] = codes
    words = padded.view(">u8")
    order = np.argsort(words[:, 0]) if words.shape[1] == 1 else np.lexsort(words.T[::-1])
    words = words[order]
    first = np.ones(n, bool)
    first[1:] = (words[1:] != words[:-1]).any(axis=1)
    inverse = np.empty(n, np.int64)
    inverse[order] = np.cumsum(first) - 1
    return order[first], inverse


def _pair(first, second):
    """Two equal-length fields, ``S`` arrays or strings, one after the other."""
    return np.concatenate([first, second]) if isinstance(first, np.ndarray) else [*first, *second]


def parse_trips(path, column_mapping: Mapping[str, str] | None = None) -> ParseResult:
    """Read trips from a headered CSV into a ``TripTable``, skipping malformed rows.

    column_mapping sends ``TripTable`` column names (the keys of
    ``DEFAULT_COLUMNS``) to CSV column names; unmapped ones use the stock
    yellow-cab names.  A row is malformed if any mapped value is missing, a
    timestamp fails ``datetime.strptime(text, TIMESTAMP_FORMAT)`` (which
    also accepts unpadded fields such as ``2013-1-5 7:5:3`` and runs of
    whitespace between date and time), a coordinate is not a finite
    ``float()``, or the dropoff precedes the pickup.  Blank lines are not
    rows.  The chunks come from ``csvblocks`` (plain byte blocks cast whole,
    the csv rows of any other block), whose contract raises on bytes that are
    not UTF-8 and oversize fields.  The table keeps input order.
    """
    mapping = dict(DEFAULT_COLUMNS)
    if column_mapping:
        unknown = set(column_mapping) - set(mapping)
        if unknown:
            raise SchemaError(f"unknown trip fields in column mapping: {sorted(unknown)}")
        mapping.update(column_mapping)
    ids: dict[str, int] = {}
    columns = [(np.zeros(0, np.int64), *[np.zeros(0, "datetime64[s]")] * 2, *[np.zeros(0)] * 4)]
    skipped = 0
    # chunk rows hold no reference cycles; pausing the collector spares it
    # re-walking them on every allocation burst
    collecting = gc.isenabled()
    gc.disable()
    try:
        with CsvBlocks(path) as blocks:
            where = blocks.where([mapping[f] for f in DEFAULT_COLUMNS])
            for chunk in blocks.chunks(max(where) + 1):
                cols, dropped = _trip_columns(ids, *map(chunk.column, where))
                columns.append(cols)
                skipped += dropped + chunk.short
    finally:
        if collecting:
            gc.enable()
    # ids holds each car's code in insertion order; its sort order gives the final codes
    car_ids, rank = np.unique(np.array(list(ids), dtype=object), return_inverse=True)
    car, *rest = (np.concatenate(col) for col in zip(*columns))
    table = TripTable(car_ids, rank[car], *rest)
    return ParseResult(records=table, skipped=skipped)


def filter_bbox(trips: TripTable, bbox: Bbox = DEFAULT_BBOX) -> TripTable:
    """Keep trips whose pickup and dropoff both fall inside the box."""
    return trips.take(
        bbox.contains(trips.pickup_lat, trips.pickup_lon)
        & bbox.contains(trips.dropoff_lat, trips.dropoff_lon)
    )


def bin_point(
    lat,
    lon,
    rows: int = DEFAULT_GRID_ROWS,
    cols: int = DEFAULT_GRID_COLS,
    bbox: Bbox = DEFAULT_BBOX,
):
    """Equal-width bins of in-box coordinates, scalars or arrays.

    The top edge clamps into the last bin.
    """
    lat, lon = np.asarray(lat), np.asarray(lon)
    if not np.all(bbox.contains(lat, lon)):
        raise ValueError(f"point ({lat}, {lon}) lies outside the bounding box")
    row = ((lat - bbox.lat_min) / (bbox.lat_max - bbox.lat_min) * rows).astype(np.int64)
    col = ((lon - bbox.lon_min) / (bbox.lon_max - bbox.lon_min) * cols).astype(np.int64)
    return np.minimum(row, rows - 1), np.minimum(col, cols - 1)


def bin_to_grid(
    trips: TripTable,
    rows: int = DEFAULT_GRID_ROWS,
    cols: int = DEFAULT_GRID_COLS,
    bbox: Bbox = DEFAULT_BBOX,
) -> tuple[np.ndarray, np.ndarray]:
    """Map trips to requests: row-major cell indices of their endpoints."""
    pr, pc = bin_point(trips.pickup_lat, trips.pickup_lon, rows, cols, bbox)
    dr, dc = bin_point(trips.dropoff_lat, trips.dropoff_lon, rows, cols, bbox)
    return pr * cols + pc, dr * cols + dc


@dataclass
class SegmentResult:
    """Trips partitioned by (segment, pickup date); out-of-segment trips counted."""

    parts: dict[str, dict[dt.date, TripTable]]
    dropped: int

    def dates(self, segment: str) -> list[dt.date]:
        return sorted(self.parts[segment.lower()])


def segment_by_time(trips: TripTable) -> SegmentResult:
    """Assign trips to daily segments by pickup hour, one part per date in input order."""
    day = trips.pickup_time.astype("datetime64[D]")
    hour = (trips.pickup_time - day).astype(np.int64) // 3600
    parts: dict[str, dict[dt.date, TripTable]] = {}
    kept = 0
    for name, (start, end) in SEGMENTS.items():
        rows = np.flatnonzero((start <= hour) & (hour < end))
        rows = rows[np.argsort(day[rows], kind="stable")]
        dates, first = np.unique(day[rows], return_index=True)
        parts[name] = {
            date: trips.take(part)
            for date, part in zip(dates.tolist(), np.split(rows, first[1:]))
        }
        kept += len(rows)
    return SegmentResult(parts=parts, dropped=len(trips) - kept)


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
    requests,
    slots: int,
    rows: int = DEFAULT_GRID_ROWS,
    cols: int = DEFAULT_GRID_COLS,
) -> RateEstimate:
    """Empirical per-second arrival frequencies with distance weights.

    requests are binned (origin cell, destination cell) pairs, as a
    sequence of pairs or a (k, 2) array; slots is the total count of
    per-second rounds the sample spans (window seconds times number of
    dates).
    """
    if slots < 1:
        raise ValueError("rate estimation needs at least one per-second slot")
    grid = build_grid(rows, cols)
    n = grid.n
    pairs = np.asarray(requests, dtype=np.int64).reshape(-1, 2)
    grid.check_locations(pairs)
    counts = np.bincount(pairs[:, 0] * n + pairs[:, 1], minlength=n * n).reshape(n, n)
    p = counts / slots
    rescale = max(1.0, float(p.sum()))
    p /= rescale
    model = RequestModel(grid=grid, p=p, w=distance_weights(grid))
    return RateEstimate(model=model, rescale=rescale, requests=len(pairs), slots=slots)


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
    pairs = [np.column_stack(bin_to_grid(parts[date], rows, cols, bbox)) for date in dates]
    return estimate_rates(np.concatenate(pairs), segment_seconds(segment) * len(dates), rows, cols)


def subsample_cars(trips: TripTable, k: int, seed: int) -> TripTable:
    """Keep the trips of k distinct cars drawn uniformly without replacement.

    The candidates are the cars present, in sorted id order, so the result
    depends only on (set of ids, k, seed), not on trip order.
    """
    present = np.unique(trips.car)
    if k < 0 or k > len(present):
        raise ValueError(f"cannot sample {k} cars from {len(present)} distinct ids")
    chosen = present[stream(seed).choice(len(present), size=k, replace=False)]
    return trips.take(np.isin(trips.car, chosen))


def build_replay(
    trips: TripTable,
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
    start_hour = SEGMENTS[segment][0]
    if date is None:
        dates = np.unique(trips.pickup_time.astype("datetime64[D]")).tolist()
        if len(dates) != 1:
            raise ValueError(f"records span {len(dates)} dates; pass one date per trace")
        (date,) = dates
    window_start = np.datetime64(date, "s") + np.timedelta64(start_hour * 3600, "s")
    rnd = (trips.pickup_time - window_start).astype(np.int64)
    outside = np.flatnonzero((rnd < 0) | (rnd >= segment_seconds(segment)))
    if len(outside):
        when = trips.pickup_time[outside[0]].item()
        raise ValueError(f"trip at {when} lies outside {segment} of {date}")
    u, v = bin_to_grid(trips, rows, cols, bbox)
    weight = distance_weights(build_grid(rows, cols))[u, v]
    order = np.argsort(rnd, kind="stable")
    return ReplayTrace(*(a[order] for a in (rnd, u, v, weight)), rounds=segment_seconds(segment),
                       segment=segment, date=date)


def write_replay(path, trace: ReplayTrace) -> None:
    """Write rows ``round,origin,dest,weight`` with ``\\r\\n`` line breaks."""
    write_table(path, ["round", "origin", "dest", "weight"], Columns("%d,%d,%d,%.17g", trace.columns), end="\r\n")


def read_replay(path) -> ReplayTrace:
    """Load a replay CSV through ``csvblocks.read_table``; the round count is inferred from the last entry."""
    columns = read_table(path, ("round", "origin", "dest", "weight"), (np.int64, np.int64, np.int64, np.float64))
    return ReplayTrace(*columns, rounds=int(columns[0][-1]) + 1 if len(columns[0]) else 0)


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


#: Rows drawn, formatted and written per step of ``make_fixture``.
FIXTURE_BLOCK_ROWS = 2048

#: The most cars whose draw follows numpy's 32-bit bounded-integer rule.
FIXTURE_MAX_CARS = 2**32 - 1

# A fixture row draws, in order: its car, date, second of the day and trip
# seconds above 120 (bounded integers); per endpoint a unit latitude and
# longitude, then per coordinate a test that moves it one box span out with
# probability 0.13 and, if it does, a sign; last the passenger count less one.
_TRIP_SECONDS = (120, 2400)
_PASSENGERS = 4
_LEAVE, _SIGN = 0.13, 0.5
_ROW = "CAR%05d,LIC%05d,%s,1,N,%s,%s,%d,%d,%.2f,%.6f,%.6f,%.6f,%.6f"


def _leading_ranges(cars: int) -> tuple[int, ...]:
    return cars, len(FIXTURE_DATES), 86400, _TRIP_SECONDS[1] - _TRIP_SECONDS[0]


def _fixture_row(draws: RawDraws, cars: int):
    """One row's draws, one scalar draw at a time: its bounded values, units and shifts."""
    values = [draws.integers(r) for r in _leading_ranges(cars)]
    units, shifts = [], []
    for _ in range(2):
        units += [draws.random(), draws.random()]
        for _ in range(2):
            shifts.append((1 if draws.random() < _SIGN else -1) if draws.random() < _LEAVE else 0)
    return values + [draws.integers(_PASSENGERS)], units, shifts


def _endpoint(u: np.ndarray, e: np.ndarray):
    """Read endpoints whose doubles start at words ``e``.

    Returns, per coordinate, the word of its leave test and whether it
    leaves (its sign is the next word), then the word after the endpoint.
    """
    lat_out = np.take(u, e + 2, mode="clip") < _LEAVE
    lon_at = e + 3 + lat_out
    lon_out = np.take(u, lon_at, mode="clip") < _LEAVE
    return (e + 2, lat_out), (lon_at, lon_out), lon_at + 1 + lon_out


def _rejects(halves: np.ndarray, r: int) -> np.ndarray:
    """Whether the bounded draw of range ``r`` rejects each uint32 half-word."""
    return halves * np.uint32(r) < (1 << 32) % r


def _layout(halves: np.ndarray, u: np.ndarray, cars: int) -> list[int]:
    """The half position of the next fixture row after a row starting at each half position of a buffer.

    A row at an even position reads the low half of word ``t // 2`` first;
    at an odd one, the pending high half of that word.  The entry is -1
    where a bounded draw of the row rejects and -2 where the row reads past
    the buffer; such rows are left to the scalar draws.
    """
    n = len(u)
    t = np.arange(2 * n + 1, dtype=np.int32)
    ranges = [r for r in _leading_ranges(cars) if r > 1]
    after = _endpoint(u, np.arange(n + 1, dtype=np.int32))[-1]
    h = t + len(ranges)
    q = after[np.minimum(after, n)][np.minimum((h + 1) >> 1, n)]
    pending = (h & 1).astype(bool)
    passengers = np.where(pending, h, 2 * q)
    reject = _rejects(np.take(halves, passengers, mode="clip"), _PASSENGERS)
    for j, r in enumerate(ranges):
        reject |= _rejects(np.take(halves, t + j, mode="clip"), r)
    nxt = np.where(reject, -1, 2 * q + ~pending)
    nxt[(q > n) | (passengers >= 2 * n)] = -2
    return nxt.tolist()


def _rows_at(t: np.ndarray, halves: np.ndarray, u: np.ndarray, cars: int):
    """The bounded values, units and shifts of the fixture rows ``_layout`` passes at half positions ``t``."""
    values, h = [], t
    for r in _leading_ranges(cars):
        values.append((halves[h].astype(np.uint64) * r >> 32).astype(np.int64))
        h = h + (r > 1)
    units, shifts = [], []
    e = (h + 1) // 2
    for _ in range(2):
        *tests, after = _endpoint(u, e)
        units += [u[e], u[e + 1]]
        shifts += [np.where(out, np.where(u[at + 1] < _SIGN, 1, -1), 0) for at, out in tests]
        e = after
    passengers = np.where(h % 2 == 1, h, 2 * e)
    values.append((halves[passengers].astype(np.uint64) * _PASSENGERS >> 32).astype(np.int64))
    return values, units, shifts


def _fixture_draws(draws: RawDraws, rows: int, cars: int):
    """The next ``rows`` rows' draws: bounded values (rows, 5), units and shifts (rows, 4).

    Each buffer of raw words is laid out once; the rows are one walk over
    the layout.  A row whose draw rejects is replayed scalar, and a row that
    runs past the buffer tops it up.
    """
    values = np.empty((rows, 5), np.int64)
    units = np.empty((rows, 4))
    shifts = np.empty((rows, 4), np.int64)
    done = 0
    while done < rows:
        # a row reads 11 words on average and at most 15 unless a draw rejects
        draws.top_up(12 * (rows - done) + 64)
        words = draws.words
        halves = np.stack([words & 0xFFFFFFFF, words >> 32], axis=1).astype(np.uint32).ravel()
        u = (words >> 11) * 2.0**-53
        nxt = _layout(halves, u, cars)
        while done < rows and draws.words is words:
            t = 2 * draws.pos - (draws.half is not None)
            starts = []
            for _ in range(rows - done):
                if (n := nxt[t]) < 0:
                    break
                starts.append(t)
                t = n
            if starts:
                block = slice(done, done + len(starts))
                for out, cols in zip((values, units, shifts), _rows_at(np.array(starts), halves, u, cars)):
                    out[block] = np.column_stack(cols)
                done += len(starts)
                draws.pos, draws.half = (t + 1) // 2, int(halves[t]) if t % 2 else None
            if done == rows or nxt[t] == -2:
                break
            values[done], units[done], shifts[done] = _fixture_row(draws, cars)
            done += 1
    return values, units, shifts


def _fixture_rows(values: np.ndarray, units: np.ndarray, shifts: np.ndarray) -> Columns:
    """The table body of rows with these draws."""
    bbox = DEFAULT_BBOX
    low = np.array([bbox.lat_min, bbox.lon_min] * 2)
    span = np.array([bbox.lat_max - bbox.lat_min, bbox.lon_max - bbox.lon_min] * 2)
    coords = low + units * span
    coords = np.where(shifts != 0, coords + span * shifts, coords)
    plat, plon, dlat, dlon = coords.T
    distance = 0.2 + np.abs(plat - dlat) * 69.0 + np.abs(plon - dlon) * 52.0
    car, date, second, extra, passengers = values.T
    pickup = np.array(FIXTURE_DATES, "datetime64[s]")[date] + second
    duration = _TRIP_SECONDS[0] + extra
    stamps = [np.datetime_as_string(stamp, unit="s") for stamp in (pickup, pickup + duration)]
    for text in stamps:
        text.view(np.uint32).reshape(len(text), -1)[:, 10] = ord(" ")  # ISO "T" to the format's space
    vendor = np.array(["VTS", "CMT"])[car % 2]
    columns = [car, car, vendor, *stamps, 1 + passengers, duration, distance, plon, plat, dlon, dlat]
    return Columns(_ROW, columns)


def make_fixture(path, trips: int = 1000, seed: int = 0, cars: int = 40) -> int:
    """Write a synthetic trip CSV in the stock 14-column yellow-cab layout.

    Rows are deterministic in (trips, seed, cars).  Each coordinate leaves
    the default bounding box with probability 0.13, so about 43% of the
    trips (1 - 0.87**4) have an endpoint outside it, and pickup hours cover
    the whole day, so every pipeline stage has work to do.  The bytes are
    those of drawing each row's values one scalar ``Generator`` draw at a
    time from ``stream(seed, 99)``; they are computed from its raw Philox
    words by the rule of ``rng.RawDraws``, ``FIXTURE_BLOCK_ROWS`` rows at a
    time.  Returns the number of rows written.
    """
    if trips < 0:
        raise ValueError(f"trips must be >= 0, got {trips}")
    if not 1 <= cars <= FIXTURE_MAX_CARS:
        raise ValueError(f"cars must lie in [1, {FIXTURE_MAX_CARS}], got {cars}")
    draws = RawDraws(stream(seed, 99).bit_generator)
    blocks = (_fixture_rows(*_fixture_draws(draws, min(FIXTURE_BLOCK_ROWS, trips - start), cars))
              for start in range(0, trips, FIXTURE_BLOCK_ROWS))
    write_table(path, FIXTURE_COLUMNS, blocks, end="\r\n")
    return trips
