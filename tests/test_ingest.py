"""Trip ingestion: parsing, geofencing, binning, segmentation, rates, replay."""

import csv
import datetime as dt
import hashlib
import random
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dispatchlab import csvblocks, ingest
from dispatchlab.errors import SchemaError
from dispatchlab.grid import build_grid, manhattan_distance
from dispatchlab.ingest import (
    DEFAULT_BBOX,
    DEFAULT_BBOX_BOUNDS,
    FIXTURE_COLUMNS,
    FIXTURE_DATES,
    Bbox,
    bin_point,
    bin_to_grid,
    build_replay,
    estimate_rates,
    estimate_segment_rates,
    filter_bbox,
    make_fixture,
    parse_trips,
    read_replay,
    segment_by_time,
    segment_seconds,
    subsample_cars,
    write_replay,
)
from oracles import (
    TripRecord,
    bin_point_scalar,
    build_replay_rows,
    estimate_segment_rates_rows,
    filter_bbox_rows,
    make_fixture_rows,
    parse_trips_rows,
    records_from_table,
    segment_rows,
    subsample_rows,
    table_from_records,
)

MID_LAT = (DEFAULT_BBOX_BOUNDS[0] + DEFAULT_BBOX_BOUNDS[1]) / 2
MID_LON = (DEFAULT_BBOX_BOUNDS[2] + DEFAULT_BBOX_BOUNDS[3]) / 2


def trip(
    car="CAR00001",
    pickup="2013-01-14 08:30:00",
    dropoff="2013-01-14 08:45:00",
    plat=MID_LAT,
    plon=MID_LON,
    dlat=MID_LAT,
    dlon=MID_LON,
) -> TripRecord:
    fmt = "%Y-%m-%d %H:%M:%S"
    return TripRecord(
        car,
        dt.datetime.strptime(pickup, fmt),
        dt.datetime.strptime(dropoff, fmt),
        plat,
        plon,
        dlat,
        dlon,
    )


def write_rows(path, rows, columns=None):
    columns = columns or [
        "medallion",
        "pickup_datetime",
        "dropoff_datetime",
        "pickup_latitude",
        "pickup_longitude",
        "dropoff_latitude",
        "dropoff_longitude",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def test_parse_trips_roundtrip(tmp_path):
    path = tmp_path / "trips.csv"
    write_rows(
        path,
        [
            ["A", "2013-01-14 07:00:00", "2013-01-14 07:10:00", "40.75", "-74.0", "40.76", "-73.99"],
            ["B", "2013-01-15 22:01:02", "2013-01-15 22:30:00", "40.71", "-73.96", "40.72", "-73.97"],
        ],
    )
    result = parse_trips(path)
    assert result.skipped == 0
    assert len(result.records) == 2
    first = records_from_table(result.records)[0]
    assert first.car_id == "A"
    assert first.pickup_time == dt.datetime(2013, 1, 14, 7, 0, 0)
    assert first.dropoff_time == dt.datetime(2013, 1, 14, 7, 10, 0)
    assert (first.pickup_lat, first.pickup_lon) == (40.75, -74.0)
    assert (first.dropoff_lat, first.dropoff_lon) == (40.76, -73.99)


def test_parse_trips_skips_malformed_rows(tmp_path):
    path = tmp_path / "trips.csv"
    good = ["A", "2013-01-14 07:00:00", "2013-01-14 07:10:00", "40.75", "-74.0", "40.76", "-73.99"]
    write_rows(
        path,
        [
            good,
            ["B", "2013/01/14 07:00:00", "2013-01-14 07:10:00", "40.75", "-74.0", "40.76", "-73.99"],
            ["C", "2013-01-14 07:00:00", "2013-01-14 07:10:00", "nan", "-74.0", "40.76", "-73.99"],
            ["D", "2013-01-14 07:00:00", "2013-01-14 07:10:00", "forty", "-74.0", "40.76", "-73.99"],
            ["E", "2013-01-14 07:10:00", "2013-01-14 07:00:00", "40.75", "-74.0", "40.76", "-73.99"],
            ["F", "", "2013-01-14 07:10:00", "40.75", "-74.0", "40.76", "-73.99"],
        ],
    )
    result = parse_trips(path)
    assert [r.car_id for r in records_from_table(result.records)] == ["A"]
    assert result.skipped == 5


def test_parse_trips_schema_errors(tmp_path):
    path = tmp_path / "trips.csv"
    write_rows(path, [], columns=["medallion", "pickup_datetime"])
    with pytest.raises(SchemaError):
        parse_trips(path)
    good = tmp_path / "named.csv"
    write_rows(
        good,
        [["A", "2013-01-14 07:00:00", "2013-01-14 07:10:00", "40.75", "-74.0", "40.76", "-73.99"]],
        columns=["cab", "pickup_datetime", "dropoff_datetime", "pickup_latitude",
                 "pickup_longitude", "dropoff_latitude", "dropoff_longitude"],
    )
    with pytest.raises(SchemaError):
        parse_trips(good, column_mapping={"vehicle": "cab"})
    result = parse_trips(good, column_mapping={"car_id": "cab"})
    assert records_from_table(result.records)[0].car_id == "A"


def test_bbox_is_half_open():
    lat_min, lat_max, lon_min, lon_max = DEFAULT_BBOX_BOUNDS
    assert DEFAULT_BBOX.contains(lat_min, lon_min)
    assert not DEFAULT_BBOX.contains(lat_max, lon_min)
    assert not DEFAULT_BBOX.contains(lat_min, lon_max)
    assert DEFAULT_BBOX.contains(MID_LAT, MID_LON)
    with pytest.raises(ValueError):
        Bbox(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Bbox(0.0, 1.0, 2.0, 1.0)
    # infinite or NaN bounds, and finite bounds whose span overflows, would bin every trip to cell 0
    for bad in [(-np.inf, np.inf, 0.0, 1.0), (0.0, 1.0, -np.inf, 0.0), (0.0, np.inf, 0.0, 1.0),
                (np.nan, 1.0, 0.0, 1.0), (-1e308, 1e308, 0.0, 1.0), (0.0, 1.0, -1e308, 1e308)]:
        with pytest.raises(ValueError, match="finite"):
            Bbox(*bad)
    assert Bbox(-1e307, 1e307, 0.0, 1.0).contains(0.0, 0.5)


def test_filter_bbox_requires_both_endpoints_inside():
    inside = trip()
    pickup_out = trip(plat=DEFAULT_BBOX.lat_max + 0.01)
    dropoff_out = trip(dlon=DEFAULT_BBOX.lon_min - 0.01)
    kept = filter_bbox(table_from_records([inside, pickup_out, dropoff_out]))
    assert records_from_table(kept) == [inside]


def test_bin_point_examples():
    lat_min, lat_max, lon_min, lon_max = DEFAULT_BBOX_BOUNDS
    assert bin_point(lat_min, lon_min) == (0, 0)
    assert bin_point(MID_LAT, MID_LON) == (10, 5)
    # values arbitrarily close to the open edge clamp into the last bin
    assert bin_point(lat_max - 1e-9, lon_max - 1e-9) == (20, 10)
    with pytest.raises(ValueError):
        bin_point(lat_max, lon_min)
    # a coarser grid over a unit box for hand-checked arithmetic
    box = Bbox(0.0, 1.0, 0.0, 1.0)
    assert bin_point(0.49, 0.74, rows=2, cols=4, bbox=box) == (0, 2)
    assert bin_point(0.5, 0.75, rows=2, cols=4, bbox=box) == (1, 3)


def test_bin_to_grid_row_major():
    box = Bbox(0.0, 1.0, 0.0, 1.0)
    r = table_from_records([trip(plat=0.1, plon=0.1, dlat=0.9, dlon=0.9)])
    assert [a.tolist() for a in bin_to_grid(r, rows=2, cols=2, bbox=box)] == [[0], [3]]
    assert [a.tolist() for a in bin_to_grid(r, rows=3, cols=3, bbox=box)] == [[0], [8]]


def test_segmentation_boundaries():
    records = [
        trip(pickup="2013-01-14 06:59:59", dropoff="2013-01-14 07:30:00"),
        trip(pickup="2013-01-14 07:00:00", dropoff="2013-01-14 07:30:00"),
        trip(pickup="2013-01-14 10:59:59", dropoff="2013-01-14 11:30:00"),
        trip(pickup="2013-01-14 11:00:00", dropoff="2013-01-14 11:30:00"),
        trip(pickup="2013-01-15 14:59:59", dropoff="2013-01-15 15:10:00"),
        trip(pickup="2013-01-15 15:00:00", dropoff="2013-01-15 15:10:00"),
        trip(pickup="2013-01-15 18:59:59", dropoff="2013-01-15 19:10:00"),
        trip(pickup="2013-01-15 19:00:00", dropoff="2013-01-15 19:10:00"),
    ]
    seg = segment_by_time(table_from_records(records))
    assert seg.dropped == 2  # 06:59:59 and 19:00:00
    day1 = dt.date(2013, 1, 14)
    day2 = dt.date(2013, 1, 15)
    assert len(seg.parts["morning"][day1]) == 2
    assert len(seg.parts["afternoon"][day1]) == 1
    assert len(seg.parts["afternoon"][day2]) == 1
    assert len(seg.parts["evening"][day2]) == 2
    assert seg.dates("morning") == [day1]
    assert seg.dates("afternoon") == [day1, day2]
    for name in ("morning", "afternoon", "evening"):
        assert segment_seconds(name) == 4 * 3600


def test_estimate_rates_frequencies_and_weights():
    est = estimate_rates([(0, 3)], slots=10, rows=2, cols=2)
    assert est.model.p[0, 3] == pytest.approx(0.1)
    assert est.model.p.sum() == pytest.approx(0.1)
    assert est.rescale == 1.0
    assert est.requests == 1 and est.slots == 10
    # weights come from grid distance: (0, 3) is two moves apart on 2x2
    assert est.model.w[0, 3] == manhattan_distance(est.model.grid, 0, 3)
    assert est.model.w[0, 0] == 0


def test_estimate_rates_rescales_overfull_mass():
    est = estimate_rates([(0, 1)] * 30, slots=10, rows=2, cols=2)
    assert est.rescale == pytest.approx(3.0)
    assert est.model.p.sum() == pytest.approx(1.0)
    assert est.model.p[0, 1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        estimate_rates([], slots=0, rows=2, cols=2)
    with pytest.raises(ValueError):
        estimate_rates([(0, 9)], slots=10, rows=2, cols=2)


def test_estimate_segment_rates_single_trip():
    seg = segment_by_time(table_from_records([trip(pickup="2013-01-14 08:30:00")]))
    est = estimate_segment_rates(seg, "morning", seg.dates("morning"), rows=21, cols=11)
    # one request over one four-hour date window
    assert est.slots == 14400
    cell = 10 * 11 + 5
    assert est.model.p[cell, cell] == pytest.approx(1 / 14400)
    with pytest.raises(ValueError):
        estimate_segment_rates(seg, "evening", seg.dates("evening"))


def test_estimate_segment_rates_pools_dates():
    records = [
        trip(pickup="2013-01-14 08:30:00"),
        trip(pickup="2013-01-16 09:30:00"),
    ]
    seg = segment_by_time(table_from_records(records))
    est = estimate_segment_rates(seg, "morning", seg.dates("morning"))
    assert est.slots == 2 * 14400
    assert est.requests == 2
    # only the chosen dates' trips and windows count
    est = estimate_segment_rates(seg, "morning", seg.dates("morning")[1:])
    assert (est.slots, est.requests) == (14400, 1)


def test_subsample_cars_behaviour():
    rows = [trip(car=f"CAR{i:05d}") for i in range(12) for _ in range(2)]
    records = table_from_records(rows)
    assert records_from_table(subsample_cars(records, 0, seed=1)) == []
    assert records_from_table(subsample_cars(records, 12, seed=1)) == rows
    sample = records_from_table(subsample_cars(records, 5, seed=7))
    ids = {r.car_id for r in sample}
    assert len(ids) == 5
    assert len(sample) == 10  # both trips of each chosen car survive
    # deterministic in the seed, insensitive to record order
    again = records_from_table(subsample_cars(records, 5, seed=7))
    assert sample == again
    shuffled = rows[:]
    random.Random(3).shuffle(shuffled)
    chosen = lambda table: {r.car_id for r in records_from_table(table)}
    assert chosen(subsample_cars(table_from_records(shuffled), 5, seed=7)) == ids
    assert chosen(subsample_cars(records, 5, seed=8)) != ids
    with pytest.raises(ValueError):
        subsample_cars(records, 13, seed=1)
    with pytest.raises(ValueError):
        subsample_cars(records, -1, seed=1)


def test_build_replay_rounds_and_weights():
    records = [
        trip(pickup="2013-01-14 08:30:00", plat=MID_LAT, plon=MID_LON,
             dlat=DEFAULT_BBOX.lat_min + 1e-6, dlon=DEFAULT_BBOX.lon_min + 1e-6),
        trip(pickup="2013-01-14 07:00:00"),
        trip(pickup="2013-01-14 07:00:00", car="CAR00002"),
    ]
    trace = build_replay(table_from_records(records), "morning")
    assert trace.rounds == 14400
    assert trace.segment == "morning" and trace.date == dt.date(2013, 1, 14)
    assert trace.round.tolist() == [0, 0, 5400]
    # same-second entries keep their input order
    assert trace.round[0] == 0 and trace.round[1] == 0
    # the cross-town trip is weighted by the Manhattan cell distance
    rnd, u, v, w = entries(trace)[2]
    assert (u, v) == (10 * 11 + 5, 0)
    assert w == float(manhattan_distance(build_grid(21, 11), u, v))
    assert w == 10 + 5


def test_build_replay_date_handling():
    mixed = table_from_records(
        [trip(pickup="2013-01-14 08:00:00"), trip(pickup="2013-01-15 08:00:00")]
    )
    with pytest.raises(ValueError):
        build_replay(mixed, "morning")
    only_day2 = build_replay(mixed.take([1]), "morning", date=dt.date(2013, 1, 15))
    assert only_day2.date == dt.date(2013, 1, 15)


def test_build_replay_rejects_out_of_window_trips():
    with pytest.raises(ValueError):
        build_replay(table_from_records([trip(pickup="2013-01-14 12:00:00")]), "morning")
    with pytest.raises(ValueError):
        build_replay(
            table_from_records([trip(pickup="2013-01-14 08:00:00")]), "morning",
            date=dt.date(2013, 1, 15),
        )


def test_replay_csv_roundtrip(tmp_path):
    records = [
        trip(pickup="2013-01-14 07:00:03"),
        trip(pickup="2013-01-14 09:10:11"),
    ]
    trace = build_replay(table_from_records(records), "morning")
    path = tmp_path / "replay.csv"
    write_replay(path, trace)
    back = read_replay(path)
    assert entries(back) == entries(trace)
    assert back.rounds == trace.round[-1] + 1
    bad = tmp_path / "bad.csv"
    bad.write_text("round,origin,weight\n0,1,2.0\n")
    with pytest.raises(SchemaError):
        read_replay(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("round,origin,dest,weight\n")
    assert read_replay(empty).rounds == 0


def test_read_replay_reads_columns_as_dict_reader_does(tmp_path):
    """Columns in any order, extra and repeated ones, blank lines; a short or malformed row's line is named."""
    path = tmp_path / "replay.csv"
    path.write_text("weight,dest,round,extra,origin,dest\n1.5,9,0,x,2,3\n\n2.25,9,4,y,1,0,more\n")
    with open(path, newline="") as fh:
        expected = [(int(r["round"]), int(r["origin"]), int(r["dest"]), float(r["weight"]))
                    for r in csv.DictReader(fh)]
    back = read_replay(path)
    assert entries(back) == expected == [(0, 2, 3, 1.5), (4, 1, 0, 2.25)]
    assert back.rounds == 5
    bad_rows = {
        "0,1,1": "short row, no weight cell",
        "0,1,1,": "weight cell '' is not float64",
        "0,1,x,1.0": "dest cell 'x' is not int64",
        "0.5,1,1,1.0": "round cell '0.5' is not int64",
    }
    for row, why in bad_rows.items():
        bad = tmp_path / "bad.csv"
        bad.write_text(f"round,origin,dest,weight\n0,0,1,1.0\n{row}\n")
        with pytest.raises(SchemaError) as info:
            read_replay(bad)
        assert str(info.value) == f"{bad}: line 3: {why}"


def test_fixture_is_deterministic_and_parseable(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert make_fixture(a, trips=200, seed=4) == 200
    make_fixture(b, trips=200, seed=4)
    assert hashlib.sha256(a.read_bytes()).hexdigest() == hashlib.sha256(b.read_bytes()).hexdigest()
    c = tmp_path / "c.csv"
    make_fixture(c, trips=200, seed=5)
    assert a.read_bytes() != c.read_bytes()
    with open(a, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == FIXTURE_COLUMNS
    parsed = parse_trips(a)
    assert parsed.skipped == 0
    assert len(parsed.records) == 200
    dates = {r.pickup_time.date() for r in records_from_table(parsed.records)}
    assert dates.issubset(set(FIXTURE_DATES))
    # some trips leave the analysis box, so the geofence has work to do
    kept = filter_bbox(parsed.records)
    assert 0 < len(kept) < 200


def test_fixture_feeds_the_whole_pipeline(tmp_path):
    path = tmp_path / "trips.csv"
    make_fixture(path, trips=400, seed=0)
    records = filter_bbox(parse_trips(path).records)
    seg = segment_by_time(records)
    est = estimate_segment_rates(seg, "morning", seg.dates("morning"))
    assert est.rescale == 1.0
    assert 0 < float(est.model.p.sum()) < 1
    date = seg.dates("morning")[0]
    trace = build_replay(seg.parts["morning"][date], "morning", date=date)
    assert trace.rounds == 14400
    assert ((0 <= trace.round) & (trace.round < 14400)).all()


# Recorded from the row-by-row generator.  (3000, 0, 40) is the tiny class-0
# fixture of bench/reference.json; (20000, 4, 400) includes row 19,762, whose
# 86,400-second draw rejects a half-word.
FIXTURE_SHA256 = {
    (3000, 0, 40): "dacf4b80bfd031413873caf1d12896d627a1c275cf575d8173ec5fe8884e5809",
    (20000, 4, 400): "b7bd33869aa2bd24be3b942e49e9ec32e953aa84e5347e24b89dc717c78e4ae2",
}


@pytest.mark.parametrize("trips, seed, cars", sorted(FIXTURE_SHA256))
def test_fixture_bytes_are_pinned(tmp_path, trips, seed, cars):
    path = tmp_path / "trips.csv"
    make_fixture(path, trips=trips, seed=seed, cars=cars)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FIXTURE_SHA256[trips, seed, cars]


def same_fixture(tmp_path, trips, seed, cars) -> bool:
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    assert make_fixture(new, trips=trips, seed=seed, cars=cars) == trips
    make_fixture_rows(old, trips=trips, seed=seed, cars=cars)
    return new.read_bytes() == old.read_bytes()


# cars=1 draws no car; 2**31 + 1 rejects about half its half-words and the
# largest count about one in 2**32; 100,001 cars print six digits.
@pytest.mark.parametrize("trips, seed, cars", [
    (1500, 0, 40), (2500, 3, 400), (900, 5, 1), (900, 6, 2), (700, 7, 100_001),
    (600, 8, 2**31 + 1), (400, 9, 2**32 - 1),
])
def test_fixture_matches_the_row_generator(tmp_path, trips, seed, cars):
    assert same_fixture(tmp_path, trips, seed, cars)


@pytest.mark.parametrize("cars", [40, 1, 2**31 + 1])
def test_fixture_matches_the_row_generator_across_blocks(tmp_path, cars):
    """Leftover words and a pending half-word carry from block to block."""
    block = 5
    with mock.patch.object(ingest, "FIXTURE_BLOCK_ROWS", block):
        for trips in (0, block - 1, block, block + 1, 4 * block + 2):
            assert same_fixture(tmp_path, trips, 11, cars), trips


def test_fixture_rejects_counts_outside_the_replay(tmp_path):
    for kwargs in ({"trips": -1}, {"cars": 0}, {"cars": 2**32}):
        with pytest.raises(ValueError):
            make_fixture(tmp_path / "trips.csv", **kwargs)
    assert not (tmp_path / "trips.csv").exists()


# ---------------------------------------------------------------------------
# The columnar pipeline against the record-by-record oracles

DIFF = settings(derandomize=True, max_examples=60, deadline=None)

COLUMNS = ["medallion", "pickup_datetime", "dropoff_datetime", "pickup_latitude",
           "pickup_longitude", "dropoff_latitude", "dropoff_longitude"]
GOOD_STAMPS = ["2012-02-29 12:00:00", "2013-01-14 07:00:00", "2013-01-14 07:00:01",
               "2013-01-14 10:59:59", "2013-01-15 23:59:59", "0001-01-01 08:00:00",
               "1969-12-31 18:59:59"]
ODD_STAMPS = [
    "2013-1-14 7:5:3",          # unpadded: strptime accepts, datetime64 does not
    "2013-01-14  07:05:03",     # double space: strptime accepts
    "2013-01-14\t07:05:03",     # any whitespace run: strptime accepts
    "2013-01-14T07:05:03",      # datetime64 accepts these four, strptime does not
    "2013-01-14 07:05",
    " 2013-01-14 07:05:03",
    "2013-01-14 07:05:03 ",
    "2013-02-30 07:00:00",      # out of range: both reject
    "2013-01-14 07:00:60",
    "2013-01-14 24:00:00",
    "2013-13-01 07:00:00",
    "0000-01-01 00:00:00",      # datetime64 accepts year 0, strptime does not
    "2013-01-14 07:00:00\x00",  # datetime64 strings drop trailing NULs
    "2013-01-14 07:0\x00:00",
    "２０１３-01-14 07:00:00",  # non-ASCII digits
    "2013/01/14 07:00:00",
    "",
]
GOOD_COORDS = ["40.75", "-74.0", "40.7014", "-73.9552", "40.8024", "41", "4e1", "-0", ".5"]
ODD_COORDS = ["nan", "inf", "-inf", "1_0", " 1.5 ", "", "forty", "1.5\x00", "0x1p3", "1e999"]
CARS = ["A", "B", "", "A\x00", "a", "Ä", " A", "CAR00001"]


@st.composite
def trip_rows(draw):
    """One CSV row: good, with one odd field, short, long, blank, or ending before it starts."""
    pickup, dropoff = sorted(draw(st.lists(st.sampled_from(GOOD_STAMPS), min_size=2, max_size=2)))
    coords = draw(st.lists(st.sampled_from(GOOD_COORDS), min_size=4, max_size=4))
    row = [draw(st.sampled_from(CARS)), pickup, dropoff, *coords]
    kind = draw(st.sampled_from(["good", "odd stamp", "odd coord", "short", "long", "reversed"]))
    if kind == "odd stamp":
        row[draw(st.sampled_from([1, 2]))] = draw(st.sampled_from(ODD_STAMPS))
    elif kind == "odd coord":
        row[draw(st.integers(3, 6))] = draw(st.sampled_from(ODD_COORDS))
    elif kind == "short":  # zero fields is a blank line
        row = row[: draw(st.integers(0, 6))]
    elif kind == "long":
        row += draw(st.lists(st.sampled_from(["x", "", "40.7"]), min_size=1, max_size=3))
    elif kind == "reversed":
        row[1], row[2] = dropoff, pickup
    return row


def parse_both(rows, columns=COLUMNS):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trips.csv"
        write_rows(path, rows, columns)
        return parse_trips(path), parse_trips_rows(path)


def assert_same_parse(new, old):
    assert records_from_table(new.records) == old.records
    assert new.skipped == old.skipped
    assert new.records.car_ids.tolist() == sorted({r.car_id for r in old.records})
    assert_same_segments(segment_by_time(new.records), segment_rows(old.records))


def entries(trace):
    """A replay trace's (round, origin, dest, weight) entries, as Python numbers."""
    return list(zip(*(c.tolist() for c in trace.columns)))


def assert_same_segments(seg, seg_rows):
    assert seg.dropped == seg_rows.dropped
    for name in ingest.SEGMENTS:
        assert seg.dates(name) == seg_rows.dates(name)
        for date in seg.dates(name):
            assert records_from_table(seg.parts[name][date]) == seg_rows.parts[name][date]


# Byte-block sizes: a line or less, a few lines, and the stock size
BLOCK_SIZES = [1, 7, 64, 300, csvblocks.BLOCK_BYTES]
BLOCKS = st.sampled_from(BLOCK_SIZES)


@DIFF
@given(st.lists(trip_rows(), max_size=40), BLOCKS)
@example([["A", "2013-01-14 07:00:00\x00", "2013-01-14 08:00:00", "40.75", "-74", "40.75", "-74"],
          ["A\x00", "2013-01-14 07:00:00", "2013-01-14 08:00:00", "1.5\x00", "-74", "40.75", "-74"],
          ["A\x00", "2013-01-14 07:00:00", "2013-01-14 08:00:00", "40.75", "-74", "40.75", "-74"],
          ["A", "2013-01-14 07:00:00", "2013-01-14 08:00:00", "40.75", "-74", "40.75", "-74"]], 7)
def test_parse_trips_matches_the_row_rule(rows, block):
    """Row for row, including skips, blank lines and bad rows on chunk boundaries and across byte blocks."""
    with mock.patch.object(csvblocks, "BLOCK_BYTES", block):
        new, old = parse_both(rows)
    assert_same_parse(new, old)


def test_parse_trips_matches_the_row_rule_across_full_chunks():
    """Over 2 x 4,096 rows, with odd rows either side of each 4,096th and a chunk with no good row."""
    chunk = 4096
    good = ["CAR1", "2013-01-14 07:00:00", "2013-01-14 11:30:00", "40.75", "-74.0", "40.76", "-73.99"]
    rows = [good[:1] + [f"2013-01-14 {7 + i % 4:02d}:{i % 60:02d}:{i % 59:02d}"] + good[2:]
            for i in range(2 * chunk + 5)]
    odd = {
        chunk - 1: ["CAR2", "2013-1-14 8:0:0", *good[2:]],
        chunk: [],
        chunk + 1: ["CAR2", "2013-02-30 07:00:00", *good[2:]],
        2 * chunk - 1: good[:3],
        2 * chunk: ["CAR3", *good[1:3], "nan", *good[4:]],
        2 * chunk + 1: ["CAR\x00", *good[1:]],
    }
    for i, row in odd.items():
        rows[i] = row
    new, old = parse_both(rows)
    assert_same_parse(new, old)
    # the unpadded stamp and the NUL car are good rows, the blank line is no row
    assert old.skipped == 3 and len(old.records) == 2 * chunk + 1
    # a chunk of nothing but skipped and blank rows
    with mock.patch.object(csvblocks, "BLOCK_BYTES", 1):
        assert_same_parse(*parse_both([good, [], good[:2], good[:3], good]))


@DIFF
@given(st.lists(trip_rows(), max_size=20), BLOCKS)
def test_parse_trips_reads_a_repeated_column_as_its_last(rows, block):
    """As csv.DictReader does: the last column of a name wins, and a row too short for it is skipped."""
    rows = [row + ["LAST"] if i % 3 else row for i, row in enumerate(rows)]
    with mock.patch.object(csvblocks, "BLOCK_BYTES", block):
        assert_same_parse(*parse_both(rows, COLUMNS + ["medallion"]))


def trip_lines(count, start=0):
    """Good CSV lines of distinct trips, without line breaks."""
    return [f"CAR{i % 7},2013-01-14 {7 + i % 4:02d}:{i % 60:02d}:00,2013-01-14 11:30:00,"
            f"40.7{i % 10},-73.98,40.76,-73.99" for i in range(start, start + count)]


HEADER = ",".join(COLUMNS)
MIDDLE = 40  # good lines either side of the odd one, so that small blocks read the first ones plain
BLOCK_FILES = {
    # name: (file text, whether every line is plain)
    "crlf": ("\r\n".join([HEADER, *trip_lines(2 * MIDDLE)]) + "\r\n", True),
    "lf": ("\n".join([HEADER, *trip_lines(2 * MIDDLE)]) + "\n", True),
    "no final newline": ("\r\n".join([HEADER, *trip_lines(2 * MIDDLE)]), True),
    "quoted comma": ("\r\n".join([HEADER, *trip_lines(MIDDLE), '"CAR,1"' + trip_lines(1)[0][4:],
                                   *trip_lines(MIDDLE, MIDDLE)]) + "\r\n", False),
    "quoted line break": ("\r\n".join([HEADER, *trip_lines(MIDDLE), '"CAR\n1"' + trip_lines(1)[0][4:],
                                        *trip_lines(MIDDLE, MIDDLE)]) + "\r\n", False),
    "lone cr ending": ("\r\n".join([HEADER, *trip_lines(MIDDLE)]) + "\r" + "\r\n".join(trip_lines(MIDDLE, MIDDLE)),
                       False),
    "lone cr in a field": ("\r\n".join([HEADER, *trip_lines(MIDDLE), "CA\rR1" + trip_lines(1)[0][4:],
                                         *trip_lines(MIDDLE, MIDDLE)]) + "\r\n", False),
    "blank line": ("\n".join([HEADER, *trip_lines(MIDDLE), "", *trip_lines(MIDDLE, MIDDLE)]) + "\n", False),
    "short line": ("\n".join([HEADER, *trip_lines(MIDDLE), "CAR1,2013-01-14 07:00:00", *trip_lines(MIDDLE, MIDDLE)]),
                   False),
    # one field short, then one long: as many commas as two good lines
    "short and long line": ("\n".join([HEADER, *trip_lines(MIDDLE), trip_lines(1)[0].rsplit(",", 1)[0],
                                       trip_lines(1)[0] + ",x", *trip_lines(MIDDLE, MIDDLE)]) + "\n", False),
    "non-ascii and nul late": ("\r\n".join([HEADER, *trip_lines(2 * MIDDLE), "\u00c4" + trip_lines(1)[0][4:],
                                             trip_lines(1)[0].replace("-73.98", "-73.98\x00")]) + "\r\n", False),
}


def parse_trips_chunks(path, block=csvblocks.BLOCK_BYTES):
    """``parse_trips`` of a file read in blocks of this size, and the chunks ``CsvBlocks.chunks`` handed it."""
    got, chunks = [], csvblocks.CsvBlocks.chunks

    def spy(self, width):
        for chunk in chunks(self, width):
            got.append(chunk)
            yield chunk

    with mock.patch.object(csvblocks, "BLOCK_BYTES", block), mock.patch.object(csvblocks.CsvBlocks, "chunks", spy):
        return parse_trips(path), got


def plain_lines(chunks) -> int:
    return sum(len(chunk) for chunk in chunks if isinstance(chunk, csvblocks.PlainBlock))


@pytest.mark.parametrize("name", sorted(BLOCK_FILES))
@pytest.mark.parametrize("block", [1, 64, 300, csvblocks.BLOCK_BYTES])
def test_parse_trips_falls_back_to_csv_rows_mid_file(tmp_path, name, block):
    """Plain blocks but for those holding a quote, NUL, non-ASCII byte, lone \\r or odd line: one row rule."""
    text, plain = BLOCK_FILES[name]
    path = tmp_path / "trips.csv"
    path.write_bytes(text.encode())
    new, chunks = parse_trips_chunks(path, block)
    assert_same_parse(new, parse_trips_rows(path))
    if plain or block == 1:  # a block a line: every good line is plain but the two that share a lone \\r
        assert plain_lines(chunks) == 2 * MIDDLE - 2 * (name == "lone cr ending")
    elif block < len(text) // 4:
        assert 0 < plain_lines(chunks) < 2 * MIDDLE + 1


# A line that is not plain, of each kind, and the csv rows that start on it
DIRTY_LINES = [
    ("CAR1,2013-01-14 07:00:00", 1),  # short
    ("CAR\u00c9" + trip_lines(1)[0][4:], 1),
    ("CAR\x00" + trip_lines(1)[0][4:], 1),
    (trip_lines(1)[0] + "\r" + trip_lines(1, 1)[0], 2),  # a lone \\r: two rows on one line
    ("", 0),  # blank
    ('"CAR\n1"' + trip_lines(1)[0][4:], 1),  # at 1-byte blocks, a block cut within the quote
]


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_parse_trips_reads_each_block_on_its_own(tmp_path, block):
    """The blocks after a dirty line's block are plain again; at 1-byte blocks only the dirty rows are csv rows."""
    text, line, rows = HEADER, 1, []
    for i, (dirty, starts) in enumerate(DIRTY_LINES):
        text = "\r\n".join([text, *trip_lines(10, 10 * i), dirty])
        line += 11  # the dirty line's number
        rows += range(line, line + starts)
        line += dirty.count("\n") + dirty.count("\r")
    path = tmp_path / "trips.csv"
    path.write_bytes(("\r\n".join([text, *trip_lines(10, 60)]) + "\r\n").encode())
    new, chunks = parse_trips_chunks(path, block)
    assert_same_parse(new, parse_trips_rows(path))
    runs = [i for i, chunk in enumerate(chunks) if isinstance(chunk, csvblocks.RowChunk)]
    if block == 1:
        assert [line for i in runs for line, _ in chunks[i].rows([0])] == rows
    if block < csvblocks.BLOCK_BYTES:  # a plain block follows each run, the last lines' among them
        following = [*chunks[1:], None]
        assert all(isinstance(following[i], csvblocks.PlainBlock) for i in runs)


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("dirty, line", [
    ("1,2.5,a\r2,3.5,b", 35),  # a lone \\r
    ('1,2.5,"a\nb"', 35),
    ("1", 3),  # short
    ("1\r2,2.5,a", 3),  # a \\r in a field ends a short row
    ("", 34),
])
def test_read_table_names_the_line_after_a_dirty_line(tmp_path, block, dirty, line):
    """The bad cell after a line that is not plain, or that line itself, is named by its physical line."""
    path = tmp_path / "table.csv"
    path.write_text("\n".join(["n,x,note", "1,0.5,a", dirty, *["2,1.5,b"] * 30, "3,bad,c"]) + "\n", newline="")
    with mock.patch.object(csvblocks, "BLOCK_BYTES", block), pytest.raises(SchemaError) as info:
        csvblocks.read_table(path, ("n", "x"), (np.int64, np.float64))
    assert str(info.value).startswith(f"{path}: line {line}: ")


def test_parse_trips_refuses_a_field_past_the_csv_limit(tmp_path):
    """A line with a field longer than csv.field_size_limit() raises SchemaError naming it, where csv.reader raises csv.Error."""
    path = tmp_path / "trips.csv"
    path.write_text("\n".join([HEADER, *trip_lines(3), "C" * (csv.field_size_limit() + 1) + trip_lines(1)[0][4:]]))
    with pytest.raises(SchemaError) as info:
        parse_trips(path)
    assert str(info.value) == f"{path}: line 5: field larger than field limit ({csv.field_size_limit()})"
    with pytest.raises(csv.Error, match="field larger than field limit"):
        parse_trips_rows(path)


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("dirty, line", [
    ('"' + trip_lines(1)[0], 4),  # csv.reader reads on some 15 lines before the quoted field passes the limit
    ("C" * 1001 + trip_lines(1)[0][4:], 6),
], ids=["unbalanced quote", "oversize field"])
def test_a_field_past_the_csv_limit_names_the_line_its_row_starts_on(tmp_path, block, dirty, line):
    """The error names where the failing row starts, not the line where csv.reader gave up on it."""
    path = tmp_path / "trips.csv"
    at = line - 2  # the dirty line's index among the trip lines
    path.write_text("\r\n".join([HEADER, *trip_lines(at), dirty, *trip_lines(40, at)]) + "\r\n", newline="")
    limit = csv.field_size_limit(1000)
    try:
        with mock.patch.object(csvblocks, "BLOCK_BYTES", block), pytest.raises(SchemaError) as info:
            parse_trips(path)
    finally:
        csv.field_size_limit(limit)
    assert str(info.value) == f"{path}: line {line}: field larger than field limit (1000)"


@pytest.mark.parametrize("block", [7, csvblocks.BLOCK_BYTES])
def test_parse_trips_names_the_line_of_bytes_that_are_not_utf8(tmp_path, block):
    """Short rows and bad cells before them are skipped; the bad bytes raise, after the plain blocks before them."""
    path = tmp_path / "trips.csv"
    lines = [HEADER, *trip_lines(40), "CAR1,x", *trip_lines(5, 40)]
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode() + b"CAR\xff" + trip_lines(1)[0][4:].encode())
    with mock.patch.object(csvblocks, "BLOCK_BYTES", block), pytest.raises(SchemaError) as info:
        parse_trips(path)
    assert str(info.value) == f"{path}: line 48: bytes that are not UTF-8"


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("text, header, lines, first", [
    ("a,b\n1,2\n3,4\n", ["a", "b"], 1, (2, ["1", "2"])),
    ("a,b\r\n1,2\r\n3,4\r\n", ["a", "b"], 1, (2, ["1", "2"])),
    ("a,b,\n1,2,\n", ["a", "b", ""], 1, (2, ["1", "2", ""])),
    ("a,b,a\n1,2,3\n", ["a", "b", "a"], 1, (2, ["1", "2", "3"])),
    ("n\n5\n6\n", ["n"], 1, (2, ["5"])),
    ("a,b", ["a", "b"], 1, None),
    ("", [], 0, None),
], ids=["lf", "crlf", "trailing comma", "repeated name", "one column", "header alone, unended", "empty"])
def test_a_plain_header_reads_as_csv_reader_splits_it(tmp_path, block, text, header, lines, first):
    """The header's fields, the lines counted after it, and the first chunk of rows: a plain block from line 2."""
    path = tmp_path / "table.csv"
    path.write_text(text, newline="")
    with mock.patch.object(csvblocks, "BLOCK_BYTES", block), csvblocks.CsvBlocks(path) as blocks:
        assert blocks.header == header
        assert blocks._line == lines
        chunk = next(blocks.chunks(len(header)), None)
        if first is None:
            assert chunk is None
        else:
            assert isinstance(chunk, csvblocks.PlainBlock)
            assert next(chunk.rows(range(len(header)))) == first


@pytest.mark.parametrize("block", [1, 16, csvblocks.BLOCK_BYTES])
def test_parse_trips_counts_no_blank_line_of_a_one_column_file(tmp_path, block):
    """Every field mapped to the one column: a blank line is no row, as for csv.reader, and a line of one field is."""
    path = tmp_path / "trips.csv"
    path.write_text("x\n40.75\n\n2013-01-14 07:00:00\n\r\n41\n", newline="")
    mapping = dict.fromkeys(ingest.DEFAULT_COLUMNS, "x")
    with mock.patch.object(csvblocks, "BLOCK_BYTES", block):
        new = parse_trips(path, mapping)
    old = parse_trips_rows(path, mapping)
    assert_same_parse(new, old)
    assert old.skipped == 3


# Coordinate cells of real trip files, read by their digits or not: missing-value zeros,
# fewer decimals, signed zeros, bare points, signs, spaces, exponents, underscores,
# specials, 16- and 17-digit mantissas and a lone minus
REAL_COORDS = ["0", "-73.98", "40.7", "-73.981234", "40.750003", "-0.0", "-0", ".5", "5.", "-.5", "00040.70",
               "+40.1", " 40.1", "40.1 ", "1e-3", "1_0", "inf", "-inf", "nan", "-", ".", "5.5.5", "--5",
               "1234567890123456", "-73.98215484619141", "40.75003051757812", "0.000000000000001",
               "99.78974071335283", "-43591.010316006538"]  # 16 and 17 digits past 2**53: one division misrounds
REAL_STAMPS = ["2012-02-29 10:00:00", "2013-02-29 10:00:00", "2000-02-29 08:00:00", "1900-02-29 08:00:00",
               "0001-01-01 00:00:00", "0001-03-01 00:00:01", "9999-12-31 23:59:59", "2013-1-5 7:5:3",
               "2013-01-05T07:05:03", "2013-01-14 07:00:00", "2013-12-31 23:59:59", "2016-03-01 00:00:00"]


def decimal_text(mantissa: int, places: int, negative: bool) -> str:
    """``mantissa / 10**places`` written with that many decimals."""
    digits = str(mantissa).zfill(places + 1)
    return "-" * negative + digits[:len(digits) - places] + "." * (places > 0) + digits[len(digits) - places:]


COORDS = st.one_of(st.sampled_from(REAL_COORDS),
                   st.builds(decimal_text, st.integers(0, 10**15 - 1), st.integers(0, 15), st.booleans()),
                   st.builds(decimal_text, st.integers(10**15, 10**17 - 1), st.integers(0, 16), st.booleans()))


@st.composite
def plain_trip_rows(draw):
    """A row of a plain block: no quote, NUL or non-ASCII byte, so that its block is read column by column."""
    pickup, dropoff = (draw(st.sampled_from(REAL_STAMPS)) for _ in range(2))
    car = draw(st.sampled_from(["CAR1", "CAR22", "2013000123", "x" * 32, "X" * 31 + "y"]))
    return [car, pickup, dropoff, *(draw(COORDS) for _ in range(4))]


def assert_same_bits(new, old):
    """Every coordinate and time equal to the row rule's, bit for bit (-0.0 is not 0.0 here)."""
    for name in ("pickup_lat", "pickup_lon", "dropoff_lat", "dropoff_lon"):
        want = np.array([getattr(r, name) for r in old.records], dtype=np.float64)
        assert getattr(new.records, name).tobytes() == want.tobytes(), name
    for name in ("pickup_time", "dropoff_time"):
        want = np.array([getattr(r, name) for r in old.records], dtype="datetime64[s]")
        assert getattr(new.records, name).tobytes() == want.tobytes(), name


@DIFF
@given(st.lists(plain_trip_rows(), min_size=1, max_size=60))
@example([["CAR1", "2012-02-29 10:00:00", "2012-02-29 10:00:00", "-0", "0", "-0.0", "5."],
          ["CAR1", "2012-02-29 10:00:00", "2012-02-29 10:00:00", "99.78974071335283", "1e-3", "-0.0", ".5"]])
# rows each skipped for one cell that float() refuses, among cells it reads, in columns of several layouts
@example([["CAR1", "2013-01-14 07:00:00", "2013-01-14 07:00:00", *coords]
          for coords in (["5.5.5", "-73.98", "40.7", "-74"], ["40.7", "--5", "40.7", "-74"],
                         ["40.7", "-73.98", "-", "-74"], ["40.7", "-73.98", "40.7", "."], ["0", "-0", "5.", ".5"])])
def test_parse_trips_reads_real_data_cells_as_the_row_rule(rows):
    """Many layouts in one plain block: digit reads, the cast of the others and strptime, with no tolerance."""
    new, old = parse_both(rows)
    assert_same_parse(new, old)
    assert_same_bits(new, old)


def test_parse_trips_reads_a_plain_fixture_without_its_fallbacks(tmp_path):
    """No plain block's coordinate or timestamp column reaches numpy's cast or strptime, or is read digit by digit."""
    path = tmp_path / "trips.csv"
    make_fixture(path, trips=5000, seed=3, cars=50)
    read, cast = csvblocks.decimals, []

    def decimals(texts, dtype):  # the cells it leaves are the ones csvblocks._cast hands to numpy's cast
        value, odd = read(texts, dtype)
        cast.append(int(odd.sum()))
        return value, odd

    with mock.patch.object(csvblocks, "decimals", decimals), \
            mock.patch.object(ingest, "dt", wraps=dt) as clock, \
            mock.patch.object(csvblocks, "_digit_by_digit", wraps=csvblocks._digit_by_digit) as each:
        new, chunks = parse_trips_chunks(path)
    assert all(isinstance(chunk, csvblocks.PlainBlock) for chunk in chunks)
    assert plain_lines(chunks) == 5000
    assert cast and sum(cast) == each.call_count == 0
    assert clock.datetime.strptime.call_count == 0
    assert_same_bits(new, parse_trips_rows(path))


def refused_by_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return True
    return False


# int cells of every width up to int64's, read by their digits up to 18 of them and cast past that
INTS = st.one_of(st.integers(-10**18 + 1, 10**18 - 1).map(str), st.integers(-2**63, 2**63 - 1).map(str),
                 st.sampled_from(["-0", "007", "-0012", "0" * 19 + "1"]))


@DIFF
@given(st.lists(st.tuples(INTS, COORDS.filter(lambda text: not refused_by_float(text))), min_size=1, max_size=60),
       BLOCKS)
@example([("1", "-0"), ("-22", "0.5"), ("333", "-73.981234"), ("4444", "40.7")], csvblocks.BLOCK_BYTES)
def test_read_table_reads_numbers_of_many_layouts_as_int_and_float_do(tmp_path_factory, rows, block):
    """Plain blocks whose int and float columns mix widths, signs and points: int() and float(), bit for bit."""
    path = tmp_path_factory.mktemp("table") / "numbers.csv"
    path.write_text("".join(f"{a},{b}\n" for a, b in [("n", "x"), *rows]))
    with mock.patch.object(csvblocks, "BLOCK_BYTES", block):
        n, x = csvblocks.read_table(path, ("n", "x"), (np.int64, np.float64))
    assert n.tolist() == [int(a) for a, _ in rows]
    assert x.tobytes() == np.array([float(b) for _, b in rows]).tobytes()


@DIFF
@given(st.lists(st.sampled_from(CARS + ["Z", "b", "é"]), min_size=1, max_size=30),
       st.integers(0, 2**16), st.data())
def test_subsample_cars_matches_the_oracle_draw(cars, seed, data):
    """Drawing on car codes picks the cars that rng.choice over the sorted ids picks."""
    rows = [trip(car=car) for car in cars]
    k = data.draw(st.integers(0, len(set(cars))))
    sample = subsample_cars(table_from_records(rows), k, seed)
    assert records_from_table(sample) == subsample_rows(rows, k, seed)


@DIFF
@given(st.floats(0, 1), st.floats(0, 1), st.integers(1, 25), st.integers(1, 25))
@example(1.0, 1.0, 21, 11)
def test_bin_point_arrays_match_the_scalar_expression(x, y, rows, cols):
    box = DEFAULT_BBOX
    lat = np.array([box.lat_min + x * (box.lat_max - box.lat_min), box.lat_min, MID_LAT])
    lon = np.array([box.lon_min + y * (box.lon_max - box.lon_min), box.lon_min, MID_LON])
    lat, lon = np.minimum(lat, np.nextafter(box.lat_max, 0)), np.minimum(lon, np.nextafter(box.lon_max, -100))
    r, c = bin_point(lat, lon, rows, cols)
    expected = [bin_point_scalar(a, b, rows, cols, box) for a, b in zip(lat.tolist(), lon.tolist())]
    assert list(zip(r.tolist(), c.tolist())) == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pipeline_matches_the_record_pipeline(tmp_path, seed):
    """filter, segment, rates, subsample and replay over columns equal the record-by-record chain."""
    path = tmp_path / "trips.csv"
    make_fixture(path, trips=1500, seed=seed, cars=30)
    table, records = parse_trips(path).records, parse_trips_rows(path).records
    kept, kept_rows = filter_bbox(table), filter_bbox_rows(records)
    assert records_from_table(kept) == kept_rows
    for k in (0, 7, 30):
        assert records_from_table(subsample_cars(kept, k, seed)) == subsample_rows(kept_rows, k, seed)
    seg, seg_rows = segment_by_time(kept), segment_rows(kept_rows)
    assert_same_segments(seg, seg_rows)
    for name in ingest.SEGMENTS:
        for date in seg.dates(name):
            part, part_rows = seg.parts[name][date], seg_rows.parts[name][date]
            trace, trace_rows = build_replay(part, name), build_replay_rows(part_rows, name)
            assert (entries(trace), trace.rounds, trace.date) == (entries(trace_rows), trace_rows.rounds, trace_rows.date)
            assert [c.dtype for c in trace.columns] == [np.int64] * 3 + [np.float64]
        est, est_rows = (f(s, name, seg.dates(name)) for f, s in
                         ((estimate_segment_rates, seg), (estimate_segment_rates_rows, seg_rows)))
        assert np.array_equal(est.model.p, est_rows.model.p)
        assert np.array_equal(est.model.w, est_rows.model.w)
        assert (est.rescale, est.requests, est.slots) == (est_rows.rescale, est_rows.requests, est_rows.slots)
