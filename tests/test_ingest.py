"""Trip ingestion: parsing, geofencing, binning, segmentation, rates, replay."""

import csv
import datetime as dt
import hashlib
import random

import pytest

from dispatchlab.errors import SchemaError
from dispatchlab.grid import build_grid, manhattan_distance
from dispatchlab.ingest import (
    DEFAULT_BBOX,
    DEFAULT_BBOX_BOUNDS,
    FIXTURE_COLUMNS,
    FIXTURE_DATES,
    Bbox,
    TripRecord,
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
    first = result.records[0]
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
    assert [r.car_id for r in result.records] == ["A"]
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
    assert result.records[0].car_id == "A"


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


def test_filter_bbox_requires_both_endpoints_inside():
    inside = trip()
    pickup_out = trip(plat=DEFAULT_BBOX.lat_max + 0.01)
    dropoff_out = trip(dlon=DEFAULT_BBOX.lon_min - 0.01)
    kept = filter_bbox([inside, pickup_out, dropoff_out])
    assert kept == [inside]


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
    r = trip(plat=0.1, plon=0.1, dlat=0.9, dlon=0.9)
    assert bin_to_grid(r, rows=2, cols=2, bbox=box) == (0, 3)
    assert bin_to_grid(r, rows=3, cols=3, bbox=box) == (0, 8)


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
    seg = segment_by_time(records)
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
    seg = segment_by_time([trip(pickup="2013-01-14 08:30:00")])
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
    seg = segment_by_time(records)
    est = estimate_segment_rates(seg, "morning", seg.dates("morning"))
    assert est.slots == 2 * 14400
    assert est.requests == 2
    # only the chosen dates' trips and windows count
    est = estimate_segment_rates(seg, "morning", seg.dates("morning")[1:])
    assert (est.slots, est.requests) == (14400, 1)


def test_subsample_cars_behaviour():
    records = [trip(car=f"CAR{i:05d}") for i in range(12) for _ in range(2)]
    assert subsample_cars(records, 0, seed=1) == []
    assert subsample_cars(records, 12, seed=1) == records
    sample = subsample_cars(records, 5, seed=7)
    ids = {r.car_id for r in sample}
    assert len(ids) == 5
    assert len(sample) == 10  # both trips of each chosen car survive
    # deterministic in the seed, insensitive to record order
    again = subsample_cars(records, 5, seed=7)
    assert sample == again
    shuffled = records[:]
    random.Random(3).shuffle(shuffled)
    assert {r.car_id for r in subsample_cars(shuffled, 5, seed=7)} == ids
    assert {r.car_id for r in subsample_cars(records, 5, seed=8)} != ids
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
    trace = build_replay(records, "morning")
    assert trace.rounds == 14400
    assert trace.segment == "morning" and trace.date == dt.date(2013, 1, 14)
    rounds = [e[0] for e in trace.entries]
    assert rounds == [0, 0, 5400]
    # same-second entries keep their input order
    assert trace.entries[0][0] == 0 and trace.entries[1][0] == 0
    # the cross-town trip is weighted by the Manhattan cell distance
    rnd, u, v, w = trace.entries[2]
    assert (u, v) == (10 * 11 + 5, 0)
    assert w == float(manhattan_distance(build_grid(21, 11), u, v))
    assert w == 10 + 5


def test_build_replay_date_handling():
    mixed = [trip(pickup="2013-01-14 08:00:00"), trip(pickup="2013-01-15 08:00:00")]
    with pytest.raises(ValueError):
        build_replay(mixed, "morning")
    only_day2 = build_replay(mixed[1:], "morning", date=dt.date(2013, 1, 15))
    assert only_day2.date == dt.date(2013, 1, 15)


def test_build_replay_rejects_out_of_window_trips():
    with pytest.raises(ValueError):
        build_replay([trip(pickup="2013-01-14 12:00:00")], "morning")
    with pytest.raises(ValueError):
        build_replay(
            [trip(pickup="2013-01-14 08:00:00")], "morning", date=dt.date(2013, 1, 15)
        )


def test_replay_csv_roundtrip(tmp_path):
    records = [
        trip(pickup="2013-01-14 07:00:03"),
        trip(pickup="2013-01-14 09:10:11"),
    ]
    trace = build_replay(records, "morning")
    path = tmp_path / "replay.csv"
    write_replay(path, trace)
    back = read_replay(path)
    assert back.entries == trace.entries
    assert back.rounds == trace.entries[-1][0] + 1
    bad = tmp_path / "bad.csv"
    bad.write_text("round,origin,weight\n0,1,2.0\n")
    with pytest.raises(SchemaError):
        read_replay(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("round,origin,dest,weight\n")
    assert read_replay(empty).rounds == 0


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
    dates = {r.pickup_time.date() for r in parsed.records}
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
    assert all(0 <= e[0] < 14400 for e in trace.entries)
