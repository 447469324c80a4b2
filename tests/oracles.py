"""Definitional oracles: each exact layer stated request by request.

The package computes every layer below through its policy table, pair
arrays and CSR kernels, and ingests trips as whole columns.  These
functions state the same quantities the slow, literal way, one state, one
request or one trip record at a time, and the tests pin the package to
them.  Nothing in ``dispatchlab`` imports this module.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from dispatchlab.chain import TransitionMatrix, _zero_one
from dispatchlab.errors import DispatchLabError, SchemaError
from dispatchlab.grid import RequestModel, build_grid, distance_weights, manhattan_distance
from dispatchlab.ingest import (
    DEFAULT_BBOX,
    DEFAULT_COLUMNS,
    DEFAULT_GRID_COLS,
    DEFAULT_GRID_ROWS,
    SEGMENTS,
    TIMESTAMP_FORMAT,
    Bbox,
    ParseResult,
    RateEstimate,
    ReplayTrace,
    SegmentResult,
    TripTable,
    segment_seconds,
)
from dispatchlab.policies import PolicySpec, can_serve, nadap_probe_weights, serving_location
from dispatchlab.rng import stream
from dispatchlab.states import StateSpace

# ---------------------------------------------------------------------------
# Single-driver moves


class InfeasibleMoveError(DispatchLabError, ValueError):
    """A driver move violates occupancy or capacity; dispatch callers treat it as a rejection."""


def move(counts: Sequence[int], u: int, v: int, c: int) -> tuple[int, ...]:
    """Move one driver from ``u`` to ``v``; a self-move returns the state unchanged.

    Raises InfeasibleMoveError when ``u`` is empty or ``v`` is full; callers
    that model rejection should catch it or test feasibility first.
    """
    if counts[u] < 1:
        raise InfeasibleMoveError(f"no driver at location {u} in state {tuple(counts)}")
    if u == v:
        return tuple(counts)
    if counts[v] >= c:
        raise InfeasibleMoveError(f"location {v} already at capacity {c} in state {tuple(counts)}")
    out = list(counts)
    out[u] -= 1
    out[v] += 1
    return tuple(out)


def move_rank(space: StateSpace, counts: Sequence[int], u: int, v: int) -> int:
    """Rank of the state reached by moving one driver u -> v (scalar ``move_ranks``)."""
    return space.rank(move(counts, u, v, space.c))


# ---------------------------------------------------------------------------
# Dispatch and per-state expected profit


@dataclass(frozen=True)
class DispatchOutcome:
    """Result of offering one request to a policy in one state."""

    chosen: int | None
    success: bool
    profit: float


def dispatch(
    state: Sequence[int],
    request: tuple[int, int],
    model: RequestModel,
    policy: PolicySpec,
    c: int,
    rng: np.random.Generator | None = None,
) -> DispatchOutcome:
    """Offer one request to ``policy``; nadap draws one probe coin from ``rng``.

    There is no fallback: a serving location that cannot take the trip
    (see can_serve) rejects the request.
    """
    u, v = request
    coin = rng.random() if policy.kind == "nadap" and rng is not None else None
    chosen = serving_location(state, u, policy, model.grid, coin)
    ok = chosen is not None and can_serve(state, chosen, v, c)
    return DispatchOutcome(chosen, ok, model.w[u, v] if ok else 0.0)


def expected_step_profit(state: Sequence[int], model: RequestModel, policy: PolicySpec, c: int):
    """Exact expected profit of one round in ``state``: E[sum_r p_r w_r success_r].

    Averages over the request draw and, for nadap, the probe coin.  Exact
    (Fraction) model entries keep the result exact.
    """
    grid = model.grid
    n = grid.n
    total = 0
    for u in range(n):
        row_p = model.p[u]
        row_w = model.w[u]
        if policy.kind == "nadap":
            cands = nadap_probe_weights(grid, u, policy.alpha, policy.boundary)
            for v in range(n):
                pv = row_p[v]
                if pv == 0 or row_w[v] == 0:
                    continue
                prob = 0
                for k, wgt in cands:
                    if k is not None and can_serve(state, k, v, c):
                        prob = prob + wgt
                total = total + pv * row_w[v] * prob
        else:
            chosen = serving_location(state, u, policy, grid)
            if chosen is None:
                continue
            for v in range(n):
                pv = row_p[v]
                if pv == 0 or row_w[v] == 0:
                    continue
                if can_serve(state, chosen, v, c):
                    total = total + pv * row_w[v]
    return total


# ---------------------------------------------------------------------------
# Transition kernels from per-state rows


def kernel_from_rows(space: StateSpace, rows: Sequence[dict], policy: PolicySpec | None,
                     exact: bool) -> TransitionMatrix:
    """Kernel from per-state {destination rank: probability} mappings, taken as given."""
    src = np.repeat(np.arange(len(rows), dtype=np.int64), [len(row) for row in rows])
    dst = np.array([j for row in rows for j in row], dtype=np.int64)
    val = np.array([p for row in rows for p in row.values()], dtype=object if exact else float)
    return TransitionMatrix(space, src, dst, val, policy, exact)


def kernel_rows(tm: TransitionMatrix) -> list[dict]:
    """Per-state {destination rank: probability} dicts of a kernel."""
    cols, vals, ptr = tm.indices.tolist(), tm.data.tolist(), tm.indptr.tolist()
    return [dict(zip(cols[a:b], vals[a:b])) for a, b in zip(ptr[:-1], ptr[1:])]


def _finish_rows(space: StateSpace, off_rows: list[dict], exact: bool) -> list[dict]:
    """Attach the mass-conserving diagonal to per-state off-diagonal rows."""
    zero, one = _zero_one(exact)
    rows = []
    for i, off in enumerate(off_rows):
        row = {j: val for j, val in off.items() if val != 0}
        total = zero
        for val in row.values():
            total = total + val
        row[i] = one - total
        rows.append(row)
    return rows


def build_transition_from_policy(space: StateSpace, model: RequestModel, policy: PolicySpec) -> TransitionMatrix:
    """Definitional chain builder: accumulate every request's dispatch outcome.

    Slower than build_transition but stated request by request through
    serving_location; it is the reference build_transition is tested
    against.
    """
    grid = space.grid
    c = space.c
    exact = model.exact and (policy.kind != "nadap" or isinstance(policy.alpha, Fraction))
    zero, _ = _zero_one(exact)
    probe = None
    if policy.kind == "nadap":
        probe = [nadap_probe_weights(grid, u, policy.alpha, policy.boundary) for u in range(grid.n)]
    off_rows: list[dict] = [{} for _ in range(space.size)]
    for ix in range(space.size):
        x = space.unrank(ix)
        row = off_rows[ix]
        for u, v in model.pairs():
            pv = model.p[u, v]
            if policy.kind == "nadap":
                for k, wgt in probe[u]:
                    if k is None or wgt == 0 or k == v or not can_serve(x, k, v, c):
                        continue
                    iy = move_rank(space, x, k, v)
                    row[iy] = row.get(iy, zero) + pv * wgt
            else:
                k = serving_location(x, u, policy, grid)
                if k is None or k == v or not can_serve(x, k, v, c):
                    continue
                iy = move_rank(space, x, k, v)
                row[iy] = row.get(iy, zero) + pv
    return kernel_from_rows(space, _finish_rows(space, off_rows, exact), policy, exact)


def same_transitions(a: TransitionMatrix, b: TransitionMatrix, tol=0) -> bool:
    """Entrywise equality of two kernels; tol=0 demands exact equality."""
    if a.size != b.size:
        return False
    for ra, rb in zip(kernel_rows(a), kernel_rows(b)):
        keys = set(ra) | set(rb)
        for j in keys:
            da = ra.get(j, 0)
            db = rb.get(j, 0)
            if tol == 0:
                if da != db:
                    return False
            elif abs(float(da) - float(db)) > tol:
                return False
    return True


# ---------------------------------------------------------------------------
# The identity coupling, one request at a time


def pair_distance(x: Sequence[int], y: Sequence[int]) -> int:
    """Count metric: total drivers that would have to move to turn x into y."""
    if len(x) != len(y):
        raise ValueError("states live on different location sets")
    return sum(abs(int(a) - int(b)) for a, b in zip(x, y))


def apply_request(counts: tuple, a: int, b: int, c: int) -> tuple:
    """One feasibility-rule round: move a driver a -> b when legal, else no change."""
    if a == b or counts[a] < 1 or counts[b] >= c:
        return counts
    out = list(counts)
    out[a] -= 1
    out[b] += 1
    return tuple(out)


def coupled_step_distribution(x, y, model: RequestModel, c: int) -> dict:
    """Joint one-round law of two copies driven by the same request draw.

    Only defined on pairs one driver move apart (the pairs contraction is
    stated over).  Returns {(x', y'): probability}; any idle mass stays put.
    """
    x = tuple(int(v) for v in x)
    y = tuple(int(v) for v in y)
    if pair_distance(x, y) != 2:
        raise ValueError(f"{x} and {y} are not one driver move apart")
    n = model.n
    out: dict = {}
    total = Fraction(0) if model.exact else 0.0
    for a in range(n):
        for b in range(n):
            pr = model.p[a, b]
            if pr == 0:
                continue
            key = (apply_request(x, a, b, c), apply_request(y, a, b, c))
            out[key] = out.get(key, 0) + pr
            total = total + pr
    idle = (Fraction(1) if model.exact else 1.0) - total
    if idle != 0:
        key = (x, y)
        out[key] = out.get(key, 0) + idle
    return out


# ---------------------------------------------------------------------------
# Trip ingest, one record at a time


@dataclass(frozen=True)
class TripRecord:
    car_id: str
    pickup_time: dt.datetime
    dropoff_time: dt.datetime
    pickup_lat: float
    pickup_lon: float
    dropoff_lat: float
    dropoff_lon: float


def parse_trips_rows(path, column_mapping: Mapping[str, str] | None = None) -> ParseResult:
    """The row rule: ``csv.DictReader``, ``strptime`` and ``float`` on every row.

    A row is skipped if any mapped value is missing, a timestamp fails
    ``strptime`` with ``TIMESTAMP_FORMAT``, a coordinate is not a finite
    number, or the dropoff precedes the pickup.  Blank lines are not rows.
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


def table_from_records(records: Sequence[TripRecord]) -> TripTable:
    """The trip table holding ``records`` in order (car codes index the sorted ids)."""
    ids = sorted({r.car_id for r in records})
    code = {car: i for i, car in enumerate(ids)}
    column = lambda name, dtype: np.array([getattr(r, name) for r in records], dtype=dtype)
    return TripTable(
        np.array(ids, dtype=object),
        np.array([code[r.car_id] for r in records], dtype=np.int64),
        column("pickup_time", "datetime64[s]"),
        column("dropoff_time", "datetime64[s]"),
        *(column(name, np.float64)
          for name in ("pickup_lat", "pickup_lon", "dropoff_lat", "dropoff_lon")),
    )


def records_from_table(table: TripTable) -> list[TripRecord]:
    """The table's rows as records, in order."""
    return [
        TripRecord(*row)
        for row in zip(
            table.car_ids[table.car].tolist(),
            table.pickup_time.tolist(),
            table.dropoff_time.tolist(),
            table.pickup_lat.tolist(),
            table.pickup_lon.tolist(),
            table.dropoff_lat.tolist(),
            table.dropoff_lon.tolist(),
        )
    ]


def filter_bbox_rows(records: Iterable[TripRecord], bbox: Bbox = DEFAULT_BBOX) -> list[TripRecord]:
    return [
        r
        for r in records
        if bbox.contains(r.pickup_lat, r.pickup_lon)
        and bbox.contains(r.dropoff_lat, r.dropoff_lon)
    ]


def bin_point_scalar(lat: float, lon: float, rows: int, cols: int, bbox: Bbox) -> tuple[int, int]:
    if not bbox.contains(lat, lon):
        raise ValueError(f"point ({lat}, {lon}) lies outside the bounding box")
    row = int((lat - bbox.lat_min) / (bbox.lat_max - bbox.lat_min) * rows)
    col = int((lon - bbox.lon_min) / (bbox.lon_max - bbox.lon_min) * cols)
    return min(row, rows - 1), min(col, cols - 1)


def bin_record(record: TripRecord, rows: int, cols: int, bbox: Bbox) -> tuple[int, int]:
    pr, pc = bin_point_scalar(record.pickup_lat, record.pickup_lon, rows, cols, bbox)
    dr, dc = bin_point_scalar(record.dropoff_lat, record.dropoff_lon, rows, cols, bbox)
    return pr * cols + pc, dr * cols + dc


def segment_rows(records: Iterable[TripRecord]) -> SegmentResult:
    """parts[segment][date] is the list of that window's records, in input order."""
    parts: dict = {name: {} for name in SEGMENTS}
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


def estimate_rates_rows(requests: Iterable[tuple[int, int]], slots: int, rows: int,
                        cols: int) -> RateEstimate:
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


def estimate_segment_rates_rows(segmented: SegmentResult, segment: str, dates: Sequence[dt.date],
                                rows: int = DEFAULT_GRID_ROWS, cols: int = DEFAULT_GRID_COLS,
                                bbox: Bbox = DEFAULT_BBOX) -> RateEstimate:
    parts = segmented.parts[segment]
    if not dates:
        raise ValueError(f"no trips fall in the {segment} segment")
    pairs = (bin_record(r, rows, cols, bbox) for date in dates for r in parts[date])
    return estimate_rates_rows(pairs, segment_seconds(segment) * len(dates), rows, cols)


def subsample_rows(records: Sequence[TripRecord], k: int, seed: int) -> list[TripRecord]:
    ids = sorted({r.car_id for r in records})
    if k < 0 or k > len(ids):
        raise ValueError(f"cannot sample {k} cars from {len(ids)} distinct ids")
    rng = stream(seed)
    chosen = set(rng.choice(np.array(ids, dtype=object), size=k, replace=False)) if k else set()
    return [r for r in records if r.car_id in chosen]


def build_replay_rows(records: Sequence[TripRecord], segment: str, date: dt.date | None = None,
                      rows: int = DEFAULT_GRID_ROWS, cols: int = DEFAULT_GRID_COLS,
                      bbox: Bbox = DEFAULT_BBOX) -> ReplayTrace:
    start_hour, end_hour = SEGMENTS[segment]
    if date is None:
        dates = {r.pickup_time.date() for r in records}
        if len(dates) != 1:
            raise ValueError(f"records span {len(dates)} dates; pass one date per trace")
        (date,) = dates
    grid = build_grid(rows, cols)
    window_start = dt.datetime.combine(date, dt.time(hour=start_hour))
    stamped = []
    for r in records:
        if r.pickup_time.date() != date or not (start_hour <= r.pickup_time.hour < end_hour):
            raise ValueError(f"trip at {r.pickup_time} lies outside {segment} of {date}")
        rnd = int((r.pickup_time - window_start).total_seconds())
        u, v = bin_record(r, rows, cols, bbox)
        stamped.append((rnd, u, v, float(manhattan_distance(grid, u, v))))
    stamped.sort(key=lambda e: e[0])
    return ReplayTrace(entries=stamped, rounds=segment_seconds(segment), segment=segment, date=date)


def write_model_rows(path, model: RequestModel) -> None:
    """``model.csv`` written cell by cell: ``origin,dest,p,w`` where p or w is nonzero."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["origin", "dest", "p", "w"])
        for u in range(model.n):
            for v in range(model.n):
                if model.p[u, v] != 0 or model.w[u, v] != 0:
                    writer.writerow([u, v, f"{float(model.p[u, v]):.17g}", f"{float(model.w[u, v]):.17g}"])


def write_replay_rows(path, trace: ReplayTrace) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "origin", "dest", "weight"])
        for rnd, u, v, w in trace.entries:
            writer.writerow([rnd, u, v, f"{w:.17g}"])
