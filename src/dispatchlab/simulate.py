"""Seeded Monte-Carlo ensembles: per-round profit curves, error curves, decay fits.

Each replication owns the random stream addressed by (seed, run index), so
ensembles are reproducible and insensitive to execution order; aggregation
is a fixed-order reduction over run indices.  Where the state space fits
a successor table, every replication steps one state rank a round through
it, as the MDP episodes do; elsewhere the replications' driver counts
advance through the request schedule at once.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import FitFailureError, InfeasibleInstanceError, SizeLimitError
from .grid import Grid, RequestModel
from .policies import PolicySpec, policy_table, serving_locations, step_profit
from .rng import stream
from .states import StateSpace

#: Trace entry: (round, origin, dest, weight).  Rounds may repeat (same-second
#: arrivals are processed sequentially inside their round) but never decrease.
TraceEntry = tuple[int, int, int, float]

#: Element budgets that keep memory flat whatever the run count and horizon:
#: a block of runs holds at most _BLOCK_ELEMENTS (run, step) profits, a step
#: being a round under IID arrivals and a trace entry in replay, and draws
#: its request schedule _SCHEDULE_ELEMENTS (run, step) entries at a time.
_BLOCK_ELEMENTS = 1 << 18
_SCHEDULE_ELEMENTS = 1 << 13

#: Entries of the rank path's successor table: an ensemble steps state ranks
#: when its space has at most _TABLE_ELEMENTS // (n * (n + 1)) states.
_TABLE_ELEMENTS = 1 << 18


@dataclass(eq=False)
class ReplayTrace:
    """Per-second arrivals of one (segment, date) window, as columns.

    Entry i asks origin[i] -> dest[i] in round[i], worth weight[i].  Rounds
    never decrease; same-second trips keep their input order and are served
    in turn within the round.  rounds is the window length.
    """

    round: np.ndarray
    origin: np.ndarray
    dest: np.ndarray
    weight: np.ndarray
    rounds: int
    segment: str | None = None
    date: dt.date | None = None

    def __len__(self) -> int:
        return len(self.round)

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return self.round, self.origin, self.dest, self.weight


def _trace_columns(trace: ReplayTrace | Sequence[TraceEntry], grid: Grid) -> tuple[np.ndarray, ...]:
    """A replay trace's columns or entries as (round, origin, dest, weight) arrays, checked entry by entry.

    Raises ValueError naming the first entry that is off the grid, has a
    negative round, comes before the round of the entry preceding it, or
    has a negative or non-finite weight.
    """
    entries = np.column_stack(trace.columns) if isinstance(trace, ReplayTrace) else np.asarray(trace, dtype=float)
    cols = entries.reshape(len(entries), 4).T
    rounds, origin, dest = cols[:3].astype(np.int64)
    weight = cols[3]
    off_grid = (np.minimum(origin, dest) < 0) | (np.maximum(origin, dest) >= grid.n)
    earlier = np.r_[False, rounds[1:] < rounds[:-1]]
    bad = np.flatnonzero(off_grid | (rounds < 0) | earlier | ~(np.isfinite(weight) & (weight >= 0)))
    if len(bad):
        i = bad[0]
        entry = f"entry {i} {(int(rounds[i]), int(origin[i]), int(dest[i]), weight[i].item())}"
        if off_grid[i]:
            raise ValueError(f"trace {entry} is off the {grid.rows}x{grid.cols} grid")
        if rounds[i] < 0:
            raise ValueError(f"trace {entry} has a negative round")
        if earlier[i]:
            raise ValueError(f"trace rounds must be non-decreasing: {entry} follows round {rounds[i - 1]}")
        raise ValueError(f"trace {entry} has a negative or non-finite weight")
    return rounds, origin, dest, weight


def initial_state_preset(grid: Grid, m: int, c: int, name: str) -> tuple[int, ...]:
    """Named starting arrangements.

    "adversarial" packs drivers into the lowest-index locations (all m in
    one cell when capacity allows, the slowest start to forget);
    "spread" deals drivers round-robin across locations.
    """
    n = grid.n
    counts = [0] * n
    if name == "adversarial":
        left = m
        for u in range(n):
            take = min(c, left)
            counts[u] = take
            left -= take
            if left == 0:
                break
        if left:
            raise ValueError(f"cannot place {m} drivers on {n} locations under capacity {c}")
    elif name == "spread":
        for i in range(m):
            counts[i % n] += 1
        if max(counts) > c:
            raise ValueError(f"cannot spread {m} drivers under capacity {c}")
    else:
        raise ValueError(f"unknown initial-state preset {name!r}")
    return tuple(counts)


@dataclass
class SimConfig:
    """One ensemble's full description; everything downstream is derived from it."""

    grid: Grid
    m: int
    c: int
    T: int
    runs: int
    seed: int
    policy: PolicySpec
    model: RequestModel | None = None
    trace: ReplayTrace | Sequence[TraceEntry] | None = None  # its checked columns go to trace_columns
    initial_state: Sequence[int] = ()
    estimator: str = "conditional"
    trace_columns: tuple[np.ndarray, ...] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("horizon must be at least one round")
        if self.runs < 1:
            raise ValueError("need at least one replication")
        if (self.model is None) == (self.trace is None):
            raise ValueError("exactly one of model (IID mode) or trace (replay mode) is required")
        if self.estimator not in ("conditional", "realized"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.trace is not None and self.estimator == "conditional":
            raise ValueError("replay mode has no arrival law; use the realized estimator")
        if self.trace is not None:
            self.trace_columns = _trace_columns(self.trace, self.grid)
        counts = tuple(int(v) for v in self.initial_state)
        if len(counts) != self.grid.n:
            raise ValueError(f"initial state has {len(counts)} entries, expected {self.grid.n}")
        if sum(counts) != self.m or any(v < 0 or v > self.c for v in counts):
            raise ValueError(f"initial state {counts} is not a legal placement of {self.m} drivers")
        object.__setattr__(self, "initial_state", counts)


@dataclass
class ErrorSeries:
    """Ensemble profit curves with optional gaps against a convergence target.

    w_mean[t] estimates the round-t expected profit; obj_running[T'] is its
    running average (the T'-round objective); stderr entries are sample
    standard deviations over runs divided by sqrt(runs).
    """

    t: np.ndarray
    w_mean: np.ndarray
    w_stderr: np.ndarray
    obj_running: np.ndarray
    obj: float
    obj_stderr: float
    runs: int
    estimator: str
    target: float | None = None
    target_kind: str | None = None
    delta: np.ndarray | None = None
    delta_hat: np.ndarray | None = None


def _spans(total: int, size: int) -> list[tuple[int, int]]:
    """Consecutive [start, stop) ranges of at most ``size`` covering ``range(total)``."""
    size = max(1, size)
    return [(a, min(a + size, total)) for a in range(0, total, size)]


@dataclass(frozen=True)
class _RankTables:
    """The space's successor table keyed by request: the rank path of ensembles and MDP episodes.

    A run in state r carries the offset r * stride.  A request to v keyed
    by a (its origin, or nadap's probed location; n for none) reads entry
    ``offset + a * n + v``: ``nxt`` holds the offset of the state it leads
    to (its own when the request fails) and ``ok`` whether it is served.
    An ensemble's tables also hold ``esp``, every state's expected step
    profit under the conditional estimator, and ``start``, its initial offset.
    """

    stride: int
    nxt: np.ndarray
    ok: np.ndarray
    esp: np.ndarray | None = None
    start: int = 0


def _serve_tables(space: StateSpace, serve: np.ndarray) -> _RankTables:
    """``space.successors`` keyed by request through a serving rule.

    ``serve[s, a, v]``, broadcast over any axis it does not depend on, is
    the location (-1 or n: none) serving a request to v keyed by a in state s.
    """
    ok, nxt = space.successors
    pick = np.arange(space.size)[:, None, None], serve, np.arange(space.n)
    stride = (space.n + 1) * space.n
    return _RankTables(stride, (nxt[pick] * stride).ravel(), ok[pick].ravel())


def _policy_tables(space: StateSpace, policy: PolicySpec) -> _RankTables:
    """A dispatch policy's rank tables.

    rand and greedy key a request by its origin through ``policy_table``
    (the candidate scan of ``serving_locations``); nadap keys it by the
    location its coin probes, which serves it.
    """
    serve = np.arange(space.n + 1)[:, None]
    if policy.kind != "nadap":
        serve = policy_table(space.as_array(), policy, space.grid)[0][:, :, 0]
        serve = np.column_stack([serve, np.full(space.size, -1)])[:, :, None]
    return _serve_tables(space, serve)


def _rank_tables(config: SimConfig) -> _RankTables | None:
    """An ensemble's rank tables, or None when the space exceeds _TABLE_ELEMENTS.

    The profits come from one ``step_profit`` over the space.
    """
    n = config.grid.n
    try:
        space = StateSpace(config.grid, config.m, config.c, cap=_TABLE_ELEMENTS // (n * (n + 1)))
    except (SizeLimitError, InfeasibleInstanceError):
        return None
    tables = _policy_tables(space, config.policy)
    esp = None
    if config.estimator == "conditional":
        esp = step_profit(space.as_array(), config.model, config.policy, config.c)
    return replace(tables, esp=esp, start=space.rank(config.initial_state) * tables.stride)


def _walk(tables, at, policy, grid, origins, dests, coins) -> tuple[np.ndarray, np.ndarray]:
    """Step runs from offsets ``at``, changed in place, through a schedule chunk, one gather a step.

    A request reads entry ``a * n + v`` of the tables: a is its origin, or
    for nadap the location its coin probes (n for none); a policy of None
    keys by origin.  Returns those entries and the offsets (steps + 1,
    runs) the runs pass through.
    """
    n = grid.n
    key = origins
    if policy is not None and policy.kind == "nadap":
        key = np.where(origins >= 0, serving_locations(policy, grid, None, origins, coins), -1)
    cells = np.where(key >= 0, key, n) * n + dests
    path = np.empty((len(cells) + 1, len(at)), dtype=np.int64)
    path[0] = at
    for now, step, after in zip(path[:-1], cells, path[1:]):
        after[:] = tables.nxt[now + step]
    at[:] = path[-1]
    return cells, path


def _count_steps(config, counts, origins, dests, coins, gains, profits, esp, stale) -> None:
    """Step a chunk of the schedule on driver counts, all runs at once, recording each step's profit.

    ``counts`` is a C-contiguous (runs, n) array, changed in place, and
    ``profits`` the chunk's (runs, steps) columns.  Step t offers run b the
    request ``origins[t, b] -> dests[t, b]`` (origin -1: none; a row of
    width 1 offers every run the same request), served from the policy's
    ``serving_locations`` choice when that location holds a driver and the
    destination has room or is that location.  Only the steps that ask some
    run are stepped: no counts change in between, so the conditional
    estimator writes each stretch of steps up to and including the next
    asked one at once.  ``esp`` holds each run's expected step profit,
    recomputed by ``step_profit`` only for the ``stale`` runs, those that
    moved since; both change in place.
    """
    policy, grid, c = config.policy, config.grid, config.c
    if policy.kind == "nadap":
        # the probe-coin map ignores the counts: map the whole schedule at once
        chosen = serving_locations(policy, grid, None, origins, coins)
    flat = counts.reshape(-1)
    base = np.arange(len(counts)) * counts.shape[1]
    asked = origins >= 0
    at_v = base + dests
    served = np.zeros((len(origins), len(counts)), dtype=bool)
    start = 0
    for t in [*np.flatnonzero(asked.any(axis=1)), len(origins)]:
        if config.estimator == "conditional" and start < len(origins):
            if stale.any():
                esp[stale] = step_profit(counts[stale], config.model, policy, c)
                stale[:] = False
            profits[:, start : t + 1] = esp[:, None]
        if t == len(origins):
            break
        k = chosen[t] if policy.kind == "nadap" else serving_locations(policy, grid, counts, origins[t])
        v = dests[t]
        at_k = base + np.maximum(k, 0)
        served[t] = asked[t] & (k >= 0) & (flat[at_k] >= 1) & ((k == v) | (flat[at_v[t]] < c))
        moving = served[t] & (k != v)
        flat[at_k] -= moving
        flat[at_v[t]] += moving
        stale |= moving
        start = t + 1
    if config.estimator == "realized":
        profits[:] = np.where(served, gains, 0.0).T


def _rank_steps(config, tables, at, origins, dests, coins, gains, profits) -> None:
    """Step a chunk of the schedule on rank offsets ``at``, changed in place, into its (runs, steps) ``profits``."""
    cells, path = _walk(tables, at, config.policy, config.grid, origins, dests, coins)
    start = path[:-1]
    if config.estimator == "conditional":
        profits[:] = tables.esp[start // tables.stride].T
    else:
        profits[:] = np.where(tables.ok[start + cells], gains, 0.0).T


def _block(config: SimConfig, runs: range, trace: tuple | None, tables: _RankTables | None) -> np.ndarray:
    """Per-step profits (runs, steps) of a block of replications stepped together.

    A step is a round under IID arrivals and a trace entry in replay.  Run r
    draws from ``stream(seed, r)``, a schedule chunk at a time: under IID
    arrivals ``random((T, 2))``, a request and a probe coin per round; in
    replay, where every run meets the trace entries in order, nadap's one
    probe coin per entry.  With ``tables`` each run steps a state rank,
    else its driver counts step.  The conditional estimator records the
    expected profit of the state each round starts from, the realized one
    the weight of the step's request if served, else 0.
    """
    if tables is None:
        state = np.tile(np.array(config.initial_state, dtype=np.int64), (len(runs), 1))
        esp, stale = np.zeros(len(runs)), np.ones(len(runs), dtype=bool)
    else:
        state = np.full(len(runs), tables.start, dtype=np.int64)
    steps = config.T if trace is None else len(trace[0])
    profits = np.zeros((len(runs), steps))
    gens = [stream(config.seed, r) for r in runs]
    for a, b in _spans(steps, _SCHEDULE_ELEMENTS // len(runs)):
        if trace is None:
            draws = np.stack([g.random((b - a, 2)) for g in gens], axis=1)
            origins, dests, gains = config.model.requests(draws[:, :, 0])
            coins = draws[:, :, 1]
        else:
            coins = np.stack([g.random(b - a) for g in gens], axis=1) if config.policy.kind == "nadap" else None
            origins, dests, gains = (col[a:b, None] for col in trace[1:])
        schedule = origins, dests, coins, gains, profits[:, a:b]
        if tables is None:
            _count_steps(config, state, *schedule, esp, stale)
        else:
            _rank_steps(config, tables, state, *schedule)
    return profits


def run_ensemble(config: SimConfig) -> ErrorSeries:
    """Run all replications and aggregate per-round means, spreads, and objectives.

    Replication r draws from the (seed, r) stream.  Runs step together in
    blocks whose (run, step) profits fit ``_BLOCK_ELEMENTS``, and the
    reduction is a fixed pass in run-index order, so results do not depend
    on the blocking.  A replay run's entry profits become round profits
    there, one run at a time, added in entry order as the scalar loop adds
    them.  The state space alone picks the step: rank tables built once
    when it fits ``_TABLE_ELEMENTS``, else driver counts.  Both give the
    same bits.
    """
    T, runs = config.T, config.runs
    sum_w = np.zeros(T)
    sumsq_w = np.zeros(T)
    sum_obj = 0.0
    sumsq_obj = 0.0
    trace = None
    if config.trace_columns is not None:
        rounds = config.trace_columns[0]
        trace = tuple(col[: np.searchsorted(rounds, T)] for col in config.trace_columns)
    steps = T if trace is None else len(trace[0])
    tables = _rank_tables(config)
    for a, b in _spans(runs, _BLOCK_ELEMENTS // max(steps, 1)):
        for row in _block(config, range(a, b), trace, tables):
            if trace is not None:
                row = np.bincount(trace[0], weights=row, minlength=T)
            sum_w += row
            sumsq_w += row * row
            obj_r = float(row.mean())
            sum_obj += obj_r
            sumsq_obj += obj_r * obj_r
    w_mean = sum_w / runs
    if runs > 1:
        var = np.maximum(sumsq_w - runs * w_mean**2, 0.0) / (runs - 1)
        w_stderr = np.sqrt(var / runs)
        obj_var = max(sumsq_obj - runs * (sum_obj / runs) ** 2, 0.0) / (runs - 1)
        obj_stderr = math.sqrt(obj_var / runs)
    else:
        w_stderr = np.zeros(T)
        obj_stderr = 0.0
    obj_running = np.cumsum(w_mean) / np.arange(1, T + 1)
    return ErrorSeries(
        t=np.arange(T),
        w_mean=w_mean,
        w_stderr=w_stderr,
        obj_running=obj_running,
        obj=float(obj_running[-1]),
        obj_stderr=obj_stderr,
        runs=runs,
        estimator=config.estimator,
    )


def error_curves(series: ErrorSeries, target="tail", tail_fraction: float = 1.0) -> ErrorSeries:
    """Attach gap curves |estimate - target| to an ensemble series.

    target may be a number (an exact limit or closed-form value) or "tail",
    which averages the final ``tail_fraction`` of the rounds (default all
    of them) and uses that as the convergence value.
    """
    if len(series.w_mean) == 0:
        raise ValueError("series is empty")
    if isinstance(target, str):
        if target != "tail":
            raise ValueError(f"unknown target {target!r}")
        if not (0 < tail_fraction <= 1):
            raise ValueError("tail_fraction must lie in (0, 1]")
        start = len(series.w_mean) - max(1, int(round(tail_fraction * len(series.w_mean))))
        value = float(series.w_mean[start:].mean())
        kind = f"tail:{tail_fraction:g}"
    else:
        value = float(target)
        if not math.isfinite(value):
            raise ValueError("target must be finite")
        kind = "value"
    return replace(
        series,
        target=value,
        target_kind=kind,
        delta=np.abs(series.w_mean - value),
        delta_hat=np.abs(series.obj_running - value),
    )


@dataclass
class ExponentialFit:
    """Least-squares a e^{-b t} fit on log scale, with R^2 there and drop count."""

    a: float
    b: float
    r2: float
    dropped: int


@dataclass
class InverseFit:
    """Least-squares a/T fit (constant fit to T-scaled values), with R^2 on that scale."""

    a: float
    r2: float
    dropped: int = 0


def _r2(y: np.ndarray, pred: np.ndarray) -> float:
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    # a series constant up to rounding noise has no variance to explain;
    # call the fit perfect rather than dividing two epsilons
    tiny = max(1e-300, 1e-24 * float((y * y).sum()))
    if ss_tot <= tiny:
        return 1.0 if ss_res <= tiny else 0.0
    return 1.0 - ss_res / ss_tot


def fit_exponential(t, values) -> ExponentialFit:
    """Fit a e^{-b t} by linear least squares on log(values).

    Nonpositive points cannot be logged; they are dropped and counted, as
    are points with a non-finite t or value, and fewer than three surviving
    points is a fit failure.
    """
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    if t.shape != values.shape:
        raise ValueError("t and values must align")
    keep = np.isfinite(t) & np.isfinite(values) & (values > 0)
    dropped = int((~keep).sum())
    if int(keep.sum()) < 3:
        raise FitFailureError(f"only {int(keep.sum())} finite positive points; need at least 3")
    x = t[keep]
    y = np.log(values[keep])
    slope, intercept = np.polyfit(x, y, 1)
    return ExponentialFit(
        a=float(np.exp(intercept)),
        b=float(-slope),
        r2=_r2(y, slope * x + intercept),
        dropped=dropped,
    )


def fit_inverse(T, values) -> InverseFit:
    """Fit a/T by least squares on the T-scaled series values*T.

    a/T is undefined at T <= 0, so such points are dropped and counted,
    like the exponential fit's nonpositive values, and so are points with
    a non-finite T or value.
    """
    T = np.asarray(T, dtype=float)
    values = np.asarray(values, dtype=float)
    if T.shape != values.shape:
        raise ValueError("T and values must align")
    keep = np.isfinite(T) & np.isfinite(values) & (T > 0)
    dropped = int((~keep).sum())
    if int(keep.sum()) < 1:
        raise FitFailureError("need at least one positive horizon")
    y = values[keep] * T[keep]
    a = float(y.mean())
    return InverseFit(a=a, r2=_r2(y, np.full_like(y, a)), dropped=dropped)
