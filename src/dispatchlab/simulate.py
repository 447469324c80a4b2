"""Seeded Monte-Carlo ensembles: per-round profit curves, error curves, decay fits.

Each replication owns the random stream addressed by (seed, run index), so
ensembles are reproducible and insensitive to execution order; aggregation
is a fixed-order reduction over run indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import FitFailureError
from .grid import Grid, RequestModel
from .policies import PolicySpec, can_serve, serving_location, step_profit
from .rng import stream

#: Trace entry: (round, origin, dest, weight).  Rounds may repeat (same-second
#: arrivals are processed sequentially inside their round) but never decrease.
TraceEntry = tuple[int, int, int, float]


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
    trace: Sequence[TraceEntry] | None = None
    initial_state: Sequence[int] = ()
    estimator: str = "conditional"

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


def _iid_round_tables(config: SimConfig):
    """Precompute the request-sampling table and float weights for IID mode."""
    model = config.model
    cum_p = np.cumsum(model.p.astype(float).ravel())
    return cum_p, model.w.astype(float)


def _run_single_iid(config: SimConfig, run_idx: int, tables, esp_cache: dict) -> np.ndarray:
    """One replication's per-round profit vector under IID arrivals."""
    cum_p, w = tables
    grid, policy, c = config.grid, config.policy, config.c
    n = grid.n
    T = config.T
    conditional = config.estimator == "conditional"
    rng = stream(config.seed, run_idx)
    draws = rng.random((T, 2))
    req = np.searchsorted(cum_p, draws[:, 0], side="right")
    coins = draws[:, 1]
    npairs = n * n
    counts = list(config.initial_state)
    key = tuple(counts)
    profits = np.zeros(T)
    model = config.model
    for t in range(T):
        if conditional:
            esp = esp_cache.get(key)
            if esp is None:
                esp = step_profit(np.array([counts]), model, policy, c)[0]
                esp_cache[key] = esp
            profits[t] = esp
        r = int(req[t])
        if r >= npairs:
            continue
        u, v = divmod(r, n)
        k = serving_location(counts, u, policy, grid, coins[t])
        if k is None or not can_serve(counts, k, v, c):
            continue
        if not conditional:
            profits[t] = w[u, v]
        if k != v:
            counts[k] -= 1
            counts[v] += 1
            key = tuple(counts)
            assert 0 <= counts[k] and counts[v] <= c
    return profits


def _run_single_replay(config: SimConfig, run_idx: int) -> np.ndarray:
    """One replication's realized profits while replaying a recorded arrival trace."""
    grid, policy, c = config.grid, config.policy, config.c
    T = config.T
    rng = stream(config.seed, run_idx)
    counts = list(config.initial_state)
    profits = np.zeros(T)
    last_round = -1
    for rnd, u, v, weight in config.trace:
        rnd = int(rnd)
        if rnd < last_round:
            raise ValueError("trace rounds must be non-decreasing")
        last_round = rnd
        if rnd >= T:
            break
        u, v = int(u), int(v)
        coin = rng.random() if policy.kind == "nadap" else None
        k = serving_location(counts, u, policy, grid, coin)
        if k is None or not can_serve(counts, k, v, c):
            continue
        profits[rnd] += float(weight)
        if k != v:
            counts[k] -= 1
            counts[v] += 1
    return profits


def run_ensemble(config: SimConfig) -> ErrorSeries:
    """Run all replications and aggregate per-round means, spreads, and objectives.

    Replication r draws from the (seed, r) stream; the reduction is a fixed
    pass in run-index order, so results are identical however the runs are
    scheduled.
    """
    T, runs = config.T, config.runs
    sum_w = np.zeros(T)
    sumsq_w = np.zeros(T)
    sum_obj = 0.0
    sumsq_obj = 0.0
    tables = _iid_round_tables(config) if config.model is not None else None
    esp_cache: dict = {}
    for r in range(runs):
        if config.model is not None:
            profits = _run_single_iid(config, r, tables, esp_cache)
        else:
            profits = _run_single_replay(config, r)
        sum_w += profits
        sumsq_w += profits * profits
        obj_r = float(profits.mean())
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

    Nonpositive points cannot be logged; they are dropped and counted, and
    fewer than three surviving points is a fit failure.
    """
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    if t.shape != values.shape:
        raise ValueError("t and values must align")
    keep = values > 0
    dropped = int((~keep).sum())
    if int(keep.sum()) < 3:
        raise FitFailureError(f"only {int(keep.sum())} positive points; need at least 3")
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
    like the exponential fit's nonpositive values.
    """
    T = np.asarray(T, dtype=float)
    values = np.asarray(values, dtype=float)
    if T.shape != values.shape:
        raise ValueError("T and values must align")
    keep = T > 0
    dropped = int((~keep).sum())
    if int(keep.sum()) < 1:
        raise FitFailureError("need at least one positive horizon")
    y = values[keep] * T[keep]
    a = float(y.mean())
    return InverseFit(a=a, r2=_r2(y, np.full_like(y, a)), dropped=dropped)
