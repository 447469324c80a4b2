"""Definitional oracles: each exact layer stated request by request.

The package computes every layer below through its policy table, pair
arrays and CSR kernels, solves and mixes chains in blocks, steps ensembles
and episodes on state ranks or driver counts, and ingests trips as whole columns.  These functions state the same
quantities the slow, literal way, one state, one request, one run or one
trip record at a time, and the tests pin the package to them.  Nothing in ``dispatchlab`` imports this module.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from dispatchlab.chain import (MIXING_SIZE_LIMIT, MONOTONE_SLACK, MixingReport, OccupancyPairChain,
                               StationaryResult, TransitionMatrix, _zero_one, gamma_map)
from dispatchlab.errors import DispatchLabError, HorizonTooShortError, SchemaError, SizeLimitError
from dispatchlab.grid import DIRECTIONS, Grid, RequestModel, build_grid, distance_weights, manhattan_distance
from dispatchlab.ingest import (
    DEFAULT_BBOX,
    DEFAULT_COLUMNS,
    DEFAULT_GRID_COLS,
    DEFAULT_GRID_ROWS,
    FIXTURE_COLUMNS,
    FIXTURE_DATES,
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
from dispatchlab.mdp import REJECT, MdpInstance, OccupancyReport, ViResult
from dispatchlab.policies import PolicySpec, step_profit
from dispatchlab.rng import stream
from dispatchlab.simulate import ErrorSeries, SimConfig, initial_state_preset
from dispatchlab.states import StateSpace

# ---------------------------------------------------------------------------
# State ranks from exact bounded-composition counts


def composition_table(n: int, m: int, c: int) -> list[list[int]]:
    """table[i][s]: the ways to fill locations i.. with s drivers, each at most c, as exact ints."""
    table = [[0] * (m + 1) for _ in range(n + 1)]
    table[n][0] = 1
    for i in range(n - 1, -1, -1):
        for s in range(m + 1):
            table[i][s] = sum(table[i + 1][s - t] for t in range(min(c, s) + 1))
    return table


def rank_by_table(table: list[list[int]], counts: Sequence[int]) -> int:
    """Lexicographic rank of a legal count vector: the states below it, counted location by location."""
    r, rem = 0, sum(counts)
    for i, x in enumerate(counts):
        r += sum(table[i + 1][rem - t] for t in range(x))
        rem -= x
    return r


def unrank(space: StateSpace, index: int) -> tuple[int, ...]:
    """The state of rank ``index``: inverse of ``space.rank``, read off its completion table."""
    if not (0 <= index < space.size):
        raise ValueError(f"rank {index} outside [0, {space.size})")
    table = space._ways.tolist()
    out = []
    rem = space.m
    r = index
    for i in range(space.n):
        for t in range(0, min(space.c, rem) + 1):
            block = table[i + 1][rem - t]
            if r < block:
                out.append(t)
                rem -= t
                break
            r -= block
    return tuple(out)


def ranks(space: StateSpace, counts: np.ndarray) -> np.ndarray:
    """Ranks of a (batch, n) array of valid states: ``space.rank`` over the prefix table, vectorized."""
    counts = np.asarray(counts)
    rem = space.m - np.cumsum(counts, axis=1) + counts
    return space._prefix()[np.arange(space.n), rem, counts].sum(axis=1)


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
# The serving rule, one state and one request at a time


def can_serve(counts: Sequence[int], serving: int, dest: int, c: int) -> bool:
    """Feasibility of dispatching a driver at ``serving`` to ``dest``.

    A self-dispatch (serving == dest) moves nothing, so only driver
    presence matters; otherwise the destination must be below capacity.
    """
    return counts[serving] >= 1 and (serving == dest or counts[dest] < c)


def rand_scan_order(grid: Grid, origin: int, phi: Sequence[str]) -> list[int]:
    """In-grid neighbors of ``origin`` in phi order (off-grid directions skipped)."""
    out = []
    for direction in phi:
        k = grid.neighbor_toward(origin, direction)
        if k is not None:
            out.append(k)
    return out


def greedy_candidates(grid: Grid, state: Sequence[int], origin: int, origin_first: bool = True) -> list[int]:
    """Candidate order for greedy: origin first, then neighbors by falling count.

    Count ties break clockwise from North (the grid's neighbor order).
    With origin_first=False the origin joins the count-sorted pool and wins
    ties.
    """
    nbrs = grid.neighbors(origin)
    if origin_first:
        ranked = sorted(range(len(nbrs)), key=lambda i: (-state[nbrs[i]], i))
        return [origin] + [nbrs[i] for i in ranked]
    pool = [(origin, -1)] + [(k, i) for i, k in enumerate(nbrs)]
    pool.sort(key=lambda item: (-state[item[0]], item[1]))
    return [k for k, _ in pool]


def nadap_probe_weights(grid: Grid, origin: int, alpha, boundary: str = "renormalize"):
    """Candidate serving locations and their probe probabilities for nadap.

    Returns a list of ``(location, weight)``; a ``None`` location collects
    the mass that draws an off-grid direction (rejected outright).  Exact
    inputs (Fraction alpha) produce exact weights.
    """
    nbrs = grid.neighbors(origin)
    one = Fraction(1) if isinstance(alpha, Fraction) else 1.0
    rest = one - alpha
    out = [(origin, alpha)]
    if boundary == "renormalize":
        if nbrs:
            share = rest / len(nbrs)
            out.extend((k, share) for k in nbrs)
        elif rest != 0:
            out.append((None, rest))
    else:
        share = rest / 4
        out.extend((k, share) for k in nbrs)
        lost = rest - share * len(nbrs)
        if lost != 0:
            out.append((None, lost))
    return out


def serving_location(state: Sequence[int], origin: int, policy: PolicySpec, grid: Grid, coin=None):
    """The location ``policy`` serves a request from ``origin`` with, or None.

    This is the one scalar statement of every policy's serving choice.
    nadap maps its probe coin (uniform on [0, 1)) to the origin below
    alpha, else to one of equal slices: the in-grid neighbors
    ("renormalize") or the four compass directions ("lost", None off-grid).
    It ignores the counts, so the probed location may be empty.  rand and
    greedy ignore the coin and return their first occupied candidate.
    """
    if policy.kind == "nadap":
        if coin is None:
            raise ValueError("nadap needs a probe coin")
        alpha = policy.alpha
        if coin < alpha or alpha >= 1:
            return origin
        frac = (coin - alpha) / (1 - alpha)
        if policy.boundary == "lost":
            return grid.neighbor_toward(origin, DIRECTIONS[min(int(frac * 4), 3)])
        nbrs = grid.neighbors(origin)
        if not nbrs:
            return None
        return nbrs[min(int(frac * len(nbrs)), len(nbrs) - 1)]
    if policy.kind == "rand":
        if state[origin] >= 1:
            return origin
        candidates = rand_scan_order(grid, origin, policy.phi)
    else:
        candidates = greedy_candidates(grid, state, origin, policy.origin_first)
    for k in candidates:
        if state[k] >= 1:
            return k
    return None


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


def limiting_objective_gamma(stationary: StationaryResult, model: RequestModel, policy: PolicySpec) -> float:
    """nadap's long-run per-round profit through the gamma map, request by request.

    nadap's probe lands independently of the state, so a request (u, v) is
    served with probability sum_k probe(u, k) gamma[k, v]; the objective
    adds p w times that over the requests, the off-grid probe mass left out.
    """
    grid = stationary.space.grid
    gamma = gamma_map(stationary.space, stationary.pi)
    total = 0.0
    for u in range(grid.n):
        probes = nadap_probe_weights(grid, u, policy.alpha, policy.boundary)
        for v in range(grid.n):
            coef = model.p[u, v] * model.w[u, v]
            if coef == 0:
                continue
            served = 0.0
            for k, wgt in probes:
                if k is not None and wgt != 0:
                    served += float(wgt) * gamma[k, v]
            total += float(coef) * served
    return total


# ---------------------------------------------------------------------------
# Transition kernels from per-state rows


def kernel_from_rows(space: StateSpace, rows: Sequence[dict], policy: PolicySpec | None,
                     exact: bool) -> TransitionMatrix:
    """Kernel from per-state {destination rank: probability} mappings, taken as given."""
    rows = [sorted(row.items()) for row in rows]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    indices = np.array([j for row in rows for j, _ in row], dtype=np.int64)
    data = np.array([p for row in rows for _, p in row], dtype=object if exact else float)
    return TransitionMatrix(space, indptr, indices, data, policy, exact)


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
        x = unrank(space, ix)
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
# Stationary solve and mixing curve, one pivot and one row block at a time


def gth_solve_scalar(P: np.ndarray) -> np.ndarray:
    """Stationary vector by state elimination (no subtractions, so no cancellation)."""
    A = P.astype(float).copy()
    size = A.shape[0]
    for k in range(size - 1, 0, -1):
        s = A[k, :k].sum()
        if s <= 0:
            raise ValueError("chain is reducible: elimination hit an absorbing block")
        A[:k, k] /= s
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    pi = np.zeros(size)
    pi[0] = 1.0
    for k in range(1, size):
        pi[k] = pi[:k] @ A[:k, k]
    return pi / pi.sum()


def mixing_curve_loop(
    tm: TransitionMatrix,
    pi: np.ndarray,
    epsilons: Sequence[float],
    t_max: int,
    start_ranks: Sequence[int] | None = None,
) -> MixingReport:
    """Track the worst start's distance to stationary until every threshold is met.

    All starts are propagated together (one dense block against the sparse
    kernel per round).  Above the exhaustive-size limit a start sample must
    be supplied, and the curve is a lower bound flagged non-exhaustive.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    eps = sorted(set(float(e) for e in epsilons), reverse=True)
    if not eps or not all(0 < e < math.inf for e in eps):
        raise ValueError("thresholds must be positive and finite")
    size = tm.size
    if start_ranks is None:
        if size > MIXING_SIZE_LIMIT:
            raise SizeLimitError(
                f"{size} states exceeds the exhaustive mixing limit {MIXING_SIZE_LIMIT}; "
                "pass an explicit start sample"
            )
        starts = np.arange(size)
        exhaustive = True
    else:
        starts = np.asarray(sorted(set(int(s) for s in start_ranks)))
        exhaustive = bool(len(starts) == size)
    P = tm.to_csr()
    D = np.zeros((len(starts), size))
    D[np.arange(len(starts)), starts] = 1.0
    d_curve = [0.5 * float(np.abs(D - pi).sum(axis=1).max())]
    tau: dict = {}
    for e in eps:
        if d_curve[0] <= e:
            tau.setdefault(e, 0)
    t = 0
    while len(tau) < len(eps) and t < t_max:
        D = D @ P
        t += 1
        dt = 0.5 * float(np.abs(D - pi).sum(axis=1).max())
        if dt > d_curve[-1] + MONOTONE_SLACK:
            raise RuntimeError(f"distance to stationary increased at t={t}: {d_curve[-1]} -> {dt}")
        d_curve.append(dt)
        for e in eps:
            if e not in tau and dt <= e:
                tau[e] = t
    curve = np.array(d_curve)
    if len(tau) < len(eps):
        missing = [e for e in eps if e not in tau]
        raise HorizonTooShortError(
            f"d({t_max}) = {curve[-1]:.3e} still above thresholds {missing}",
            d_curve=curve,
        )
    return MixingReport(curve, tau, exhaustive=exhaustive, start_count=len(starts))


def matrix_gap_series(chain: OccupancyPairChain, T: int) -> np.ndarray:
    """|P^t(s1, s4) - gamma| for t = 0..T by repeated float multiplication: the oracle for ``gap_series``."""
    P = chain.P.astype(float)
    row = np.array([1.0, 0.0, 0.0, 0.0])
    out = np.empty(T + 1)
    g = float(chain.gamma)
    for t in range(T + 1):
        out[t] = abs(row[3] - g)
        row = row @ P
    return out


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
# Ensembles and episodes, one run and one round at a time


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
    for rnd, u, v, weight in zip(*config.trace_columns):
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


def run_ensemble_scalar(config: SimConfig) -> ErrorSeries:
    """The ensemble reduction over the scalar run loops: the reference for ``run_ensemble``.

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


@dataclass
class EpisodeStep:
    """One period of an episode log: the request seen, choice made, and outcome."""

    period: int
    state: tuple
    request: tuple | None
    action: int
    serving: int | None
    success: bool
    profit: float


def _draw_request(q_cum: np.ndarray, u01: float) -> int:
    """Index of the arrival slot a uniform draw lands in; past-the-end is none."""
    return int(np.searchsorted(q_cum, u01, side="right"))


def simulate_policy_episode(
    instance: MdpInstance,
    act,
    periods: int,
    seed: int,
    initial_state: Sequence[int] | None = None,
    episode_key: tuple = (),
) -> tuple[OccupancyReport, list[EpisodeStep]]:
    """Roll one seeded episode under an arbitrary action rule and log every period.

    ``act(counts, request_index, coin_stream)`` returns the serving
    location or None.  Requests draw from the (seed, *episode_key, 0)
    stream and policy coins from (seed, *episode_key, 1), so different
    rules face the identical arrival sequence.
    """
    if periods < 1:
        raise ValueError("an episode needs at least one period")
    grid = instance.grid
    n = grid.n
    c = instance.c
    R = instance.n_requests
    counts = list(
        initial_state
        if initial_state is not None
        else initial_state_preset(grid, instance.m, c, "adversarial")
    )
    instance.space.check_counts(counts)
    req_rng = stream(seed, *episode_key, 0)
    coin_rng = stream(seed, *episode_key, 1)
    flat_p = instance.model.p.astype(float).ravel()
    q_cum = np.cumsum(flat_p)
    w = instance.model.w.astype(float)
    covered = np.zeros(n)
    starts = np.zeros(n)
    drops = np.zeros(n)
    served = 0
    log: list[EpisodeStep] = []
    draws = req_rng.random(periods)
    for t in range(periods):
        state_before = tuple(counts)
        for u in range(n):
            if counts[u] >= 1:
                covered[u] += 1
        r = _draw_request(q_cum, draws[t])
        if r >= R:
            log.append(EpisodeStep(t, state_before, None, REJECT, None, False, 0.0))
            continue
        u, v = divmod(r, n)
        k = act(counts, r, coin_rng)
        success = k is not None and can_serve(counts, k, v, c)
        profit = w[u, v] if success else 0.0
        if success:
            served += 1
            starts[u] += 1
            drops[u] += 1
            if v != u:
                drops[v] += 1
            if k != v:
                counts[k] -= 1
                counts[v] += 1
        action = REJECT
        if k is not None:
            action = 1 if k == u else 2 + grid.neighbors(u).index(k)
        log.append(EpisodeStep(t, state_before, (u, v), action, k, success, profit))
    report = OccupancyReport(
        time_covered=100.0 * covered / periods,
        drop_rate=100.0 * drops / periods,
        start_pct=100.0 * starts / periods,
        periods=periods,
        served=served,
    )
    return report, log


def discounted_return(log: list[EpisodeStep], gamma: float) -> float:
    return sum(step.profit * gamma**step.period for step in log)


def optimal_act(instance: MdpInstance, result: ViResult):
    """The value-iteration policy as a scalar episode action rule."""
    space = instance.space

    def act(counts, r, _coin_rng):
        return instance.action_location(r, int(result.policy[space.rank(counts), r]))

    return act


def optimal_episode(
    instance: MdpInstance,
    result: ViResult,
    periods: int = 1000,
    seed: int = 0,
    initial_state: Sequence[int] | None = None,
) -> tuple[OccupancyReport, list[EpisodeStep]]:
    """Episode under the value-iteration policy, with its occupancy measures and log."""
    return simulate_policy_episode(instance, optimal_act(instance, result), periods, seed, initial_state)


def policy_value_loop(instance: MdpInstance, policy: np.ndarray) -> np.ndarray:
    """``policy_value`` with one gather and one ``np.add.at`` per request slot.

    The augmented chain under a fixed policy factorizes through the
    post-action placement, so the system solved is placement-sized.
    """
    nxt, rew = instance.action_tables
    q = instance.request_probs()
    size = instance.space.size
    R = instance.n_requests
    rows = np.arange(size)
    # placement i with pending slot r moves to placement nxt[r, a_ir, i] earning rew[r, a_ir, i]
    a = policy
    moved = np.empty((size, R + 1), dtype=np.int64)
    earned = np.empty((size, R + 1))
    for r in range(R + 1):
        moved[:, r] = nxt[r, a[:, r], rows]
        earned[:, r] = rew[r, a[:, r], rows]
    # u[i] = expected discounted return from placement i just before arrivals
    # u = sum_r q_r (earned + gamma * u[moved]) -> (I - gamma * M) u = b
    M = np.zeros((size, size))
    b = np.zeros(size)
    for r in range(R + 1):
        np.add.at(M, (rows, moved[:, r]), q[r])
        b += q[r] * earned[:, r]
    u = np.linalg.solve(np.eye(size) - instance.discount * M, b)
    values = earned + instance.discount * u[moved]
    return values


def same_report(a: OccupancyReport, b: OccupancyReport) -> bool:
    """Two occupancy reports agree bit for bit."""
    return (
        a.periods == b.periods
        and a.served == b.served
        and all(np.array_equal(getattr(a, f), getattr(b, f))
                for f in ("time_covered", "drop_rate", "start_pct"))
    )


def compare_policies_scalar(
    instance: MdpInstance,
    result: ViResult,
    baselines: Sequence[PolicySpec],
    episodes: int = 1000,
    periods: int = 200,
    seed: int = 0,
    initial_state: Sequence[int] | None = None,
) -> dict[str, np.ndarray]:
    """Per-episode returns from the scalar episode loop: the reference for ``compare_policies``.

    Every policy replays the identical request streams (common random
    numbers), episode e drawing from (seed, e), so per-episode returns
    pair up across policies.  Returns label -> per-episode return array,
    with the value-iteration policy under the label "optimal".
    """
    grid = instance.grid

    def baseline_act(policy):
        def act(counts, r, coin_rng):
            coin = coin_rng.random() if policy.kind == "nadap" else None
            return serving_location(counts, r // grid.n, policy, grid, coin)

        return act

    rules = {"optimal": optimal_act(instance, result)}
    for policy in baselines:
        rules[policy.label()] = baseline_act(policy)
    out = {}
    for label, rule in rules.items():
        returns = np.empty(episodes)
        for e in range(episodes):
            _, log = simulate_policy_episode(
                instance, rule, periods, seed, initial_state, episode_key=(e,)
            )
            returns[e] = discounted_return(log, instance.discount)
        out[label] = returns
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
    columns = (np.array([e[i] for e in stamped], dtype=t) for i, t in enumerate((np.int64,) * 3 + (np.float64,)))
    return ReplayTrace(*columns, rounds=segment_seconds(segment), segment=segment, date=date)


def write_model_rows(path, model: RequestModel) -> None:
    """``model.csv`` written cell by cell: ``origin,dest,p,w`` where p or w is nonzero."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["origin", "dest", "p", "w"])
        for u in range(model.n):
            for v in range(model.n):
                if model.p[u, v] != 0 or model.w[u, v] != 0:
                    writer.writerow([u, v, f"{float(model.p[u, v]):.17g}", f"{float(model.w[u, v]):.17g}"])


def request_model_from_csv_rows(path, grid: Grid) -> RequestModel:
    """``RequestModel.from_csv`` stated row by row: ``csv.reader``, ``int`` and ``float`` on every row.

    The file's physical lines are decoded as UTF-8 one at a time.  The
    header must hold origin, dest, p and w, a repeated name reading as its
    last occurrence; blank lines are not rows.  The first line that is
    short, holds a cell that ``int`` (into int64) or ``float`` refuses, holds
    bytes that are not UTF-8 or holds a field past ``csv.field_size_limit()``
    raises ``SchemaError`` naming it.  Only then is every cell checked
    against the grid, in file order and origin first.  A repeated cell keeps
    its last row.
    """
    n = grid.n
    names = ("origin", "dest", "p", "w")
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    reader = csv.reader(line.decode("utf-8") for line in lines)
    rows = []
    try:
        header = next(reader, [])
        missing = [c for c in names if c not in header]
        if missing:
            raise SchemaError(f"{path}: line 1: header lacks columns {missing}")
        where = [len(header) - 1 - header[::-1].index(c) for c in names]
        start = reader.line_num + 1
        for row in reader:
            if row:
                if len(row) <= max(where):
                    short = next(name for name, j in zip(names, where) if j >= len(row))
                    raise SchemaError(f"{path}: line {start}: short row, no {short} cell")
                values = []
                for name, j, kind in zip(names, where, ("int64", "int64", "float64", "float64")):
                    try:
                        value = int(row[j]) if kind == "int64" else float(row[j])
                    except ValueError:
                        value = None
                    if value is None or (kind == "int64" and not -2**63 <= value < 2**63):
                        raise SchemaError(f"{path}: line {start}: {name} cell {row[j]!r} is not {kind}")
                    values.append(value)
                rows.append(values)
            start = reader.line_num + 1
    except csv.Error as exc:
        raise SchemaError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        raise SchemaError(f"{path}: line {reader.line_num + 1}: bytes that are not UTF-8") from None
    for u, v, _, _ in rows:
        grid.check_location(u)
        grid.check_location(v)
    p, w = np.zeros(n * n), np.zeros(n * n)
    for u, v, pv, wv in rows:
        p[u * n + v], w[u * n + v] = pv, wv
    return RequestModel(grid, p.reshape(n, n), w.reshape(n, n))


def write_replay_rows(path, trace: ReplayTrace) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "origin", "dest", "weight"])
        for rnd, u, v, w in zip(*(c.tolist() for c in trace.columns)):
            writer.writerow([rnd, u, v, f"{w:.17g}"])


def make_fixture_rows(path, trips: int = 1000, seed: int = 0, cars: int = 40) -> int:
    """The fixture drawn one scalar ``Generator`` call at a time and written row by row.

    ``make_fixture`` must write these bytes: it computes the same draws from
    the stream's raw words, a block of rows at a time.
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
