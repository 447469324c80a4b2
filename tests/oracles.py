"""Definitional oracles: each exact layer stated request by request.

The package computes every layer below through its policy table, pair
arrays and CSR kernels.  These functions state the same quantities the
slow, literal way, one state and one request at a time, and the tests pin
the package to them.  Nothing in ``dispatchlab`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from dispatchlab.chain import TransitionMatrix, _zero_one
from dispatchlab.errors import DispatchLabError
from dispatchlab.grid import RequestModel
from dispatchlab.policies import PolicySpec, can_serve, nadap_probe_weights, serving_location
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
