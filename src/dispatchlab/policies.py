"""Dispatch policies: probing rules, single-request outcomes, and exact per-state profit.

All policies see a request ``(u, v)`` and pick a serving location near the
origin ``u``.  A dispatch from serving location ``k`` succeeds when ``k``
holds a driver and the destination has spare capacity; a dispatch whose
serving location *is* the destination leaves every count unchanged, so the
capacity check is vacuous there and a driver at ``v`` suffices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .grid import DIRECTIONS, Grid, RequestModel

#: The clockwise direction order, the default neighbor scan for rand.
PHI_CLOCKWISE = DIRECTIONS

#: All 24 direction orders accepted by the rand policy.
ALL_PHIS = tuple(itertools.permutations(DIRECTIONS))

_KINDS = ("nadap", "rand", "greedy")
_BOUNDARY_MODES = ("renormalize", "lost")


@dataclass(frozen=True)
class PolicySpec:
    """A parsed policy: kind plus its parameters.

    boundary controls how nadap spreads its neighbor-probe mass at grid
    edges: "renormalize" (default) splits 1 - alpha over the in-grid
    neighbors, "lost" gives each of the four compass directions
    (1 - alpha) / 4 and discards off-grid draws as rejections.
    origin_first controls whether greedy always tries the request origin
    before count-sorted neighbors (default) or pools the origin into the
    count-sorted candidate list.
    """

    kind: str
    alpha: float | None = None
    phi: tuple[str, str, str, str] = PHI_CLOCKWISE
    boundary: str = "renormalize"
    origin_first: bool = True

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "nadap":
            if self.alpha is None or not (0 < float(self.alpha) <= 1):
                raise ValueError(f"nadap needs alpha in (0, 1], got {self.alpha}")
            if self.boundary not in _BOUNDARY_MODES:
                raise ValueError(f"boundary must be one of {_BOUNDARY_MODES}")
        if self.kind == "rand":
            if tuple(self.phi) not in ALL_PHIS:
                raise ValueError(f"phi must be a permutation of {DIRECTIONS}, got {self.phi}")
        object.__setattr__(self, "phi", tuple(self.phi))

    def label(self) -> str:
        if self.kind == "nadap":
            base = f"nadap:{float(self.alpha):g}"
            return base if self.boundary == "renormalize" else base + ":lost"
        if self.kind == "rand":
            return "rand:" + "".join(self.phi)
        return "greedy" if self.origin_first else "greedy:pool"


def parse_policy(text: str) -> PolicySpec:
    """Parse ``nadap:0.8``, ``rand:NESW``, or ``greedy`` (see PolicySpec for suffixes)."""
    parts = text.strip().split(":")
    kind = parts[0].lower()
    if kind == "nadap":
        if len(parts) < 2:
            raise ValueError("nadap needs an alpha, e.g. nadap:0.8")
        alpha = float(parts[1])
        boundary = "renormalize"
        if len(parts) == 3:
            boundary = {"lost": "lost", "renorm": "renormalize", "renormalize": "renormalize"}.get(parts[2])
            if boundary is None:
                raise ValueError(f"unknown nadap boundary mode {parts[2]!r}")
        elif len(parts) > 3:
            raise ValueError(f"malformed policy {text!r}")
        return PolicySpec("nadap", alpha=alpha, boundary=boundary)
    if kind == "rand":
        if len(parts) != 2 or len(parts[1]) != 4:
            raise ValueError("rand needs a 4-letter direction order, e.g. rand:NESW")
        phi = tuple(parts[1].upper())
        return PolicySpec("rand", phi=phi)
    if kind == "greedy":
        if len(parts) == 1:
            return PolicySpec("greedy")
        if len(parts) == 2 and parts[1] == "pool":
            return PolicySpec("greedy", origin_first=False)
        raise ValueError(f"malformed policy {text!r}")
    raise ValueError(f"unknown policy {text!r}")


@dataclass(frozen=True)
class DispatchOutcome:
    """Result of offering one request to a policy in one state."""

    chosen: int | None
    success: bool
    profit: float


def can_serve(counts: Sequence[int], serving: int, dest: int, c: int) -> bool:
    """Feasibility of dispatching a driver at ``serving`` to ``dest``.

    A self-dispatch (serving == dest) moves nothing, so only driver
    presence matters; otherwise the destination must be below capacity.
    """
    return counts[serving] >= 1 and (serving == dest or counts[dest] < c)


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


def serving_table(states: np.ndarray, policy: PolicySpec, grid: Grid) -> np.ndarray:
    """serving_location of rand or greedy for every (state, origin); -1 where none serves.

    ``states`` is a (batch, n) count array; the result has the same shape.
    nadap has no table, since its serving location depends on the probe coin.
    """
    if policy.kind == "nadap":
        raise ValueError("nadap's serving location depends on its probe coin")
    occ = states >= 1
    batch = len(states)
    out = np.full(states.shape, -1, dtype=np.int64)
    for u in range(grid.n):
        if policy.kind == "rand":
            chosen = np.where(occ[:, u], u, -1)
            for k in rand_scan_order(grid, u, policy.phi):
                chosen = np.where((chosen < 0) & occ[:, k], k, chosen)
        else:
            nbrs = np.array(grid.neighbors(u), dtype=np.int64)
            if policy.origin_first:
                if len(nbrs):
                    counts = states[:, nbrs]
                    best = nbrs[np.argmax(counts, axis=1)]
                    fallback = np.where(counts.max(axis=1) >= 1, best, -1)
                else:
                    fallback = np.full(batch, -1, dtype=np.int64)
                chosen = np.where(occ[:, u], u, fallback)
            else:
                cols = np.concatenate(([u], nbrs))
                counts = states[:, cols]
                best = cols[np.argmax(counts, axis=1)]
                chosen = np.where(counts.max(axis=1) >= 1, best, -1)
        out[:, u] = chosen
    return out


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
