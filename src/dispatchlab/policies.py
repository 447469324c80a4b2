"""Dispatch policies: the serving rule, its array table, and exact per-state profit.

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


#: Slots of a policy table per (state, origin): at most the origin and its four neighbors.
SLOTS = 5

#: Rough element budget of one step_profit chunk of (states, origins, destinations).
_PROFIT_CHUNK = 1 << 18


def policy_table(states: np.ndarray, policy: PolicySpec, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Every policy's serving choice as arrays of (location, weight) slots.

    Returns ``(loc, wgt)`` of shape (batch, n, slots): a request from origin
    u in state b is served from ``loc[b, u, s]`` (-1 for none) with
    probability ``wgt[b, u, s]``.  rand and greedy have one slot of weight
    1, serving_location's choice in each state of the (batch, n) count
    array ``states``.  nadap's slots are its probe weights without the
    off-grid mass; they ignore the counts, so its batch axis has length 1.
    """
    n = grid.n
    if policy.kind == "nadap":
        loc = np.full((1, n, SLOTS), -1, dtype=np.int64)
        wgt = np.zeros((1, n, SLOTS), dtype=object if isinstance(policy.alpha, Fraction) else float)
        for u in range(n):
            probes = nadap_probe_weights(grid, u, policy.alpha, policy.boundary)
            for s, (k, w) in enumerate((k, w) for k, w in probes if k is not None):
                loc[0, u, s], wgt[0, u, s] = k, w
        return loc, wgt
    cand = np.full((n, SLOTS), -1, dtype=np.int64)
    for u in range(n):
        scan = rand_scan_order(grid, u, policy.phi) if policy.kind == "rand" else grid.neighbors(u)
        cand[u, : 1 + len(scan)] = (u, *scan)
    score = np.where(cand >= 0, states[:, np.maximum(cand, 0)], -1)
    if policy.kind == "rand":
        score = score >= 1
    elif policy.origin_first:
        score[:, :, 0] = np.where(score[:, :, 0] >= 1, score.max() + 1, -1)
    # the first best candidate serves: rand's scan order, greedy's neighbor order
    pick = score.argmax(axis=2)
    best = np.take_along_axis(score, pick[:, :, None], axis=2)[:, :, 0]
    loc = np.where(best >= 1, cand[np.arange(n), pick], -1)[:, :, None]
    return loc, np.ones(loc.shape, dtype=np.int64)


def step_profit(states: np.ndarray, model: RequestModel, policy: PolicySpec, c: int) -> np.ndarray:
    """Expected one-round profit E[sum_r p_r w_r success_r] of every state, as floats.

    ``states`` is a (batch, n) count array.  The policy table is summed as
    the per-request oracle in tests/oracles.py sums: for each origin the
    weights of the slots that can serve each destination add up in slot
    order, then the profit terms add one at a time in (u, v) order.  Float
    models therefore give the oracle's value bit for bit; exact models are
    summed exactly and rounded once.
    """
    states = np.asarray(states)
    n = model.grid.n
    loc, wgt = policy_table(states, policy, model.grid)
    dtype = object if model.exact else float
    coef = (model.p * model.w).astype(dtype)
    dest = np.arange(n)
    out = np.empty(len(states), dtype=dtype)
    chunk = max(1, _PROFIT_CHUNK // (n * n))
    for a in range(0, len(states), chunk):
        X = states[a : a + chunk]
        L, W = (loc, wgt) if len(loc) == 1 else (loc[a : a + chunk], wgt[a : a + chunk])
        occupied = (L >= 0) & (X[np.arange(len(X))[:, None, None], np.maximum(L, 0)] >= 1)
        room = (X < c)[:, None, :]
        prob = 0
        for s in range(L.shape[2]):
            serves = occupied[:, :, s, None] & ((L[:, :, s, None] == dest) | room)
            prob = prob + np.where(serves, W[:, :, s, None], 0)
        terms = (coef * prob).reshape(len(X), n * n)
        out[a : a + chunk] = np.cumsum(terms, axis=1)[:, -1]
    return out.astype(float)
