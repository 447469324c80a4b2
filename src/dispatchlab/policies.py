"""Dispatch policies: the serving rule, its array table, and exact per-state profit.

All policies see a request ``(u, v)`` and pick a serving location near the
origin ``u``.  A dispatch from serving location ``k`` succeeds when ``k``
holds a driver and the destination has spare capacity; a dispatch whose
serving location *is* the destination leaves every count unchanged, so the
capacity check is vacuous there and a driver at ``v`` suffices.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

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


#: Slots of a policy table per (state, origin): at most the origin and its four neighbors.
SLOTS = 5

#: Rough element budget of one step_profit chunk of (states, paying requests, slots).
_PROFIT_CHUNK = 1 << 18


@functools.cache
def candidate_table(policy: PolicySpec, grid: Grid) -> np.ndarray:
    """Each origin's serving candidates in slot order: a read-only (n, SLOTS) array.

    Slot 0 is the origin and the rest are its neighbors: in phi order for
    rand (its scan), clockwise from North for greedy (ranked by count when
    serving) and for nadap's renormalized probes, and one slot per compass
    direction (-1 off-grid) for nadap's lost probes.  nadap pads with -1;
    rand and greedy repeat the origin, which never wins over slot 0.  It
    is read off ``Grid.scan_table`` once per (policy, grid).
    """
    lost = policy.kind == "nadap" and policy.boundary == "lost"
    cand = grid.scan_table(policy.phi if policy.kind == "rand" else DIRECTIONS, keep_off_grid=lost)
    if policy.kind != "nadap":
        cand = np.where(cand >= 0, cand, cand[:, :1])
    cand.flags.writeable = False
    return cand


def _first_best(policy: PolicySpec, cand: np.ndarray, origin, held: np.ndarray) -> np.ndarray:
    """The candidate scan of rand and greedy: the first best candidate of ``origin``, -1 for none.

    ``held[..., s]`` is the driver count at candidate ``cand[origin, s]``.
    rand scores occupancy, so its scan order decides; greedy scores the
    count, ties going to the earlier slot, and an occupied origin comes
    first unless it is pooled.  A candidate serves only if it holds a driver.
    """
    score = held
    if policy.kind == "rand":
        score = score >= 1
    elif policy.origin_first:
        score = score.copy()
        score[..., 0] = np.where(score[..., 0] >= 1, score.max() + 1, -1)
    pick = score.argmax(axis=-1)
    return np.where(score.max(axis=-1) >= 1, cand[origin, pick], -1)


def serving_locations(policy: PolicySpec, grid: Grid, counts, origin, coin=None) -> np.ndarray:
    """The serving location of a request from ``origin`` in each count row, -1 for none.

    This is the one statement of every policy's serving choice.  nadap
    maps its probe coin (uniform on [0, 1)) to the origin below alpha,
    else to one of equal slices: the in-grid neighbors ("renormalize") or
    the four compass directions ("lost", -1 off-grid).  It ignores the
    counts, which may be None, so the probed location may be empty; origin
    and coin are arrays of any shape that broadcast.  rand and greedy
    ignore the coin and scan ``candidate_table`` for their first best
    occupied candidate in each row of the (rows, n) ``counts``, with
    ``origin`` one location per row or one for all rows.
    """
    cand = candidate_table(policy, grid)
    if policy.kind != "nadap":
        held = counts[np.arange(len(counts))[:, None], cand[origin]]
        return _first_best(policy, cand, origin, held)
    rest = float(1 - policy.alpha)
    frac = (coin - float(policy.alpha)) / rest if rest > 0 else np.zeros(np.shape(coin))
    width = 4 if policy.boundary == "lost" else np.maximum((cand[:, 1:] >= 0).sum(axis=1), 1)[origin]
    # a cell without neighbors reads its empty first neighbor slot: no serving location
    slot = np.clip((frac * width).astype(np.int64), 0, np.subtract(width, 1))
    return np.where(coin < float(policy.alpha), origin, cand[origin, 1 + slot])


def policy_table(states: np.ndarray, policy: PolicySpec, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Every policy's serving choice as arrays of (location, weight) slots.

    Returns ``(loc, wgt)`` of shape (batch, n, slots): a request from origin
    u in state b is served from ``loc[b, u, s]`` (-1 for none) with
    probability ``wgt[b, u, s]``.  rand and greedy have one slot of weight
    1, their candidate scan in each state of the (batch, n) count array
    ``states``.  nadap's slots are ``candidate_table``'s, as its coin map
    reads them: alpha on the origin and (1 - alpha) / width on each in-grid
    probe, width being the in-grid neighbor count ("renormalize") or 4
    ("lost"); the off-grid mass has no slot.  They ignore the counts, so
    nadap's batch axis has length 1.  A Fraction alpha gives exact weights.
    """
    n = grid.n
    cand = candidate_table(policy, grid)
    if policy.kind == "nadap":
        probe = cand[:, 1:] >= 0
        width = np.full(n, 4) if policy.boundary == "lost" else np.maximum(probe.sum(axis=1), 1)
        wgt = np.zeros((1, n, SLOTS), dtype=object if isinstance(policy.alpha, Fraction) else float)
        wgt[0, :, 0] = policy.alpha
        wgt[0, :, 1:] = np.where(probe, (1 - policy.alpha) / width[:, None], 0)
        return cand[None], wgt
    loc = _first_best(policy, cand, np.arange(n), states[:, cand])[:, :, None]
    return loc, np.ones(loc.shape, dtype=np.int64)


def _nadap_requests(model: RequestModel, policy: PolicySpec) -> tuple:
    """nadap's slots of each paying request, which no state changes, kept on the model.

    For request r = (u, v) of ``model.paying`` and slot s: the probed
    location clipped onto the grid, whether it is on the grid, whether it
    is v, and the slot's weight.  A Fraction alpha keys its own exact weights.
    """
    key = (policy, type(policy.alpha))
    if key not in model.by_policy:
        loc, wgt = policy_table(None, policy, model.grid)  # nadap's table ignores the counts
        u, v, _ = model.paying
        L = loc[0, u]
        model.by_policy[key] = np.maximum(L, 0), L >= 0, L == v[:, None], wgt[0, u]
    return model.by_policy[key]


def step_profit(states: np.ndarray, model: RequestModel, policy: PolicySpec, c: int) -> np.ndarray:
    """Expected one-round profit E[sum_r p_r w_r success_r] of every state, as floats.

    ``states`` is a (batch, n) count array.  Only the model's ``paying``
    requests (p * w != 0) have terms, summed as the per-request oracle in
    tests/oracles.py sums them: for each request the weights of the slots
    that can serve it add up in slot order, then the terms add one at a
    time in (u, v) order.  A request that pays nothing would add a zero, so
    float models give the oracle's value bit for bit; exact models are
    summed exactly and rounded once.
    """
    states = np.asarray(states)
    u, v, coef = model.paying
    coef = coef.astype(object if model.exact else float)
    out = np.zeros(len(states), dtype=coef.dtype)
    if policy.kind == "nadap":
        at, probed, same, W = _nadap_requests(model, policy)
        slots = SLOTS
    else:
        loc, slots = policy_table(states, policy, model.grid)[0][:, :, 0], 1
    chunk = max(1, _PROFIT_CHUNK // max(1, len(u) * slots))
    for a in range(0, len(states) if len(u) else 0, chunk):  # no paying request: every profit is 0
        X = states[a : a + chunk]
        room = (X < c).take(v, axis=1)
        if slots == 1:
            # rand and greedy: one slot of weight 1 holding an occupied location or -1,
            # so a term is coef where it serves
            k = loc[a : a + chunk].take(u, axis=1)
            prob = (k >= 0) & ((k == v) | room)
        else:
            serves = probed & (X[:, at] >= 1) & (same | room[:, :, None])
            prob = sum(np.where(serves[:, :, s], W[:, s], 0) for s in range(SLOTS))
        out[a : a + chunk] = np.cumsum(coef * prob, axis=1)[:, -1]
    return out.astype(float)
