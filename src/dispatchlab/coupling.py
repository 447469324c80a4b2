"""Identity-coupling contraction checks for the feasibility chain.

Two copies of the chain watch the same request stream; each round both
apply the identical request under the feasibility rule (move one driver
from the request origin to its destination iff the origin is occupied and
the destination is below capacity).  On state pairs one driver move apart,
the expected count distance after one coupled round contracts, which
certifies the mixing rate; this module verifies that contraction
exhaustively and exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ContractionFailure, OutOfScopeError
from .grid import Grid
from .states import NeighborPairs, StateSpace, neighbor_pairs


@dataclass
class PairRecord:
    """Contraction bookkeeping for one coupled state pair."""

    x: int
    y: int
    expected_distance: Fraction
    ratio: Fraction


@dataclass
class CouplingReport:
    """Exhaustive contraction summary over all one-move state pairs.

    worst_beta is the largest one-round ratio E[d']/d; with ratios at most
    1 - 1/n^2 the chain forgets its start no slower than that geometric
    rate, and tau_bound converts it into a mixing-time bound via the
    diameter 2m of the count metric.
    """

    n: int
    m: int
    c: int
    p: Fraction
    records: list[PairRecord]
    worst_beta: Fraction
    target: Fraction
    diameter: int

    @property
    def pair_count(self) -> int:
        return len(self.records)

    def worst_pairs(self) -> list[PairRecord]:
        return [r for r in self.records if r.ratio == self.worst_beta]

    def tau_bound(self, eps: float) -> float:
        """Mixing rounds guaranteed by the contraction: ln(D/eps)/(1 - beta)."""
        if eps <= 0:
            raise ValueError("eps must be positive")
        return math.log(self.diameter / eps) / (1.0 - float(self.worst_beta))


def _coupled_distance_totals(space: StateSpace, pairs: NeighborPairs) -> np.ndarray:
    """Sum over all n^2 requests of each pair's count distance after one coupled round.

    Pair (x, y) has y = x - e_u + e_v, so x' - y' = e_u - e_v + s (e_b - e_a)
    where s is x's move minus y's move on request (a, b).  The distance is
    therefore 2 when s = 0, and otherwise the l1 norm of that four-term
    vector with coinciding locations merged.
    """
    arr = space.as_array()
    c = space.c
    x, u, v = pairs.x, pairs.u, pairs.v
    total = np.zeros(len(pairs), dtype=np.int64)
    for a in range(space.n):
        xa = arr[x, a]
        ya = xa - (u == a) + (v == a)
        for b in range(space.n):
            if a == b:
                total += 2
                continue
            xb = arr[x, b]
            yb = xb - (u == b) + (v == b)
            s = ((xa >= 1) & (xb < c)).astype(np.int64) - ((ya >= 1) & (yb < c))
            moved = np.abs(s)
            total += (
                np.abs(1 + s * ((u == b).astype(np.int64) - (u == a)))
                + np.abs(-1 + s * ((v == b).astype(np.int64) - (v == a)))
                + moved * ((u != a) & (v != a))
                + moved * ((u != b) & (v != b))
            )
    return total


def verify_contraction(grid: Grid, m: int, c: int, eps: float = 0.01) -> CouplingReport:
    """Check every one-move pair contracts under the identity coupling.

    Uses the uniform unit-mass request model (rate 1/n^2 on every ordered
    pair) in exact rationals.  Capacities above 2 are outside the regime
    the contraction argument covers and are refused; any pair whose ratio
    exceeds 1 - 1/n^2 raises a contraction failure listing the offenders.
    """
    if c not in (1, 2):
        raise OutOfScopeError(f"contraction argument covers capacities 1 and 2, got c={c}")
    n = grid.n
    p = Fraction(1, n * n)
    space = StateSpace(grid, m, c)
    target = 1 - p
    pairs = neighbor_pairs(space)
    distance = _coupled_distance_totals(space, pairs)
    # rate 1/n^2 on every request: E[d'] = total / n^2 and the ratio halves it
    shares = {t: (Fraction(t, n * n), Fraction(t, 2 * n * n)) for t in np.unique(distance).tolist()}
    records = [
        PairRecord(x, y, *shares[t])
        for x, y, t in zip(pairs.x.tolist(), pairs.y.tolist(), distance.tolist())
    ]
    worst = max((rec.ratio for rec in records), default=Fraction(0))
    offenders = [rec for rec in records if rec.ratio > target]
    if offenders:
        raise ContractionFailure(
            f"{len(offenders)} pair(s) exceed the contraction target {target}",
            pairs=offenders,
        )
    return CouplingReport(
        n=n, m=m, c=c, p=p, records=records, worst_beta=worst, target=target, diameter=2 * m
    )
