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
from .states import StateSpace


@dataclass
class CouplingReport:
    """Exhaustive contraction summary over all one-move state pairs.

    Pair i is (x[i], y[i]), listed in (x, u, v) order for its move u -> v;
    totals[i] sums its count distance after one coupled round over the n^2
    requests, so at rate 1/n^2 its expected distance E[d'] is totals[i]/n^2
    and its ratio E[d']/d is totals[i]/(2n^2).  worst_beta is the largest
    ratio; with ratios at most 1 - 1/n^2 the chain forgets its start no
    slower than that geometric rate, and tau_bound converts it into a
    mixing-time bound via the diameter 2m of the count metric.
    """

    n: int
    m: int
    c: int
    p: Fraction
    x: np.ndarray
    y: np.ndarray
    totals: np.ndarray
    worst_beta: Fraction
    target: Fraction
    diameter: int

    @property
    def pair_count(self) -> int:
        return len(self.totals)

    def shares(self) -> dict[int, tuple[Fraction, Fraction]]:
        """E[d'] and the ratio E[d']/d of each distinct total."""
        q = self.n * self.n
        return {t: (Fraction(t, q), Fraction(t, 2 * q)) for t in np.unique(self.totals).tolist()}

    def tau_bound(self, eps: float) -> float:
        """Mixing rounds guaranteed by the contraction: ln(D/eps)/(1 - beta), and 0 from eps >= D.

        No two states are more than D apart, so at eps >= D the bound holds
        from t = 0.
        """
        _check_eps(eps)
        return max(0.0, math.log(self.diameter / eps) / (1.0 - float(self.worst_beta)))


def _coupled_distance_totals(space: StateSpace, u, v, src: np.ndarray) -> np.ndarray:
    """Sum over all n^2 requests of each pair's count distance after one coupled round.

    The pairs are x = src and y = x - e_u + e_v, with ``u`` and ``v``
    locations or arrays aligned with ``src``.  A self-trip, or a request
    touching neither u nor v, sees the same counts in both copies: both
    move alike and the distance stays 2.  Of the at most 4n requests that
    touch u or v, any other than (u, v) and (v, u) moves at most one copy,
    and that move only relocates the differing driver, so the distance
    stays 2 there too.  (u, v) moves x onto y and coalesces the pair unless
    y serves it as well (x_u >= 2 and x_v < c - 1); (v, u) moves y onto x
    and coalesces it unless x serves it as well (x_v >= 1 and x_u < c).
    """
    n, c = space.n, space.c
    arr = space.as_array()
    xu, xv = arr[src, u], arr[src, v]
    return 2 * n * n - 2 * ((xu == 1) | (xv == c - 1)) - 2 * ((xv == 0) | (xu == c))


def _check_eps(eps: float) -> None:
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")


def verify_contraction(grid: Grid, m: int, c: int, eps: float = 0.01) -> CouplingReport:
    """Check every one-move pair contracts under the identity coupling.

    Uses the uniform unit-mass request model (rate 1/n^2 on every ordered
    pair) in exact rationals.  Capacities above 2 are outside the regime
    the contraction argument covers and are refused; any pair whose ratio
    exceeds 1 - 1/n^2 raises a contraction failure listing each offender
    as (x, y, E[d'], ratio).
    """
    _check_eps(eps)
    if c not in (1, 2):
        raise OutOfScopeError(f"contraction argument covers capacities 1 and 2, got c={c}")
    n = grid.n
    q = n * n
    space = StateSpace(grid, m, c)
    blocks = [(src, dst, _coupled_distance_totals(space, u, v, src)) for _, src, u, v, dst in space.moves()]
    x, y, totals = (np.concatenate(part) for part in zip(*blocks))
    target = 1 - Fraction(1, q)
    bad = totals > 2 * q - 2  # the ratio t / (2n^2) exceeds 1 - 1/n^2
    if bad.any():
        offenders = [
            (i, j, Fraction(t, q), Fraction(t, 2 * q))
            for i, j, t in zip(x[bad].tolist(), y[bad].tolist(), totals[bad].tolist())
        ]
        raise ContractionFailure(
            f"{len(offenders)} pair(s) exceed the contraction target {target}",
            pairs=offenders,
        )
    worst = Fraction(int(totals.max()), 2 * q) if len(totals) else Fraction(0)
    return CouplingReport(
        n=n, m=m, c=c, p=Fraction(1, q), x=x, y=y, totals=totals,
        worst_beta=worst, target=target, diameter=2 * m,
    )
