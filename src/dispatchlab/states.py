"""Driver-count state spaces: enumeration, ranking, and single-driver moves.

A state assigns each grid location a driver count in ``0..c`` with counts
summing to ``m``.  States are ordered lexicographically by their count
vectors and addressed by dense ranks, so exact chains can use array rows.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InfeasibleInstanceError, InfeasibleMoveError, SizeLimitError
from .grid import Grid

#: Refuse to enumerate spaces larger than this by default.
DEFAULT_STATE_CAP = 5_000_000


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


def format_state(counts: Sequence[int]) -> str:
    return ",".join(str(int(x)) for x in counts)


def parse_state(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed state string {text!r}") from exc


class StateSpace:
    """All driver-count states for (grid, m, c), in lexicographic order.

    Ranking uses a table of bounded-composition counts, so ``rank`` and
    ``unrank`` are O(n * min(c, m)) without materializing the space.
    """

    def __init__(self, grid: Grid, m: int, c: int, cap: int = DEFAULT_STATE_CAP):
        if m < 1:
            raise InfeasibleInstanceError("need at least one driver")
        if c < 1:
            raise InfeasibleInstanceError("capacity must be at least 1")
        n = grid.n
        if m > c * n:
            raise InfeasibleInstanceError(f"{m} drivers exceed total capacity {c}*{n}={c * n}")
        self.grid = grid
        self.m = m
        self.c = c
        # table[i][s] = number of ways to fill locations i.. with total s
        table = [[0] * (m + 1) for _ in range(n + 1)]
        table[n][0] = 1
        for i in range(n - 1, -1, -1):
            for s in range(m + 1):
                acc = 0
                for t in range(0, min(c, s) + 1):
                    acc += table[i + 1][s - t]
                table[i][s] = acc
        self._table = table
        self.size = table[0][m]
        if self.size > cap:
            raise SizeLimitError(
                f"state space has {self.size} states (cap {cap}); "
                "use the Monte-Carlo simulator for instances this large"
            )
        self._array: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.grid.n

    def check_counts(self, counts: Sequence[int]) -> None:
        if len(counts) != self.n:
            raise ValueError(f"state has {len(counts)} entries, expected {self.n}")
        if any(x < 0 or x > self.c for x in counts):
            raise ValueError(f"counts {tuple(counts)} violate capacity {self.c}")
        if sum(counts) != self.m:
            raise ValueError(f"counts {tuple(counts)} do not sum to {self.m}")

    def rank(self, counts: Sequence[int]) -> int:
        self.check_counts(counts)
        table = self._table
        r = 0
        rem = self.m
        for i, x in enumerate(counts):
            for t in range(x):
                r += table[i + 1][rem - t]
            rem -= x
        return r

    def unrank(self, index: int) -> tuple[int, ...]:
        if not (0 <= index < self.size):
            raise ValueError(f"rank {index} outside [0, {self.size})")
        table = self._table
        out = []
        rem = self.m
        r = index
        for i in range(self.n):
            for t in range(0, min(self.c, rem) + 1):
                block = table[i + 1][rem - t]
                if r < block:
                    out.append(t)
                    rem -= t
                    break
                r -= block
        return tuple(out)

    def as_array(self) -> np.ndarray:
        """Dense (size, n) int32 table of all states, cached."""
        if self._array is None:
            arr = np.empty((self.size, self.n), dtype=np.int32)
            for i in range(self.size):
                arr[i] = self.unrank(i)
            self._array = arr
        return self._array

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        for i in range(self.size):
            yield self.unrank(i)

    def __len__(self) -> int:
        return self.size

    def move_rank(self, counts: Sequence[int], u: int, v: int) -> int:
        return self.rank(move(counts, u, v, self.c))


class NeighborPair(NamedTuple):
    """States x, y (by rank) with y reached from x by moving one driver u -> v."""

    x: int
    y: int
    u: int
    v: int


def neighbor_pairs(space: StateSpace) -> list[NeighborPair]:
    """All ordered state pairs that differ by a single feasible driver move.

    The defining move may relocate a driver between any two distinct
    locations; grid adjacency plays no role here.
    """
    out = []
    arr = space.as_array()
    n, c = space.n, space.c
    for ix in range(space.size):
        x = arr[ix]
        occupied = [u for u in range(n) if x[u] >= 1]
        roomy = [v for v in range(n) if x[v] < c]
        for u in occupied:
            for v in roomy:
                if v == u:
                    continue
                y = x.copy()
                y[u] -= 1
                y[v] += 1
                out.append(NeighborPair(ix, space.rank(y.tolist()), u, v))
    return out
