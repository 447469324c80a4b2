"""Driver-count state spaces: enumeration, ranking, and single-driver moves.

A state assigns each grid location a driver count in ``0..c`` with counts
summing to ``m``.  States are ordered lexicographically by their count
vectors and addressed by dense ranks, so exact chains can use array rows.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import InfeasibleInstanceError, SizeLimitError
from .grid import Grid

#: Refuse to enumerate spaces larger than this by default.
DEFAULT_STATE_CAP = 5_000_000

#: Rough size of one block of ``StateSpace.moves``: its states times n^2 (u, v) cells.
_MOVE_ELEMENTS = 1 << 16


def format_state(counts: Sequence[int]) -> str:
    return ",".join(str(int(x)) for x in counts)


def parse_state(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed state string {text!r}") from exc


def _completions(n: int, m: int, c: int, sat: int, keep: bool = False) -> np.ndarray:
    """Ways to fill locations i.. with s = 0..m drivers, saturated at ``sat``.

    Row i is row i + 1 summed over the windows s - c..s, a difference of
    running sums.  Returns rows 0..n as an (n + 1, m + 1) array with
    ``keep``, else row 0 alone, holding one row at a time.
    """
    row = np.zeros(m + 1, dtype=np.int64 if (m + 1) * sat < 2**63 else object)
    row[0] = 1
    rows = [row]
    for _ in range(n):
        run = np.cumsum(row)
        run[c + 1 :] -= run[: max(m - c, 0)].copy()
        row = np.minimum(run, sat)
        if keep:
            rows.append(row)
    return np.stack(rows[::-1]) if keep else row


class StateSpace:
    """All driver-count states for (grid, m, c), in lexicographic order.

    Ranking sums a prefix table of bounded-composition counts, one entry
    per location, without materializing the space.
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
        # counts saturate at cap + 1, so a space that fits is counted exactly
        if _completions(n, m, c, cap + 1)[m] > cap:
            raise SizeLimitError(
                f"state space has more than {cap} states; "
                "use the Monte-Carlo simulator for instances this large"
            )
        table = _completions(n, m, c, cap + 1, keep=True)
        self.size = int(table[0, m])
        # a legal state never reads an entry above size: clipped, the table is int64
        self._ways = np.minimum(table, self.size).astype(np.int64)
        self._array: np.ndarray | None = None
        self._prefix_table: np.ndarray | None = None
        self._moves: tuple | None = None

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
        return int(self._rank_rows(np.array([counts], dtype=np.int64))[0])

    def _rank_terms(self, X: np.ndarray, rem: np.ndarray) -> np.ndarray:
        """The terms R[i, rem_i, x_i] of the (rows, n) counts ``X``, one per location i.

        With rem_i the drivers not placed before location i, a row's terms
        sum to its rank.
        """
        return self._prefix()[np.arange(self.n), rem, X]

    def _rank_rows(self, X: np.ndarray) -> np.ndarray:
        """Ranks of the (rows, n) counts ``X``."""
        return self._rank_terms(X, self.m - np.cumsum(X, axis=1, dtype=np.int64) + X).sum(axis=1)

    def as_array(self) -> np.ndarray:
        """Dense (size, n) int32 table of all states in rank order, cached.

        Built one location at a time: every prefix, in lexicographic order,
        is extended by each count the remaining locations can complete.
        """
        if self._array is None:
            n, c = self.n, self.c
            arr = np.zeros((1, 0), dtype=np.int32)
            rem = np.array([self.m])
            for i in range(n):
                lo = np.maximum(rem - c * (n - i - 1), 0)
                width = np.minimum(rem, c) - lo + 1
                parent = np.repeat(np.arange(len(rem)), width)
                start = np.cumsum(width) - width
                t = np.arange(len(parent)) - np.repeat(start - lo, width)
                arr = np.column_stack([arr[parent], t]).astype(np.int32)
                rem = rem[parent] - t
            self._array = arr
        return self._array

    def _prefix(self) -> np.ndarray:
        """Prefix table R[i, rem, t], cached: the rank offset of t drivers at location i.

        R[i, rem, t] counts the ways to fill locations i.. with rem drivers
        while putting fewer than t at i, so rank(x) is the sum of
        R[i, rem_i, x_i] with rem_i the drivers not placed before i.  Entries
        above ``size`` are unreachable and clipped so the table fits int64;
        the extra plane rem = m + 1 (also what index -1 reads) stays zero.
        """
        if self._prefix_table is None:
            n, m, c = self.n, self.m, self.c
            R = np.zeros((n, m + 2, c + 1), dtype=np.int64)
            acc = np.zeros((n, m + 1), dtype=np.int64)
            for t in range(1, c + 1):
                # rem >= t - 1 adds the completions of rem - t + 1 drivers
                k = max(m + 2 - t, 0)
                acc[:, m + 1 - k :] += self._ways[1:, :k]
                np.minimum(acc, self.size, out=acc)
                R[:, : m + 1, t] = acc
            self._prefix_table = R
        return self._prefix_table

    def permuted_ranks(self, perm) -> np.ndarray:
        """Rank of every state, in rank order, after the count at each cell u moves to perm[u].

        The permuted state y has y[i] = x[j] for perm[j] = i; the states are
        ranked as a permuted copy of the state table, which is state-sized.
        """
        return self._rank_rows(self.as_array()[:, np.argsort(perm)])

    def _move_tables(self):
        """Per-state remainders and running rank shifts that ``move_ranks`` reads, cached.

        shift[1, s, i] (shift[0, s, i]) sums, over locations before i, the
        change in state s's rank terms when one more (one fewer) driver is
        left to place there.  A term changes by at most ``size``, so the sums
        fit int32 while n * size does.
        """
        if self._moves is None:
            X = self.as_array()
            rem = self.m - np.cumsum(X, axis=1, dtype=np.int32) + X  # at most m
            base = self._rank_terms(X, rem)
            shift = np.zeros((2, self.size, self.n + 1), dtype=np.int32 if self.n * self.size < 2**31 else np.int64)
            for fwd in (0, 1):
                np.cumsum(self._rank_terms(X, rem + 2 * fwd - 1) - base, axis=1, out=shift[fwd, :, 1:])
            self._moves = (rem, shift)
        return self._moves

    def move_ranks(self, idx, u, v) -> np.ndarray:
        """Ranks after moving one driver u -> v (u != v) in the states ranked ``idx``.

        ``u`` and ``v`` are locations or arrays aligned with ``idx``, and
        every state must hold a driver at u and have room at v.  Only the
        terms of locations between u and v change: the two endpoints take
        new counts, and the locations strictly between see one driver more
        (u < v) or fewer left to place, which is a difference of running
        sums.  Each rank costs O(1).
        """
        R = self._prefix()
        X = self.as_array()
        rem, shift = self._move_tables()
        idx = np.asarray(idx, dtype=np.int64)
        xu, xv, ru, rv = X[idx, u], X[idx, v], rem[idx, u], rem[idx, v]
        fwd = np.asarray(u < v, dtype=np.int64)
        between = shift[fwd, idx, np.maximum(u, v)] - shift[fwd, idx, np.minimum(u, v) + 1].astype(np.int64)
        return (
            idx
            + R[u, ru - 1 + fwd, xu - 1] - R[u, ru, xu]
            + R[v, rv + fwd, xv + 1] - R[v, rv, xv]
            + between
        )

    @cached_property
    def successors(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (served, next rank) of every request in every state, built on first use.

        Entry [s, k, v] answers a request to v served from location k in
        state s: it is served when k holds a driver and v has room or is k,
        and then a driver moves k -> v.  Row k = n (index -1) is no serving
        location, never served; an unserved request keeps the rank.
        """
        n, c = self.n, self.c
        X = self.as_array()
        cells = np.arange(n)
        ok = np.zeros((self.size, n + 1, n), dtype=bool)
        ok[:, :n] = (X[:, :, None] >= 1) & ((X[:, None, :] < c) | (cells[:, None] == cells))
        nxt = np.repeat(np.arange(self.size), (n + 1) * n).reshape(ok.shape)
        src, k, v = np.nonzero(ok[:, :n] & (cells[:, None] != cells))
        nxt[src, k, v] = self.move_ranks(src, k, v)
        ok.flags.writeable = nxt.flags.writeable = False
        return ok, nxt

    def moves(self) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Every ordered state pair one driver move apart, one block of consecutive source ranks at a time.

        Each block yields (rows, src, u, v, dst): ``rows`` the slice of
        source ranks it covers, and one entry for every state in it that
        holds a driver at u and has room at v (u != v), in (src, u, v)
        order, ``dst`` being the rank after the move u -> v.  A block spans
        about ``_MOVE_ELEMENTS`` (state, u, v) cells.  The move may relocate
        a driver between any two distinct locations; grid adjacency plays no
        role here.
        """
        X = self.as_array()
        step = max(1, _MOVE_ELEMENTS // self.n**2)
        apart = ~np.eye(self.n, dtype=bool)
        for lo in range(0, self.size, step):
            B = X[lo : lo + step]
            b, u, v = np.nonzero((B[:, :, None] >= 1) & (B[:, None, :] < self.c) & apart)
            src = b + lo
            yield slice(lo, lo + len(B)), src, u, v, self.move_ranks(src, u, v)
