"""Grid geometry, request types, and arrival/weight models.

Locations are row-major integer indices into a ``rows x cols`` grid.  A
request type is an ordered ``(origin, destination)`` pair of locations;
self-pairs ``(u, u)`` are stored like any other pair.  An arrival model
assigns each request type a per-round probability ``p`` and a profit
weight ``w``; leftover probability mass means "no request this round".
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .csvblocks import Columns, read_table, write_table

#: Absolute tolerance used when validating floating-point probability mass.
PROB_TOL = 1e-12

#: Compass directions in clockwise order starting from North.
DIRECTIONS = ("N", "E", "S", "W")

#: (row, col) offset per direction; row 0 is the northernmost row.
OFFSETS = {"N": (-1, 0), "E": (0, 1), "S": (1, 0), "W": (0, -1)}


@dataclass(frozen=True)
class Grid:
    """A rows x cols rectangular grid with 4-neighborhoods.

    Every neighborhood rule reads one table, built per grid: each cell's
    neighbor in each direction clockwise from North (the order downstream
    tie-breaking relies on), -1 where the direction leaves the grid.
    """

    rows: int
    cols: int
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid dimensions must be positive, got {self.rows}x{self.cols}")
        rc = np.divmod(np.arange(self.n)[:, None], self.cols)
        rr, cc = np.add(rc, np.array([OFFSETS[d] for d in DIRECTIONS]).T[:, None])
        inside = (rr >= 0) & (rr < self.rows) & (cc >= 0) & (cc < self.cols)
        table = np.where(inside, rr * self.cols + cc, -1).astype(np.int64)
        table.flags.writeable = False
        object.__setattr__(self, "_table", table)

    @property
    def n(self) -> int:
        """Number of locations."""
        return self.rows * self.cols

    def index(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"cell ({row},{col}) outside {self.rows}x{self.cols} grid")
        return row * self.cols + col

    def coords(self, u: int) -> tuple[int, int]:
        self.check_location(u)
        return divmod(u, self.cols)

    def check_location(self, u: int) -> None:
        if not (0 <= u < self.n):
            raise ValueError(f"location {u} outside grid with {self.n} cells")

    def check_locations(self, cells) -> None:
        """``check_location`` of every value, raising for the first off-grid one in array order."""
        cells = np.ravel(cells)
        off_grid = np.flatnonzero((cells < 0) | (cells >= self.n))
        if len(off_grid):
            self.check_location(int(cells[off_grid[0]]))

    def neighbors(self, u: int) -> tuple[int, ...]:
        """In-grid locations at Manhattan distance exactly 1, clockwise from North."""
        self.check_location(u)
        return self._nbrs[u]

    @functools.cached_property
    def _nbrs(self) -> tuple[tuple[int, ...], ...]:
        """Each cell's in-grid neighbors as Python ints, read off the table on first use."""
        return tuple(tuple(k for k in row if k >= 0) for row in self._table.tolist())

    def closed_neighborhood(self, u: int) -> tuple[int, ...]:
        """``u`` followed by its in-grid neighbors."""
        return (u,) + self.neighbors(u)

    def neighbor_toward(self, u: int, direction: str) -> int | None:
        """Neighbor of ``u`` in the given compass direction, or None if off-grid."""
        self.check_location(u)
        k = self._table.item(u, DIRECTIONS.index(direction))
        return None if k < 0 else k

    def direction_between(self, u: int, v: int) -> str:
        """Compass direction of adjacent ``v`` as seen from ``u``."""
        self.check_locations([u, v])
        hits = np.flatnonzero(self._table[u] == v)
        if not len(hits):
            raise ValueError(f"locations {u} and {v} are not grid-adjacent")
        return DIRECTIONS[hits[0]]

    def scan_table(self, order: tuple[str, ...] = DIRECTIONS, keep_off_grid: bool = False) -> np.ndarray:
        """Each cell followed by its neighbors in the direction ``order``: an (n, 5) array.

        Off-grid slots hold -1 and move after the in-grid ones, which keep
        their order, unless ``keep_off_grid`` leaves one slot per direction.
        """
        scan = self._table[:, [DIRECTIONS.index(d) for d in order]]
        if not keep_off_grid:
            scan = np.take_along_axis(scan, np.argsort(scan < 0, axis=1, kind="stable"), axis=1)
        return np.column_stack([np.arange(self.n), scan])

    def manhattan(self, u: int, v: int) -> int:
        ru, cu = self.coords(u)
        rv, cv = self.coords(v)
        return abs(ru - rv) + abs(cu - cv)

    def symmetries(self) -> np.ndarray:
        """The grid's symmetry group as cell permutations, one row each, the identity first.

        Row g sends cell u to g[u].  A rectangle has 4 (the identity, both
        flips and the half turn); a square adds the quarter turns and the
        two diagonal flips, 8 in all.  On a one-wide grid some rows repeat.
        """
        r, c = np.divmod(np.arange(self.n), self.cols)
        last_r, last_c = self.rows - 1, self.cols - 1
        images = [(r, c), (last_r - r, c), (r, last_c - c), (last_r - r, last_c - c)]
        if self.rows == self.cols:
            images += [(c, r), (last_c - c, r), (c, last_r - r), (last_c - c, last_r - r)]
        return np.array([rr * self.cols + cc for rr, cc in images])


def build_grid(rows: int, cols: int) -> Grid:
    """Construct a grid, validating positive dimensions."""
    return Grid(int(rows), int(cols))


def manhattan_distance(grid: Grid, u: int, v: int) -> int:
    return grid.manhattan(u, v)


def distance_weights(grid: Grid) -> np.ndarray:
    """Weight matrix w[u, v] = Manhattan distance (so self-pairs weigh 0)."""
    row, col = np.divmod(np.arange(grid.n), grid.cols)
    return (np.abs(row[:, None] - row) + np.abs(col[:, None] - col)).astype(np.float64)


def _total(values) -> Fraction | float:
    """Correctly rounded sum when any entry is a float, else the exact sum.

    A naive float sum of many small entries drifts: 231^2 entries of
    1/231^2 add up to 1 + 1.2e-12, past PROB_TOL.
    """
    if any(isinstance(v, float) for v in values):
        return math.fsum(values)
    return sum(values)


def pair_matrices(grid: Grid, origin: np.ndarray, dest: np.ndarray, *values: np.ndarray) -> list[np.ndarray]:
    """(n, n) arrays holding each value column at its (origin, dest) pair, zero elsewhere.

    Every location is checked first (``Grid.check_locations``: row order,
    origin first), and a repeated pair keeps its last row.
    """
    n = grid.n
    grid.check_locations(np.column_stack([origin, dest]))
    pair = origin * n + dest
    last = len(pair) - 1 - np.unique(pair[::-1], return_index=True)[1]
    out = np.zeros((len(values), n * n))
    out[:, pair[last]] = np.array(values)[:, last]
    return list(out.reshape(-1, n, n))


@dataclass(frozen=True)
class RequestModel:
    """Per-round arrival probabilities and profit weights, indexed origin x destination.

    ``p`` and ``w`` are dense (n, n) arrays.  Entries may be floats or exact
    ``fractions.Fraction`` objects (object dtype); exact entries propagate
    through the pure-Python analysis paths unchanged.  No caller writes
    ``p`` or ``w`` after construction, so ``paying`` is computed once.
    """

    grid: Grid
    p: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        p = np.asarray(self.p)
        w = np.asarray(self.w)
        if p.shape != (n, n) or w.shape != (n, n):
            raise ValueError(f"p and w must have shape ({n},{n})")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "w", w)
        if (p < 0).any():  # elementwise, exact for Fraction entries too
            raise ValueError("arrival probabilities must be nonnegative")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")
        tot = _total(p.ravel().tolist())
        if float(tot) > 1.0 + PROB_TOL:
            raise ValueError(f"arrival probabilities sum to {float(tot)} > 1")
        if p.dtype.kind == "f" and not np.isfinite(p).all():
            raise ValueError("arrival probabilities must be finite")
        if w.dtype.kind == "f" and not np.isfinite(w).all():
            raise ValueError("weights must be finite")

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def total_mass(self) -> Fraction | float:
        """Total per-round arrival probability; 1 - total_mass is the idle chance."""
        return _total(self.p.ravel().tolist())

    @property
    def w_max(self) -> float:
        flat = self.w.ravel().tolist()
        return max(flat) if flat else 0.0

    @property
    def sum_w(self) -> Fraction | float:
        return _total(self.w.ravel().tolist())

    @property
    def exact(self) -> bool:
        """True when entries are stored as exact rationals."""
        return self.p.dtype.kind == "O"

    @functools.cached_property
    def paying(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The requests with p * w != 0 in (u, v) order: their origins, destinations and p * w."""
        coef = self.p * self.w
        u, v = np.nonzero(coef)
        return u, v, coef[u, v]

    @functools.cached_property
    def by_policy(self) -> dict:
        """Tables a policy derives from this model alone, kept here by their users on first need."""
        return {}

    def requests(self, draws) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The requests uniform ``draws`` name: (origin, -1 for none; destination; weight) arrays.

        A draw names the first pair in (u, v) order whose running total of
        float p exceeds it, and none past the total mass; the weight is that
        pair's, the last pair's for none.
        """
        req = np.searchsorted(np.cumsum(self.p.astype(float, copy=False).ravel()), draws, side="right")
        weight = self.w.astype(float, copy=False).ravel()[np.minimum(req, self.p.size - 1)]
        return np.where(req < self.p.size, req // self.n, -1), req % self.n, weight

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Ordered pairs with nonzero arrival probability."""
        n = self.n
        for u in range(n):
            for v in range(n):
                if self.p[u, v] != 0:
                    yield (u, v)

    def to_csv(self, path: str | Path) -> None:
        """Write rows ``origin,dest,p,w`` for pairs with nonzero p or w."""
        u, v = np.nonzero((self.p != 0) | (self.w != 0))
        p, w = (np.asarray(a, dtype=float)[u, v] for a in (self.p, self.w))
        write_table(path, ["origin", "dest", "p", "w"], Columns("%d,%d,%.17g,%.17g", (u, v, p, w)), end="\r\n")

    @classmethod
    def from_csv(cls, path: str | Path, grid: Grid) -> "RequestModel":
        """Read ``origin,dest,p,w`` rows, as ``to_csv`` writes them, in any column order.

        ``csvblocks.read_table`` reads the file (``int64`` cells, ``float64``
        p and w); only then does the first off-grid cell (file order, origin
        first) raise ``ValueError``.  A repeated cell keeps its last row.
        """
        origin, dest, p, w = read_table(path, ("origin", "dest", "p", "w"),
                                        (np.int64, np.int64, np.float64, np.float64))
        return cls(grid, *pair_matrices(grid, origin, dest, p, w))


def _as_weight_matrix(grid: Grid, weights) -> np.ndarray:
    n = grid.n
    if weights is None:
        return distance_weights(grid)
    if isinstance(weights, Mapping):
        w = np.zeros((n, n))
        for (u, v), val in weights.items():
            w[u, v] = val
        return w
    arr = np.asarray(weights)
    if arr.ndim == 0:
        if isinstance(weights, Fraction):
            w = np.empty((n, n), dtype=object)
            w[:] = weights
            return w
        return np.full((n, n), float(weights))
    return arr


def uniform_request_model(grid: Grid, p, weights=None) -> RequestModel:
    """Model with the same arrival probability on all n^2 ordered pairs.

    ``weights`` may be None (Manhattan-distance weights, so self-pairs weigh
    zero), a scalar, a mapping, or a full matrix.
    """
    n = grid.n
    total = p * (n * n)
    if float(total) > 1.0 + PROB_TOL:
        raise ValueError(f"uniform rate {p} puts total mass {float(total)} > 1 on {n * n} pairs")
    if p < 0:
        raise ValueError("arrival probability must be nonnegative")
    if isinstance(p, Fraction):
        pm = np.empty((n, n), dtype=object)
        pm[:] = p
    else:
        pm = np.full((n, n), float(p))
    return RequestModel(grid, pm, _as_weight_matrix(grid, weights))


def request_model_from_pairs(grid: Grid, p_pairs: Mapping, weights=None) -> RequestModel:
    """Model from a mapping ``(origin, dest) -> probability``."""
    n = grid.n
    exact = any(isinstance(v, Fraction) for v in p_pairs.values())
    pm = np.empty((n, n), dtype=object) if exact else np.zeros((n, n))
    if exact:
        pm[:] = Fraction(0)
    for (u, v), val in p_pairs.items():
        grid.check_location(u)
        grid.check_location(v)
        pm[u, v] = val
    return RequestModel(grid, pm, _as_weight_matrix(grid, weights))


def check_hotspot(model: RequestModel) -> int | None:
    """Lowest-index location exchanging positive mass with every other location.

    Returns ``u*`` such that p[u*, u] > 0 and p[u, u*] > 0 for every other
    location u, or None when no location qualifies.
    """
    n = model.n
    for u_star in range(n):
        if all(model.p[u_star, u] > 0 and model.p[u, u_star] > 0 for u in range(n) if u != u_star):
            return u_star
    return None
