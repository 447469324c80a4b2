"""Exact dispatch chains: transition matrices, stationary analysis, mixing, and bounds.

Chains live on the driver-count state space; one round offers at most one
request and moves at most one driver, so every off-diagonal transition
connects states one driver move apart.  Rejected and absent requests fold
into the diagonal, which keeps every row stochastic.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import HorizonTooShortError, IterationLimitError, SizeLimitError
from .grid import RequestModel
from .policies import SLOTS, PolicySpec, policy_table, step_profit
from .states import StateSpace

if TYPE_CHECKING:
    import scipy.sparse as sp

#: At or below this many states, stationary solves are direct (elimination).
DENSE_SOLVE_LIMIT = 2000

#: At or below this many states, worst-case mixing curves cover every start.
MIXING_SIZE_LIMIT = 2000

MONOTONE_SLACK = 1e-10
_GTH_BLOCK = 64  # elimination pivots per block; only a block's own rows and columns see them one by one
_SPLIT_WORK = 1 << 20  # multiply-adds a mixing round below which stepping its columns on several threads loses


class TransitionMatrix:
    """Sparse row-major transition kernel over a driver-count state space.

    Entries are stored once as CSR arrays (``indptr``, ``indices``,
    ``data``), columns sorted within each row.  ``data`` holds floats, or
    exact Fractions (object dtype, which ``exact`` reads).  The float CSR
    over those arrays and its strong components are cached on first use;
    every forward step reads ``P.T``, the CSC view of that one CSR.
    ``space``, ``model`` and ``policy`` are those the chain was built from;
    a hand-written kernel has None for model and policy, and no objective.

    ``orbit`` and ``reps`` are set by ``build_transition`` when the chain is
    invariant under the grid's symmetries: each state's orbit number, and
    each orbit's least rank, orbits numbered in that rank's order.  They
    stay None for every other chain.
    """

    def __init__(self, space: StateSpace, indptr, indices, data, policy: PolicySpec | None, model: RequestModel | None):
        """Kernel from CSR arrays, columns sorted within each row, taken as given."""
        self.space = space
        self.policy = policy
        self.model = model
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self._csr: sp.csr_array | None = None
        self._classes: tuple | None = None
        self.orbit: np.ndarray | None = None
        self.reps: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.space.size

    @property
    def exact(self) -> bool:
        return self.data.dtype == object

    def entry(self, x: int, y: int):
        a, b = self.indptr[x], self.indptr[x + 1]
        j = a + np.searchsorted(self.indices[a:b], y)
        if j < b and self.indices[j] == y:
            return self.data[j]
        return Fraction(0) if self.exact else 0.0

    def to_dense(self) -> np.ndarray:
        return self.to_csr().toarray()

    def to_csr(self) -> sp.csr_array:
        """The float kernel over the built ``indices`` and float ``data``, neither copied."""
        if self._csr is None:
            import scipy.sparse as sp  # on first use: fixture, ingest and simulate never load it

            column = self.indices.dtype  # scipy widens both index arrays to the wider one's dtype
            indptr = self.indptr.astype(column, copy=False) if len(self.data) <= np.iinfo(column).max else self.indptr
            self._csr = sp.csr_array(
                (self.data.astype(float, copy=False), self.indices, indptr), shape=(self.size, self.size)
            )
        return self._csr

    @property
    def orbit_count(self) -> int | None:
        return None if self.reps is None else len(self.reps)

    def row_sum_error(self) -> float:
        rows = np.repeat(np.arange(self.size), np.diff(self.indptr))
        totals = _row_totals(rows, self.data, self.size, self.exact)
        return max((abs(float(t) - 1.0) for t in totals), default=0.0)


def _zero_one(exact: bool):
    return (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)


def _row_totals(rows: np.ndarray, values: np.ndarray, size: int, exact: bool) -> np.ndarray:
    """Per-row sums of ``values``, each accumulated in array order as a Python loop would."""
    if not exact:
        return np.bincount(rows, weights=values, minlength=size)
    out = np.full(size, Fraction(0), dtype=object)
    for i, val in zip(rows.tolist(), values.tolist()):
        out[i] = out[i] + val
    return out


def build_transition(space: StateSpace, model: RequestModel, policy: PolicySpec) -> TransitionMatrix:
    """Exact chain of any policy, read off its policy table, one block of source states at a time.

    Every one-move pair (x, y) via k -> v collects p[u, v] times the weight
    with which origin u is served from k in x, over the origins u in k's
    closed neighborhood in ascending order, as the definitional builder in
    tests/oracles.py adds them request by request.  Zero entries are
    dropped.  Each row's diagonal is one minus the row's other entries,
    summed in the order that builder first reaches them: by (first origin,
    v, slot).  The result equals that builder's entry for entry.  Each
    block of ``StateSpace.moves`` becomes its rows of the CSR arrays, with
    int32 columns below 2^31 states.
    """
    grid = space.grid
    n, size = grid.n, space.size
    exact = model.exact and (policy.kind != "nadap" or isinstance(policy.alpha, Fraction))
    dtype = object if exact else float
    one = _zero_one(exact)[1]
    scan = grid.scan_table()
    origins = np.sort(np.where(scan >= 0, scan, n), axis=1)
    origins[origins == n] = -1
    near = np.maximum(origins, 0)
    p = model.p.astype(dtype)
    X = space.as_array()
    cells = np.arange(n)
    column = np.int32 if size < 2**31 else np.int64
    widths, cols, vals = [], [], []
    for rows, src, k, v, dst in space.moves():
        loc, wgt = policy_table(X[rows], policy, grid)
        # hits[b, k, j, s]: slot s of origin origins[k, j] serves from k in state b; at most one s does
        hits = (origins >= 0)[:, :, None] & (loc[:, near] == cells[:, None, None])
        land = np.where(hits, wgt[:, near], 0).sum(axis=3).astype(dtype)
        slot = hits.argmax(axis=3)
        if policy.kind == "nadap":  # one table row serves every state: one entry per move k -> v
            val, minor = (table[k, v] for table in _entries(p, land, slot, origins, 0, cells[:, None], cells))
        else:
            val, minor = _entries(p, land, slot, origins, src - rows.start, k, v)
        keep = val != 0
        src, dst, val, minor = src[keep], dst[keep], val[keep], minor[keep]
        ranks = np.arange(rows.start, rows.stop)
        order = np.argsort(src * (n * n * SLOTS) + minor)
        diag = one - _row_totals(src[order] - rows.start, val[order], len(ranks), exact)
        src, dst, val = (np.concatenate(part) for part in ((src, ranks), (dst, ranks), (val, diag)))
        order = np.argsort(src * size + dst)  # the block's rows in turn, columns ascending
        widths.append(np.bincount(src - rows.start, minlength=len(ranks)))
        cols.append(dst[order].astype(column))
        vals.append(val[order])
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.concatenate(widths), out=indptr[1:])
    tm = TransitionMatrix(space, indptr, np.concatenate(cols), np.concatenate(vals), policy, model)
    if policy.kind == "nadap":
        tm.orbit, tm.reps = _symmetry_orbits(space, model)
    return tm


def _symmetry_orbits(space: StateSpace, model: RequestModel):
    """(orbit of each state, least rank of each orbit) under the grid's symmetries, or Nones.

    nadap treats every neighbor direction alike, so when p and w are
    unchanged, entry for entry, by every cell permutation g of the grid,
    P(gx, gy) = P(x, y): the distance to stationarity from gx is that from
    x, pi is constant on each orbit, and the orbit chain is an exact
    lumping (Kemeny and Snell, Finite Markov Chains, 1960, ch. 6).  Each
    state's label is the least rank over its images, a running minimum
    over the group.  Nones when the model is not invariant, or when every
    orbit is a single state.
    """
    perms = space.grid.symmetries()[1:]
    if not all(np.array_equal(a[np.ix_(g, g)], a) for g in perms for a in (model.p, model.w)):
        return None, None
    label = np.arange(space.size, dtype=np.int64)
    for g in perms:
        np.minimum(label, space.permuted_ranks(g), out=label)
    reps, orbit = np.unique(label, return_inverse=True)
    return (None, None) if len(reps) == space.size else (orbit, reps)


def _entries(p, land, slot, origins, b, k, v):
    """Kernel entries of moves k -> v in states b, with a key ordering each row's entries.

    An entry adds p[u, v] * land[b, k, j] over the origins u = origins[k, j]
    in ascending order; the key is (first origin, v, slot) of the first
    request-slot with a nonzero term.  Entries with no such term are zero
    and get dropped, so their key does not matter.
    """
    terms = p[origins[k], v[..., None]] * land[b, k]
    first = (terms != 0).argmax(axis=-1)
    val = np.cumsum(terms, axis=-1)[..., -1]  # left to right, as the definitional builder adds
    # (first origin, v, slot) names one serving location k, so this key is unique within a row
    return val, (origins[k, first] * len(p) + v) * SLOTS + slot[b, k, first]


# ---------------------------------------------------------------------------
# Stationary analysis


@dataclass
class StationaryResult:
    """Stationary distribution of a kernel with its solver diagnostics.

    The kernel solved holds the space, model and policy; ``gamma_map``,
    ``eta_map`` and ``limiting_objective`` read ``pi`` with it.
    """

    pi: np.ndarray
    residual: float
    method: str
    iterations: int = 0  # power steps taken; 0 for elimination


def _gth_solve(P) -> np.ndarray:
    """Stationary vector by state elimination (no subtractions, so no cancellation).

    ``P`` is a sparse kernel or an array; the elimination runs on the one
    dense copy made here.
    """
    A = P.toarray() if hasattr(P, "toarray") else np.array(P, dtype=float)
    size = A.shape[0]
    for p in range(size, 1, -_GTH_BLOCK):
        k0 = max(p - _GTH_BLOCK, 1)
        for k in range(p - 1, k0 - 1, -1):
            s = A[k, :k].sum()
            if s <= 0:
                raise ValueError("chain is reducible: elimination hit an absorbing block")
            A[:k, k] /= s
            A[k0:k, :k] += np.outer(A[k0:k, k], A[k, :k])
            A[:k0, k0:k] += np.outer(A[:k0, k], A[k, k0:k])
        # the block's rank-1 updates reach the leading square as one product of non-negative terms
        A[:k0, :k0] += A[:k0, k0:p] @ A[k0:p, :k0]
    pi = np.zeros(size)
    pi[0] = 1.0
    for k in range(1, size):
        pi[k] = pi[:k] @ A[:k, k]
    return pi / pi.sum()


def gamma_map(space: StateSpace, pi: np.ndarray) -> np.ndarray:
    """Service-feasibility map: gamma[u, v] = Pr[driver at u and (v == u or room at v)].

    gamma[u, v] is the probability under ``pi`` that a request (u, v)
    offered to a driver at u is feasible: u holds a driver and, unless
    v == u (a self-trip moves nobody), v is below capacity; the diagonal
    therefore reduces to driver presence alone.  Three size x n float
    arrays are made on the way.
    """
    arr = space.as_array()
    occ = (arr >= 1).astype(float)
    room = (arr < space.c).astype(float)
    g = (occ * pi[:, None]).T @ room
    np.fill_diagonal(g, occ.T @ pi)
    return g


def eta_map(space: StateSpace, pi: np.ndarray) -> np.ndarray:
    """Neighborhood-availability map: eta[u, v] = Pr[driver within reach of u and room at v].

    Both clauses stay literal under ``pi``: some location in the closed
    neighborhood of u holds a driver, and v is below capacity.
    """
    n = space.n
    arr = space.as_array()
    reach = np.zeros((n + 1, n))  # reach[k, u]: k is u or its neighbor; row -1 takes the off-grid slots
    reach[space.grid.scan_table(), np.arange(n)[:, None]] = 1.0
    near = ((arr @ reach[:n]) >= 1).astype(float)
    room = (arr < space.c).astype(float)
    return (near * pi[:, None]).T @ room


def stationary_distribution(
    tm: TransitionMatrix,
    tol: float = 1e-12,
    max_iter: int = 10_000_000,
) -> StationaryResult:
    """Solve pi = pi P: direct elimination when small, power iteration when large.

    A chain with symmetry orbits is solved on its lumped K x K kernel, with
    Q[a, b] the sum of P(rep_a, y) over the states y of orbit b, and each
    orbit's mass spread evenly over its states; the size rule then counts
    orbits.  The reported residual is the final l1 defect of pi P - pi;
    iteration that cannot reach ``tol`` within ``max_iter`` raises an
    iteration-limit error carrying the last residual.
    """
    P = tm.to_csr() if tm.orbit is None else _lumped_kernel(tm)
    size = P.shape[0]
    if size <= DENSE_SOLVE_LIMIT:
        pi = _gth_solve(P)
        method, iterations = "elimination", 0
    else:
        PT = P.T  # the CSC view: ``PT @ pi`` adds each entry's terms as ``pi @ P`` does
        pi = np.full(size, 1.0 / size)
        residual = math.inf
        for iterations in range(1, max_iter + 1):
            nxt = PT @ pi
            nxt /= nxt.sum()
            residual = float(np.abs(nxt - pi).sum())
            pi = nxt
            if residual <= tol:
                break
        else:
            raise IterationLimitError(
                f"power iteration residual {residual:.3e} above {tol:.1e} after {max_iter} steps",
                residual=residual,
            )
        method = "power"
    if tm.orbit is not None:
        pi = (pi / np.bincount(tm.orbit))[tm.orbit]
    if method == "elimination":
        residual = float(np.abs(tm.to_csr().T @ pi - pi).sum())
    return StationaryResult(pi=pi, residual=residual, method=method, iterations=iterations)


def _lumped_kernel(tm: TransitionMatrix) -> sp.csr_array:
    """The orbit chain: Q[a, b] sums P(rep_a, y) over the states y of orbit b."""
    import scipy.sparse as sp

    rows = tm.to_csr()[tm.reps]
    K = len(tm.reps)
    Q = sp.csr_array((rows.data, tm.orbit[rows.indices], rows.indptr), shape=(K, K))
    Q.sum_duplicates()
    return Q


# ---------------------------------------------------------------------------
# Structure checks


def _components(tm: TransitionMatrix) -> tuple[int, np.ndarray]:
    """Strongly connected classes of the kernel's digraph: count and labels.

    csgraph reads the kernel's own CSR, whose index arrays are the built
    ones, int32 columns included.  Off the diagonal every entry of a built
    kernel is positive, and a self-loop, zero or not, joins no two states,
    so these are the classes of the positive entries.  Found once per
    kernel and cached on it, as its CSR is.  scipy is imported on first
    use, since csgraph loads its linear algebra.
    """
    if tm._classes is None:
        from scipy.sparse.csgraph import connected_components

        tm._classes = connected_components(tm.to_csr(), directed=True, connection="strong")
    return tm._classes


def check_irreducible(tm: TransitionMatrix) -> bool:
    """True when the kernel's digraph is one strongly connected class."""
    return _components(tm)[0] == 1


def check_aperiodic(tm: TransitionMatrix) -> bool:
    """True when every communicating class has period 1.

    A positive self-loop settles a class; otherwise its period is the gcd
    of level[a] + 1 - level[b] over its positive edges a -> b, with level
    the breadth-first distance from one of its states.  One search covers
    every class: over within-class edges alone, each state's nearest root
    is its own class's.  Edges are read only from the rows of classes with
    no positive self-loop, so a dispatch chain lists none.  Positivity is
    read from ``tm.data``, an exact kernel's Fractions included.  Single
    states with no positive transitions count as aperiodic.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import dijkstra

    ncomp, labels = _components(tm)
    P = tm.to_csr()  # the positive pattern shares its index arrays
    positive = sp.csr_array((tm.data > 0, P.indices, P.indptr), shape=P.shape)
    looped = np.zeros(ncomp, dtype=bool)
    looped[labels[positive.diagonal()]] = True
    rows = np.flatnonzero(~looped[labels])  # the states of classes with no positive self-loop
    part = positive[rows]
    a, b = np.repeat(rows, np.diff(part.indptr)), part.indices
    comp = labels[a]
    inner = np.flatnonzero(part.data & (comp == labels[b]))
    inner = inner[np.argsort(comp[inner], kind="stable")]  # the edges of each class together
    a, b, comp = a[inner], b[inner], comp[inner]
    first = np.flatnonzero(np.diff(comp, prepend=-1))  # each class's first edge
    if not len(first):
        return True
    edges = sp.csr_array((np.ones(len(a), dtype=np.int8), (a, b)), shape=P.shape)
    level = dijkstra(edges, indices=a[first], unweighted=True, min_only=True)
    return not (np.gcd.reduceat((level[a] + 1 - level[b]).astype(np.int64), first) > 1).any()


# ---------------------------------------------------------------------------
# Mixing


@dataclass
class MixingReport:
    """Worst-case distance-to-stationary curve and the thresholds it crosses.

    d_curve[t] = max over tracked starts of the total variation distance
    after t rounds; tau[eps] is the first t with d(t) <= eps.  start_count
    counts the starts the maximum covers, every state when exhaustive,
    even where only orbit representatives were stepped.
    """

    d_curve: np.ndarray
    tau: dict
    exhaustive: bool = True
    start_count: int = 0


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _start_block(part: np.ndarray, size: int, pi: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """The t = 0 iterate of the starts ``part``, one column each; their d(0) terms go to ``dist``.

    d(0) row-sums start-major rows, the pairwise order of the row-block
    oracle loop's first round; the spent rows' buffer then holds the columns.
    """
    rows = np.zeros((len(part), size))
    rows[np.arange(len(part)), part] = 1.0
    np.abs(np.subtract(rows, pi, out=rows), out=rows).sum(axis=1, out=dist)
    block = rows.reshape(size, len(part))
    block.fill(0.0)
    block[part, np.arange(len(part))] = 1.0
    return block


def _product_into(P: sp.csr_array, E: np.ndarray, out: np.ndarray) -> None:
    """Write ``P.T @ E`` into ``out``, both C-ordered (size, columns) float blocks.

    ``P.T @ E`` runs scipy's csc_matvecs on P's own arrays into a fresh
    zeroed block; this runs the same kernel into the caller's, so the sums
    are the same bit for bit.  csc_matvecs is private to scipy: where it is
    missing, the product is ``@`` copied into ``out``.
    """
    if not (E.shape == out.shape == (P.shape[0], E.shape[1]) and E.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError("the product needs two C-ordered blocks of the kernel's size")
    try:
        from scipy.sparse._sparsetools import csc_matvecs
    except ImportError:
        out[...] = P.T @ E
        return
    out.fill(0.0)
    csc_matvecs(P.shape[1], P.shape[0], E.shape[1], P.indptr, P.indices, P.data, E.ravel(), out.ravel())


def mixing_analysis(
    tm: TransitionMatrix,
    pi: np.ndarray,
    epsilons: Sequence[float],
    t_max: int,
    start_ranks: Sequence[int] | None = None,
) -> MixingReport:
    """Track the worst start's distance to stationary until every threshold is met.

    All starts are propagated together (one column per start, stepped
    through ``P.T``, the CSC view of the kernel's one CSR).  From
    ``_SPLIT_WORK`` multiply-adds a round the columns split into contiguous
    groups, one per usable CPU: each round the calling thread steps the
    first group and a pool of one worker fewer the rest.  A column's sums
    do not depend on its neighbours, so every output is byte-identical at
    any group count.  Without a sample, a chain with symmetry orbits steps
    one start per orbit, its least rank: every start of an orbit is as far
    from pi as its representative.  Above the exhaustive-size limit, which
    counts states, a start sample must be supplied, and the curve is a
    lower bound flagged non-exhaustive.  A sample is stepped as given.
    The report holds the curve, its thresholds and its starts; bounds on
    the curve are checked by whoever holds them.
    """
    from concurrent.futures import ThreadPoolExecutor  # on first use: the CLI's import never loads it

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
        starts = np.arange(size) if tm.reps is None else tm.reps
        exhaustive = True
    else:
        ranks = [int(s) for s in start_ranks]
        outside = [s for s in ranks if not 0 <= s < size]
        if not ranks or outside:
            raise ValueError(f"start rank {outside[0]} is outside [0, {size})" if outside else "empty start sample")
        starts = np.asarray(sorted(set(ranks)))
        exhaustive = bool(len(starts) == size)
    P = tm.to_csr()
    # Contiguous column groups, one per thread.  A group keeps at least two columns:
    # numpy sums a lone column pairwise, where wider blocks and the oracle loop add row by row.
    cols = len(starts)
    parts = np.array_split(starts, max(1, min(_usable_cpus(), P.nnz * cols // _SPLIT_WORK, cols // 2)))
    edges = np.cumsum([0] + [len(part) for part in parts])
    dist = np.empty(cols)
    # blocks[g][y, j]: Pr[state y after t rounds from start parts[g][j]]; spare[g] is its next iterate
    blocks = [_start_block(part, size, pi, dist[lo:hi]) for part, lo, hi in zip(parts, edges, edges[1:])]
    spare = [np.empty_like(block) for block in blocks]

    def step(g: int) -> None:
        # the dead iterate becomes the |E - pi| scratch; each column sums in the same order at any split
        old, new = blocks[g], spare[g]
        _product_into(P, old, new)
        blocks[g], spare[g] = new, old
        np.abs(np.subtract(new, pi[:, None], out=old), out=old).sum(axis=0, out=dist[edges[g]:edges[g + 1]])

    d_curve = [0.5 * float(dist.max())]
    tau: dict = {}
    for e in eps:
        if d_curve[0] <= e:
            tau.setdefault(e, 0)
    t = 0
    with ThreadPoolExecutor(max(1, len(parts) - 1)) as pool:
        while len(tau) < len(eps) and t < t_max:
            rest = [pool.submit(step, g) for g in range(1, len(parts))]
            step(0)
            for future in rest:
                future.result()
            t += 1
            dt = 0.5 * float(dist.max())
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
    return MixingReport(curve, tau, exhaustive=exhaustive, start_count=size if exhaustive else len(starts))


# ---------------------------------------------------------------------------
# Per-state expected profit and limiting objectives


def limiting_objective(tm: TransitionMatrix, pi: np.ndarray) -> float:
    """Long-run per-round profit of the chain ``tm`` under its stationary law ``pi``.

    ``pi @ step_profit`` over the kernel's own space, model and policy, for
    every policy; tests/oracles.py keeps nadap's closed path through the
    gamma map as an independent check.  A hand-written kernel (model None)
    has no objective.
    """
    space = tm.space
    return float(pi @ step_profit(space.as_array(), tm.model, tm.policy, space.c))


def uniform_closed_form_objective(n: int, m: int, p, sum_w):
    """Limiting objective when all n^2 request rates equal p and capacity equals m.

    Every location then holds a driver with probability m/(n+m-1) in
    stationarity, and the objective is that availability times the total
    weighted arrival mass: (m p / (n+m-1)) * sum of weights.
    """
    return m * p * sum_w / (n + m - 1)


def uniform_availability(n: int, m: int):
    """Stationary single-location availability m/(n+m-1) in the capacity-free case."""
    return Fraction(m, n + m - 1) if isinstance(n, int) and isinstance(m, int) else m / (n + m - 1)


# ---------------------------------------------------------------------------
# Uniform-case bounds


def uniform_decay_envelope(n: int, m: int) -> tuple[float, float]:
    """(C, beta) with d(t) <= C beta^t for uniform unit-mass arrivals and c <= 2."""
    return 2.0 * m, math.exp(-1.0 / n**2)


def uniform_profit_gap_bound(n: int, m: int, sum_w, t):
    """Upper bound on the round-t profit gap |W(t) - W| in the uniform case."""
    return 4.0 * m * float(sum_w) / n**2 * np.exp(-np.asarray(t, dtype=float) / n**2)


def uniform_average_gap_bound(n: int, m: int, sum_w, T):
    """Upper bound on the running-average gap after T rounds in the uniform case."""
    return 4.0 * m * float(sum_w) / np.asarray(T, dtype=float)


def uniform_mixing_bound(n: int, m: int, eps: float) -> float:
    """Upper bound n^2 ln(2m/eps) on the eps-mixing time in the uniform case."""
    return n**2 * math.log(2.0 * m / eps)


# ---------------------------------------------------------------------------
# Exact error curves


@dataclass
class ExactCurves:
    """Exactly propagated profit curves from one start state.

    w_t[t] is the expected round-t profit; limit is the stationary value;
    delta and delta_hat are the per-round and running-average gaps.
    """

    w_t: np.ndarray
    limit: float
    delta: np.ndarray
    obj_running: np.ndarray
    delta_hat: np.ndarray


def exact_error_curves(tm: TransitionMatrix, x0: Sequence[int], T: int, pi: np.ndarray | None = None) -> ExactCurves:
    """Propagate the start law T rounds and compare each round's profit to the limit.

    Profits are those of the kernel's own model and policy; the limit
    weighs them by its stationary law ``pi``, solved here when None.  Round
    t collects the expected profit of the state reached after t
    transitions, so w_t[0] is the start state's own expected profit; the
    running average over rounds 0..T-1 gives the averaged gap.
    """
    if T < 1:
        raise ValueError("need at least one round")
    space = tm.space
    if pi is None:
        pi = stationary_distribution(tm).pi
    esp = step_profit(space.as_array(), tm.model, tm.policy, space.c)
    limit = float(pi @ esp)
    PT = tm.to_csr().T
    mu = np.zeros(space.size)
    mu[space.rank(x0)] = 1.0
    w_t = np.empty(T)
    for t in range(T):
        w_t[t] = mu @ esp
        if t + 1 < T:
            mu = PT @ mu
    obj_running = np.cumsum(w_t) / np.arange(1, T + 1)
    return ExactCurves(
        w_t=w_t,
        limit=limit,
        delta=np.abs(w_t - limit),
        obj_running=obj_running,
        delta_hat=np.abs(obj_running - limit),
    )


# ---------------------------------------------------------------------------
# The four-state occupancy-pair chain (worst-case convergence witness)


@dataclass(frozen=True)
class OccupancyPairChain:
    """Occupancy chain of a watched (origin, destination) location pair.

    Single-capacity instance, n locations, m drivers, one uniformly random
    request per round; the watched destination starts occupied and the
    watched origin starts empty, the slowest arrangement to forget.  States
    track (origin occupied, destination occupied) as s1=(1,0), s2=(1,1),
    s3=(0,0), s4=(0,1); the probability of s4 is exactly the stationary
    feasibility rate of the watched request, and the closed-form gap shows
    the approach to it is no faster than (1-1/n)^t.
    """

    n: int
    m: int
    P: np.ndarray
    gamma: Fraction

    STATES = ((1, 0), (1, 1), (0, 0), (0, 1))

    def gap(self, t, exact: bool = False):
        """Closed-form |P^t(s1, s4) - gamma| as a difference of two decay modes."""
        if not exact:
            return self._gap_float(t)
        n, m = self.n, self.m
        A = Fraction(2 * m * n - n - 2 * m * m, n * (n - 2))
        B = Fraction((m - 1) * (n - m - 1), (n - 1) * (n - 2))
        r1 = Fraction(n - 1, n)
        r2 = Fraction(n * n - 2 * n + 2, n * n)
        return A * r1**t - B * r2**t

    def _gap_float(self, t):
        n, m = self.n, self.m
        A = (2 * m * n - n - 2 * m * m) / (n * (n - 2))
        B = (m - 1) * (n - m - 1) / ((n - 1) * (n - 2))
        return A * (1 - 1 / n) ** t - B * (1 - 2 / n + 2 / (n * n)) ** t

    def gap_series(self, T: int) -> np.ndarray:
        return self._gap_float(np.arange(T + 1, dtype=float))

    def decay_reference(self, t):
        """Leading-order reference (2m/n) e^{-t/n} the gap is compared against."""
        return 2.0 * self.m / self.n * np.exp(-np.asarray(t, dtype=float) / self.n)

    def ratio_to_reference(self, t):
        return self._gap_float(np.asarray(t, dtype=float)) / self.decay_reference(t)


def build_occupancy_pair_chain(n: int, m: int) -> OccupancyPairChain:
    """Exact rational 4-state chain for 1 < m < n - 1 (outside that it degenerates)."""
    if not isinstance(n, int) or not isinstance(m, int):
        raise ValueError("n and m must be integers")
    if m <= 1 or m >= n - 1:
        raise ValueError(f"need 1 < m < n - 1, got n={n}, m={m}")
    d = Fraction(1, n * n)
    P = np.empty((4, 4), dtype=object)
    P[0] = [d * (n * n - n + 1), d * (m - 1), d * (n - m - 1), d * 1]
    P[1] = [d * (n - m), d * (n * n - 2 * (n - m)), d * 0, d * (n - m)]
    P[2] = [d * m, d * 0, d * (n * n - 2 * m), d * m]
    P[3] = [d * 1, d * (m - 1), d * (n - m - 1), d * (n * n - n + 1)]
    for i in range(4):
        assert sum(P[i]) == 1
    gamma = Fraction(m, n) * Fraction(n - m, n - 1)
    return OccupancyPairChain(n=n, m=m, P=P, gamma=gamma)
