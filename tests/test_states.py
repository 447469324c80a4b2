"""State-space enumeration, ranking, and legal driver moves."""

import time
from math import comb
from unittest.mock import patch

import numpy as np
import pytest

from dispatchlab.errors import InfeasibleInstanceError, SizeLimitError
from dispatchlab.grid import build_grid
from dispatchlab.states import StateSpace, format_state, parse_state
from oracles import InfeasibleMoveError, composition_table, move, move_rank, rank_by_table, ranks, unrank


def brute_force_states(n, m, c):
    """All occupancy vectors by direct product filtering; oracle for small n."""
    out = []

    def rec(prefix, left):
        if len(prefix) == n:
            if left == 0:
                out.append(tuple(prefix))
            return
        for x in range(min(c, left) + 1):
            rec(prefix + [x], left - x)

    rec([], m)
    return out


def test_enumeration_matches_brute_force():
    for rows, cols in ((1, 2), (2, 2), (1, 3)):
        g = build_grid(rows, cols)
        for m in range(1, 5):
            for c in range(1, 4):
                if m > g.n * c:
                    continue
                space = StateSpace(g, m, c)
                expect = brute_force_states(g.n, m, c)
                got = [unrank(space, i) for i in range(space.size)]
                assert got == sorted(expect), (rows, cols, m, c)


def test_unconstrained_size_is_binomial():
    # with c >= m the capacity never binds: compositions of m into n parts
    g = build_grid(2, 3)
    space = StateSpace(g, 4, 4)
    assert space.size == comb(4 + g.n - 1, g.n - 1)


def test_known_instance_size():
    # two drivers, capacity two, four locations: all pairs plus doubles
    space = StateSpace(build_grid(2, 2), 2, 2)
    assert space.size == 10


def test_rank_unrank_bijection():
    space = StateSpace(build_grid(2, 3), 4, 2)
    for i in range(space.size):
        assert space.rank(unrank(space, i)) == i


def test_rank_rejects_illegal_counts():
    space = StateSpace(build_grid(1, 2), 2, 2)
    with pytest.raises(ValueError):
        space.rank((2, 1))  # wrong total
    with pytest.raises(ValueError):
        space.rank((3, -1))  # capacity and sign
    with pytest.raises(ValueError):
        space.rank((1, 1, 0))  # wrong length


def test_infeasible_instances_rejected():
    g = build_grid(1, 2)
    with pytest.raises(InfeasibleInstanceError):
        StateSpace(g, 5, 2)  # m > n*c
    with pytest.raises(InfeasibleInstanceError):
        StateSpace(g, 0, 2)
    with pytest.raises(InfeasibleInstanceError):
        StateSpace(g, 1, 0)


def test_state_cap_enforced():
    g = build_grid(3, 3)
    with pytest.raises(SizeLimitError):
        StateSpace(g, 4, 4, cap=10)


def test_saturated_counts_rank_as_exact_counts():
    """Counts saturated at cap + 1 give every rank, unrank and move of the exact table."""
    for rows, cols in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)):
        g = build_grid(rows, cols)
        for m in range(1, 6 if g.n < 9 else 4):
            for c in range(1, 5):
                if m > g.n * c:
                    continue
                table = composition_table(g.n, m, c)
                size = table[0][m]
                with pytest.raises(SizeLimitError):
                    StateSpace(g, m, c, cap=size - 1)
                # at the cap every count that fits is exact; far above it the counts are Python ints
                for cap in (size, 10**30):
                    space = StateSpace(g, m, c, cap=cap)
                    assert space.size == size
                    X = space.as_array()
                    want = [rank_by_table(table, x) for x in X.tolist()]
                    assert want == list(range(size))
                    assert ranks(space, X).tolist() == want
                    assert [space.rank(x) for x in X.tolist()] == want
                    assert [unrank(space, i) for i in range(size)] == [tuple(x) for x in X.tolist()]
                    for _, src, u, v, dst in space.moves():
                        moved = X[src].copy()
                        moved[np.arange(len(src)), u] -= 1
                        moved[np.arange(len(src)), v] += 1
                        assert dst.tolist() == [rank_by_table(table, x) for x in moved.tolist()]


def test_oversize_space_is_refused_fast():
    # the city's replay fleet: 5,001 x 51 windows on each of 231 cells
    t0 = time.perf_counter()
    with pytest.raises(SizeLimitError, match="more than 5000000 states"):
        StateSpace(build_grid(21, 11), 5000, 50)
    assert time.perf_counter() - t0 < 1.0


def test_move_semantics():
    assert move((1, 0), 0, 1, 1) == (0, 1)
    assert move((1, 1), 0, 0, 1) == (1, 1)  # self-move keeps the state
    with pytest.raises(InfeasibleMoveError):
        move((0, 1), 0, 1, 1)  # origin empty
    with pytest.raises(InfeasibleMoveError):
        move((1, 1), 0, 1, 1)  # destination full
    # origin-empty is reported even when the destination is also full
    with pytest.raises(InfeasibleMoveError, match="no driver"):
        move((0, 1), 0, 1, 1)


def test_move_rank_matches_move():
    space = StateSpace(build_grid(2, 2), 2, 2)
    x = (1, 1, 0, 0)
    assert unrank(space, move_rank(space, x, 1, 3)) == (1, 0, 0, 1)


def test_format_parse_roundtrip():
    assert parse_state("1,0,2,0") == (1, 0, 2, 0)
    assert format_state((1, 0, 2, 0)) == "1,0,2,0"
    rng = np.random.default_rng(3)
    for _ in range(20):
        counts = tuple(int(v) for v in rng.integers(0, 4, size=5))
        assert parse_state(format_state(counts)) == counts


def test_as_array_matches_unrank():
    space = StateSpace(build_grid(2, 2), 3, 2)
    arr = space.as_array()
    assert arr.shape == (space.size, 4)
    for i in range(space.size):
        assert tuple(arr[i]) == unrank(space, i)


def test_moves_differ_by_one_move():
    space = StateSpace(build_grid(2, 2), 2, 2)
    pairs = []
    with patch("dispatchlab.states._MOVE_ELEMENTS", 3 * 16):  # three states a block
        blocks = list(space.moves())
    assert [(rows.start, rows.stop) for rows, *_ in blocks] == [(0, 3), (3, 6), (6, 9), (9, 10)]
    for rows, src, u, v, dst in blocks:
        assert ((rows.start <= src) & (src < rows.stop)).all()
        assert (u != v).all() and (np.diff((src * 4 + u) * 4 + v) > 0).all()  # (src, u, v) order
        for x_rank, a, b, y_rank in zip(src.tolist(), u.tolist(), v.tolist(), dst.tolist()):
            x = np.array(unrank(space, x_rank))
            y = np.array(unrank(space, y_rank))
            diff = y - x
            assert diff.sum() == 0
            assert np.abs(diff).sum() == 2
            assert diff[b] == 1 and diff[a] == -1
            pairs.append((x_rank, y_rank))
    # every ordered pair at count-distance 2 appears exactly once
    assert len(set(pairs)) == len(pairs)
    states = [np.array(unrank(space, i)) for i in range(space.size)]
    expect = sum(
        1
        for i, xi in enumerate(states)
        for j, xj in enumerate(states)
        if i != j and np.abs(xi - xj).sum() == 2
    )
    assert len(pairs) == expect
