"""Array-native exact layers, each pinned to its scalar or definitional oracle.

Random small instances (grid up to 3x3, up to 4 drivers, capacity up to 3)
with derandomized draws and fixed example counts, so the suite stays
deterministic.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dispatchlab.chain import build_transition
from dispatchlab.coupling import _coupled_distance_totals
from dispatchlab.grid import RequestModel, build_grid, uniform_request_model
from dispatchlab.mdp import MdpInstance, _action_tables
from dispatchlab.policies import ALL_PHIS, PolicySpec, policy_table, step_profit
from dispatchlab.states import StateSpace, neighbor_pairs
from oracles import (
    build_transition_from_policy,
    can_serve,
    coupled_step_distribution,
    expected_step_profit,
    move,
    move_rank,
    pair_distance,
    same_transitions,
    serving_location,
)

FAST = settings(derandomize=True, max_examples=40, deadline=None)
SLOW = settings(derandomize=True, max_examples=25, deadline=None)
# the largest grid and fleet the strategies draw, always among the examples
LARGEST = StateSpace(build_grid(3, 3), 4, 2)


@st.composite
def spaces(draw, max_c=3):
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 3))
    c = draw(st.integers(1, max_c))
    m = draw(st.integers(1, min(4, c * rows * cols)))
    return StateSpace(build_grid(rows, cols), m, c)


def fraction_model(grid, seed: int) -> RequestModel:
    """Random exact arrivals (some pairs absent) with total mass below one."""
    n = grid.n
    rng = np.random.default_rng(seed)
    p = np.empty((n, n), dtype=object)
    w = np.empty((n, n), dtype=object)
    for u in range(n):
        for v in range(n):
            p[u, v] = Fraction(int(rng.integers(0, 4)), 3 * n * n + 1)
            w[u, v] = Fraction(int(rng.integers(0, 5)), 2)
    return RequestModel(grid, p, w)


def float_model(grid, seed: int) -> RequestModel:
    n = grid.n
    rng = np.random.default_rng(seed)
    p = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
    return RequestModel(grid, p / (1.25 * max(p.sum(), 1e-9)), rng.random((n, n)))


@FAST
@given(spaces())
def test_vectorized_rank_and_enumeration_match_scalar_rank(space):
    arr = space.as_array()
    assert [tuple(x) for x in arr.tolist()] == [space.unrank(i) for i in range(space.size)]
    assert space.ranks(arr).tolist() == list(range(space.size))
    assert space.ranks(arr[::-1]).tolist() == [space.rank(x) for x in arr[::-1].tolist()]


@FAST
@given(spaces())
def test_neighbor_pair_arrays_match_brute_force(space):
    pairs = neighbor_pairs(space)
    expect = []
    for ix in range(space.size):
        x = space.unrank(ix)
        for u in range(space.n):
            for v in range(space.n):
                if u != v and x[u] >= 1 and x[v] < space.c:
                    expect.append((ix, move_rank(space, x, u, v), u, v))
    assert len(pairs) == len(expect)
    assert [tuple(p) for p in pairs] == expect


@st.composite
def policies(draw):
    """Any policy, nadap with an exact alpha."""
    kind = draw(st.sampled_from(["nadap", "rand", "greedy"]))
    if kind == "nadap":
        alpha = draw(st.sampled_from([Fraction(1), Fraction(3, 4), Fraction(1, 3)]))
        return PolicySpec("nadap", alpha=alpha, boundary=draw(st.sampled_from(["renormalize", "lost"])))
    if kind == "rand":
        return PolicySpec("rand", phi=ALL_PHIS[draw(st.integers(0, 23))])
    return PolicySpec("greedy", origin_first=draw(st.booleans()))


def float_alpha(policy: PolicySpec) -> PolicySpec:
    """The policy as the command line builds it: a float nadap alpha."""
    return replace(policy, alpha=float(policy.alpha)) if policy.kind == "nadap" else policy


@FAST
@given(spaces(), st.integers(0, 23), st.booleans())
def test_serving_table_matches_serving_location(space, phi, origin_first):
    grid = space.grid
    arr = space.as_array()
    rand = PolicySpec("rand", phi=ALL_PHIS[phi])
    greedy = PolicySpec("greedy", origin_first=origin_first)
    for policy in (rand, greedy):
        loc, wgt = policy_table(arr, policy, grid)
        assert loc.shape == wgt.shape == (space.size, grid.n, 1) and (wgt == 1).all()
        expect = [
            [serving_location(x, u, policy, grid) for u in range(grid.n)] for x in arr.tolist()
        ]
        assert loc[:, :, 0].tolist() == [[-1 if k is None else k for k in row] for row in expect]


def assert_builder_matches_oracle(space, seed, policy):
    model = fraction_model(space.grid, seed)
    fast = build_transition(space, model, policy)
    assert fast.exact
    assert same_transitions(fast, build_transition_from_policy(space, model, policy), tol=0)
    # floats too: entries and diagonals are summed in the definitional order
    model, policy = float_model(space.grid, seed), float_alpha(policy)
    fast = build_transition(space, model, policy)
    assert not fast.exact
    assert same_transitions(fast, build_transition_from_policy(space, model, policy), tol=0)


@SLOW
@given(spaces(), st.integers(0, 2**16), st.sampled_from(["renormalize", "lost"]),
       st.sampled_from([Fraction(1), Fraction(3, 4), Fraction(1, 3)]))
@example(LARGEST, 1, "lost", Fraction(3, 4))
def test_nadap_builder_matches_oracle_exactly(space, seed, boundary, alpha):
    assert_builder_matches_oracle(space, seed, PolicySpec("nadap", alpha=alpha, boundary=boundary))


@SLOW
@given(spaces(), st.integers(0, 2**16), st.integers(0, 23))
@example(LARGEST, 2, 5)
def test_rand_builder_matches_oracle_exactly(space, seed, phi):
    assert_builder_matches_oracle(space, seed, PolicySpec("rand", phi=ALL_PHIS[phi]))


@SLOW
@given(spaces(), st.integers(0, 2**16), st.booleans())
@example(LARGEST, 3, True)
@example(LARGEST, 4, False)
def test_greedy_builder_matches_oracle_exactly(space, seed, origin_first):
    assert_builder_matches_oracle(space, seed, PolicySpec("greedy", origin_first=origin_first))


@SLOW
@given(spaces(), st.integers(0, 2**16), policies())
@example(LARGEST, 6, PolicySpec("nadap", alpha=Fraction(3, 4)))
def test_step_profit_matches_oracle_bit_for_bit(space, seed, policy):
    arr = space.as_array()
    # float models add in the oracle's order; exact ones are summed exactly and rounded once
    for model, pol in ((float_model(space.grid, seed), float_alpha(policy)),
                       (fraction_model(space.grid, seed), policy)):
        want = [float(expected_step_profit(x, model, pol, space.c)) for x in arr.tolist()]
        assert step_profit(arr, model, pol, space.c).tolist() == want


@SLOW
@given(spaces(max_c=2), st.integers(0, 2**16))
@example(LARGEST, 0)
def test_integer_coupling_totals_match_joint_law(space, offset):
    n = space.n
    model = uniform_request_model(space.grid, Fraction(1, n * n), weights=Fraction(1))
    pairs = neighbor_pairs(space)
    totals = _coupled_distance_totals(space, pairs)
    arr = space.as_array()
    stride = max(1, len(pairs) // 40)
    for i in range(offset % stride, len(pairs), stride):
        x, y = arr[pairs.x[i]].tolist(), arr[pairs.y[i]].tolist()
        joint = coupled_step_distribution(x, y, model, space.c)
        expected = sum(prob * pair_distance(xn, yn) for (xn, yn), prob in joint.items())
        assert Fraction(int(totals[i]), n * n) == expected


def scalar_action_tables(instance):
    """The per-placement loop the vectorized tables replace."""
    space = instance.space
    R, A, n = instance.n_requests, instance.n_actions, instance.grid.n
    w = instance.model.w.astype(float)
    nxt = np.empty((R + 1, A, space.size), dtype=np.int64)
    rew = np.zeros((R + 1, A, space.size))
    nxt[:] = np.arange(space.size)
    states = [space.unrank(i) for i in range(space.size)]
    for r in range(R):
        u, v = divmod(r, n)
        for a in range(1, A):
            k = instance.action_location(r, a)
            if k is None:
                continue
            for i, x in enumerate(states):
                if can_serve(x, k, v, instance.c):
                    rew[r, a, i] = w[u, v]
                    if k != v:
                        nxt[r, a, i] = space.rank(move(x, k, v, instance.c))
    return nxt, rew


@SLOW
@given(spaces(), st.integers(0, 2**16))
@example(LARGEST, 5)
def test_action_tables_match_scalar_loop(space, seed):
    instance = MdpInstance(space.grid, space.m, space.c, float_model(space.grid, seed))
    nxt, rew = _action_tables(instance)
    want_nxt, want_rew = scalar_action_tables(instance)
    assert np.array_equal(nxt, want_nxt)
    assert np.array_equal(rew, want_rew)
    assert instance.action_tables is instance.action_tables
