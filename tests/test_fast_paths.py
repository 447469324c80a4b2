"""Array-native exact layers, each pinned to its scalar or definitional oracle.

Random small instances (grid up to 3x3, up to 4 drivers, capacity up to 3)
with derandomized draws and fixed example counts, so the suite stays
deterministic; the blocked elimination solve is also checked on random
chains across block edges and on the benchmark's 800-state chains.
"""

import hashlib
import threading
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dispatchlab import chain
from dispatchlab.chain import (
    _gth_solve,
    build_transition,
    check_aperiodic,
    check_irreducible,
    mixing_analysis,
    stationary_distribution,
)
from dispatchlab.coupling import _coupled_distance_totals
from dispatchlab.errors import HorizonTooShortError
from dispatchlab.grid import RequestModel, build_grid, distance_weights, uniform_request_model
from dispatchlab.mdp import MdpInstance, _action_tables
from dispatchlab.policies import ALL_PHIS, PolicySpec, parse_policy, policy_table, step_profit
from dispatchlab.states import StateSpace
from oracles import (
    build_transition_from_policy,
    can_serve,
    coupled_step_distribution,
    expected_step_profit,
    gth_solve_scalar,
    mixing_curve_loop,
    move,
    move_rank,
    pair_distance,
    ranks,
    same_transitions,
    serving_location,
    unrank,
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
    assert [tuple(x) for x in arr.tolist()] == [unrank(space, i) for i in range(space.size)]
    assert ranks(space, arr).tolist() == list(range(space.size))
    assert ranks(space, arr[::-1]).tolist() == [space.rank(x) for x in arr[::-1].tolist()]


@FAST
@given(spaces(), st.integers(1, 40))
def test_moves_match_brute_force(space, per_block):
    with patch("dispatchlab.states._MOVE_ELEMENTS", per_block * space.n**2):
        blocks = list(space.moves())
    assert [(rows.start, rows.stop) for rows, *_ in blocks] == [
        (lo, min(lo + per_block, space.size)) for lo in range(0, space.size, per_block)
    ]
    for rows, src, *_ in blocks:
        assert ((rows.start <= src) & (src < rows.stop)).all()
    got = [pair for _, *block in blocks for pair in zip(*(part.tolist() for part in block))]
    expect = []
    for ix in range(space.size):
        x = unrank(space, ix)
        for u in range(space.n):
            for v in range(space.n):
                if u != v and x[u] >= 1 and x[v] < space.c:
                    expect.append((ix, u, v, move_rank(space, x, u, v)))
    assert got == expect


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
    # floats too: entries and diagonals are summed in the definitional order, here over blocks of five states
    model, policy = float_model(space.grid, seed), float_alpha(policy)
    with patch("dispatchlab.states._MOVE_ELEMENTS", 5 * space.n**2):
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


def kernel_digests(tm) -> tuple[str, str, str]:
    """sha256 of ``indptr``, ``indices`` as int64 and ``data``: float bytes, or exact entries as text."""
    data = " ".join(map(str, tm.data.tolist())).encode() if tm.exact else tm.data.tobytes()
    return tuple(hashlib.sha256(a).hexdigest() for a in (tm.indptr.tobytes(), tm.indices.astype(np.int64).tobytes(), data))


BENCH_INDPTR, BENCH_INDICES = (
    "892d01fac12d67fc1b42e4e6d4bd6d1b36368fc1a6f5f07edd2cc6999afeb999",
    "cd2a7ae775d583cfe6890f14ccf0340b81bf4e403f2d14afbaff6acbe018772a",
)

# The bench's chains (4x4, c=2, uniform:0.00390625) and an exact 2x3 chain (m=3, c=2,
# p = 1/40, w = 1, nadap with alpha 3/4), recorded when the builder sorted every pair at once.
KERNEL_DIGESTS = {
    (3, "nadap:0.8"): (BENCH_INDPTR, BENCH_INDICES, "639b967f4447b1cbb801641f18c6e1b028dd25225cb5164fe784c15a2371f9a1"),
    (3, "rand:NESW"): (BENCH_INDPTR, BENCH_INDICES, "368e102ae1af8850169bef4f7f6c0e4d2544597b1e4429d5b35f40ae15d7cb68"),
    (3, "greedy"): (BENCH_INDPTR, BENCH_INDICES, "2933e74e0017d5c4dec83f1781b3d79a3d96254564288f619f1fdb389372bdb5"),
    (4, "nadap:0.8"): (
        "bd2dde63dd87546c7a73518d49725205c9498cff0703457edaf916d621ce8eb1",
        "046dbbd91bd07eee83f720fee51e4294d6df6ba23f9cb8eec4bb5f3c746cf815",
        "87e9e1c89d7b2a8971cab062a582386f72a3eb37ed35a9f994e1c75f50153c0e",
    ),
    (3, "exact 2x3"): (
        "0f9df3b4ac04c85e9b50bc4a651d3ed9b958f07e051c468936240e8276347b12",
        "b9d9216b134f607a7f2f26a689257ce11e7ff7e7186d09a3c0ae28885f32c362",
        "f7865bda86b44aa379207e106a06963b9020aebceed6766aba5d7ab5e6637696",
    ),
}


@pytest.mark.parametrize("m, label", list(KERNEL_DIGESTS))
def test_kernel_arrays_are_pinned(m, label):
    if label == "exact 2x3":
        grid = build_grid(2, 3)
        model, policy = uniform_request_model(grid, Fraction(1, 40), weights=Fraction(1)), PolicySpec("nadap", alpha=Fraction(3, 4))
    else:
        grid = build_grid(4, 4)
        model, policy = uniform_request_model(grid, 0.00390625), parse_policy(label)
    tm = build_transition(StateSpace(grid, m, 2), model, policy)
    assert tm.indices.dtype == np.int32
    assert kernel_digests(tm) == KERNEL_DIGESTS[m, label]


def traced_peak(call, *args):
    """``call(*args)`` and its tracemalloc peak in bytes."""
    from scipy.sparse import csgraph  # noqa: F401  (loaded here, so the peak leaves out its import)

    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def greedy_5x5_kernel():
    """The 5x5, m=3, c=2 greedy kernel under uniform arrivals: 2,900 states, 196,700 entries."""
    grid = build_grid(5, 5)
    return build_transition(StateSpace(grid, 3, 2), uniform_request_model(grid, 1 / 625, weights=1.0),
                            PolicySpec("greedy"))


def test_build_peak_memory_stays_near_the_kernel():
    """The 5x5, m=3 greedy build (2,900 states) holds one block of pairs at a time.

    Sorting every pair at once peaked at 7.2 times the kernel's 16 bytes an
    entry; blocks of source states peak at 2.3 times.
    """
    tm, peak = traced_peak(greedy_5x5_kernel)
    assert tm.size == 2900
    assert peak <= 3 * 16 * len(tm.data)


def test_to_csr_wraps_the_built_arrays():
    """The float CSR of the 5x5, m=3 greedy kernel shares its int32 columns and float values.

    An int64 ``indptr`` made scipy widen the columns to an int64 copy, a
    peak of 0.67 times the kernel's int32 columns and float64 values.
    """
    tm = greedy_5x5_kernel()
    P, peak = traced_peak(tm.to_csr)
    assert P.indices.dtype == np.int32
    assert np.shares_memory(P.indices, tm.indices) and np.shares_memory(P.data, tm.data)
    assert peak <= 0.05 * 12 * len(tm.data)


def test_structure_checks_read_the_kernel_in_place():
    """Irreducibility and period checks on the 5x5, m=3 greedy kernel (2,900 states) build no second kernel.

    Building a pattern CSR and an int64 row index per entry peaked at 3.2
    times the kernel's int32 columns and float64 values.  Reading its own
    CSR peaked at 0.77 times while ``to_csr`` widened the columns to int64;
    over the built columns it peaks at about 0.11 times.
    """
    tm = greedy_5x5_kernel()
    checks, peak = traced_peak(lambda: (check_irreducible(tm), check_aperiodic(tm)))
    assert checks == (True, True)
    assert tm.size == 2900 and tm.indices.dtype == np.int32
    assert peak <= 0.5 * 12 * len(tm.data)


def test_power_solve_steps_the_kernel_in_place():
    """Power iteration on the 5x5, m=3 greedy kernel reads the CSC view of its one CSR.

    A cached int64 transpose with the CSR's int64 columns peaked at 2.8
    times the kernel's int32 columns and float64 values; the view peaks at
    about 0.8 times.
    """
    tm = greedy_5x5_kernel()
    assert tm.size > chain.DENSE_SOLVE_LIMIT
    res, peak = traced_peak(stationary_distribution, tm)
    assert res.method == "power"
    assert peak <= 1.25 * 12 * len(tm.data)


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


@pytest.mark.parametrize("policy", ["greedy", "greedy:pool", "rand:NESW", "nadap:0.8"])
def test_step_profit_matches_oracle_at_paper_scale(policy):
    """The paper's 21x11 grid, 50 drivers, capacity 2: a dense float model with distance weights,
    and a sparse one shaped like an ingested segment."""
    grid = build_grid(21, 11)
    rng = np.random.default_rng(21)
    p = rng.random((grid.n, grid.n))
    dense = RequestModel(grid, 0.9 * p / p.sum(), distance_weights(grid))
    # packed, spread, and random placements: each cell offers two seats, 50 are taken
    seats = [np.arange(50), np.arange(0, 100, 2)] + [rng.choice(2 * grid.n, 50, replace=False) for _ in range(3)]
    states = np.array([np.bincount(taken // 2, minlength=grid.n) for taken in seats])
    # about 84% of pairs never asked, and a tenth of the asked ones paying nothing
    p = p * (rng.random(p.shape) >= 0.84)
    sparse = RequestModel(grid, 0.13 * p / p.sum(), distance_weights(grid) * (rng.random(p.shape) >= 0.1))
    pol = parse_policy(policy)
    for model in (dense, sparse):
        want = [float(expected_step_profit(x, model, pol, 2)) for x in states.tolist()]
        assert step_profit(states, model, pol, 2).tolist() == want


@SLOW
@given(spaces(max_c=2), st.integers(0, 2**16))
@example(LARGEST, 0)
def test_integer_coupling_totals_match_joint_law(space, offset):
    n = space.n
    model = uniform_request_model(space.grid, Fraction(1, n * n), weights=Fraction(1))
    arr = space.as_array()
    src, u, v, dst = (np.concatenate(part) for part in zip(*(block[1:] for block in space.moves())))
    totals = _coupled_distance_totals(space, u, v, src)
    assert totals.shape == src.shape
    # one pair of every move, since each move has its own closed form
    for move in np.unique(u * n + v):
        pick = np.flatnonzero(u * n + v == move)
        i = pick[offset % len(pick)]
        x, y = arr[src[i]].tolist(), arr[dst[i]].tolist()
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
    states = [unrank(space, i) for i in range(space.size)]
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


def random_chain(size: int, seed: int, density: float = 0.1) -> np.ndarray:
    """Random sparse stochastic matrix with a cycle through every state (irreducible)."""
    rng = np.random.default_rng(seed)
    P = rng.random((size, size)) * (rng.random((size, size)) < density)
    P[np.arange(size), (np.arange(size) + 1) % size] += 0.5
    return P / P.sum(axis=1, keepdims=True)


def block_chain(a: np.ndarray, b: np.ndarray, coupling: float) -> np.ndarray:
    """Two chains side by side, linked one way and back with probability ``coupling`` each."""
    k = len(a)
    P = np.zeros((k + len(b), k + len(b)))
    P[:k, :k], P[k:, k:] = a, b
    P[k - 1, k] = P[-1, 0] = coupling
    return P / P.sum(axis=1, keepdims=True)


def assert_gth_matches_scalar(P: np.ndarray) -> None:
    want, before = gth_solve_scalar(P), P.copy()
    got = _gth_solve(P)
    assert P.dtype == before.dtype and np.array_equal(P, before)  # the solve eliminates on its own copy
    assert np.all(np.abs(got - want) <= 1e-13 * want)


@pytest.mark.parametrize("size", [1, 2, 63, 64, 65, 130])
def test_blocked_gth_matches_scalar_elimination(size):
    assert_gth_matches_scalar(random_chain(size, seed=size))


def test_blocked_gth_matches_scalar_on_bench_chains():
    grid = build_grid(4, 4)
    model = uniform_request_model(grid, 0.00390625)
    for label in ("nadap:0.8", "rand:NESW", "greedy"):
        tm = build_transition(StateSpace(grid, 3, 2), model, parse_policy(label))
        assert tm.size == 800
        assert_gth_matches_scalar(tm.to_dense())


def test_blocked_gth_matches_scalar_on_exact_and_nearly_decomposable_chains():
    space = StateSpace(build_grid(2, 2), 2, 2)
    tm = build_transition(space, fraction_model(space.grid, 11), PolicySpec("nadap", alpha=Fraction(3, 4)))
    assert tm.exact
    assert_gth_matches_scalar(tm.to_dense())
    assert_gth_matches_scalar(block_chain(random_chain(60, 1), random_chain(60, 2), 1e-13))


def test_blocked_gth_refuses_reducible_chain_as_scalar_does():
    for P in (block_chain(random_chain(70, 3), random_chain(70, 4), 0.0), np.eye(3)):
        for solve in (gth_solve_scalar, _gth_solve):
            with pytest.raises(ValueError, match="chain is reducible: elimination hit an absorbing block"):
                solve(P)


def split_into(groups: int):
    """Patch the sweep to split any chain into ``groups`` column groups, or fewer where that leaves a group one column."""
    return patch.multiple(chain, _usable_cpus=lambda: groups, _SPLIT_WORK=1)


@SLOW
@given(spaces(), st.integers(0, 2**16), policies(), st.integers(1, 150), st.booleans(), st.integers(1, 3))
@example(LARGEST, 7, PolicySpec("greedy"), 150, False, 3)
@example(LARGEST, 8, PolicySpec("rand", phi=ALL_PHIS[0]), 150, True, 2)
@example(LARGEST, 9, PolicySpec("nadap", alpha=Fraction(3, 4)), 2, True, 3)
@example(LARGEST, 10, PolicySpec("greedy"), 2, False, 2)
def test_mixing_sweep_matches_row_block_loop_byte_for_byte(space, seed, policy, t_max, sampled, groups):
    n = space.n
    p = np.random.default_rng(seed).random((n, n)) + 0.05
    model = RequestModel(space.grid, 0.8 * p / p.sum(), np.ones((n, n)))
    tm = build_transition(space, model, float_alpha(policy))
    assume(check_irreducible(tm))
    pi = gth_solve_scalar(tm.to_dense())
    starts = None
    if sampled:  # duplicates and any order, as a caller may pass them
        starts = np.random.default_rng(seed).integers(0, space.size, size=1 + seed % 7).tolist()
    args = (tm, pi, [0.3, 0.02, 1e-4], t_max)
    threads = threading.active_count()
    try:
        want = mixing_curve_loop(*args, start_ranks=starts)
    except HorizonTooShortError as short:
        with split_into(groups), pytest.raises(HorizonTooShortError) as info:
            mixing_analysis(*args, start_ranks=starts)
        assert threading.active_count() == threads
        assert info.value.d_curve.tobytes() == short.d_curve.tobytes()
        assert str(info.value) == str(short)
        return
    with split_into(groups):
        got = mixing_analysis(*args, start_ranks=starts)
    assert threading.active_count() == threads
    assert got.d_curve.tobytes() == want.d_curve.tobytes()
    assert got.tau == want.tau
    assert (got.exhaustive, got.start_count) == (want.exhaustive, want.start_count)


def assert_view_sums_as_the_transpose(P, seed: int) -> None:
    """``P.T @ x`` and the sweep's product equal the transposed CSR's products byte for byte."""
    rng = np.random.default_rng(seed)
    x, E = rng.random(P.shape[0]), rng.random((P.shape[0], 3))
    PT = P.T.tocsr()
    out = np.full_like(E, np.nan)
    chain._product_into(P, E, out)
    assert (P.T @ x).tobytes() == (PT @ x).tobytes()
    assert out.tobytes() == (PT @ E).tobytes()


@pytest.mark.parametrize("m, label", [(3, "nadap:0.8"), (3, "rand:NESW"), (3, "greedy"), (4, "nadap:0.8")])
def test_view_sums_as_the_transpose_on_bench_chains(m, label):
    grid = build_grid(4, 4)
    tm = build_transition(StateSpace(grid, m, 2), uniform_request_model(grid, 0.00390625), parse_policy(label))
    assert_view_sums_as_the_transpose(tm.to_csr(), m)
    if tm.orbit is not None:
        assert_view_sums_as_the_transpose(chain._lumped_kernel(tm), m)


@FAST
@given(spaces(), st.integers(0, 2**16), policies())
def test_view_sums_as_the_transpose_on_drawn_chains(space, seed, policy):
    tm = build_transition(space, float_model(space.grid, seed), float_alpha(policy))
    assert_view_sums_as_the_transpose(tm.to_csr(), seed)


def test_view_sums_as_the_transpose_on_a_lumped_kernel():
    tm = build_transition(LARGEST, invariant_model(LARGEST.grid, 3), PolicySpec("nadap", alpha=0.8))
    assert tm.orbit is not None
    assert_view_sums_as_the_transpose(chain._lumped_kernel(tm), 3)


def test_sweep_product_fills_the_callers_block_as_matmul_does():
    space = StateSpace(build_grid(2, 3), 3, 2)
    P = build_transition(space, uniform_request_model(space.grid, 0.8 / 36), PolicySpec("greedy")).to_csr()
    E = np.random.default_rng(1).random((space.size, 3))
    out = np.full_like(E, np.nan)
    chain._product_into(P, E, out)
    assert out.tobytes() == (P.T @ E).tobytes() == (P.T.tocsr() @ E).tobytes()
    # the kernel writes through raw pointers: a block it cannot fill in place is refused
    for block, into in ((E, np.asfortranarray(out)), (np.asfortranarray(E), out), (E[:, :2].copy(), out)):
        with pytest.raises(ValueError, match="C-ordered blocks"):
            chain._product_into(P, block, into)


class FaultyProduct:
    """The sweep's product, failing on the caller's thread or on every worker, recording the blocks it stepped.

    A pool may hand one worker two groups in a round, so blocks, not threads, count the groups.
    """

    def __init__(self, product, on_caller: bool):
        self.product, self.on_caller, self.stepped = product, on_caller, set()

    def __call__(self, P, E, out):
        self.stepped.add(id(E))
        if (threading.current_thread() is threading.main_thread()) == self.on_caller:
            raise ArithmeticError("injected fault")
        self.product(P, E, out)


@pytest.mark.parametrize("on_caller", [False, True])
@pytest.mark.parametrize("groups", [2, 3])
def test_mixing_sweep_fault_reaches_the_caller_and_no_thread_outlives_it(groups, on_caller, monkeypatch):
    space = StateSpace(build_grid(2, 3), 3, 2)
    tm = build_transition(space, uniform_request_model(space.grid, 0.8 / 36), PolicySpec("greedy"))
    pi = gth_solve_scalar(tm.to_dense())
    fault = FaultyProduct(chain._product_into, on_caller)
    monkeypatch.setattr(chain, "_product_into", fault)
    threads = threading.active_count()
    with split_into(groups), pytest.raises(ArithmeticError, match="injected fault"):
        mixing_analysis(tm, pi, [0.01], t_max=50)
    assert len(fault.stepped) == groups
    assert threading.active_count() == threads


# ---------------------------------------------------------------------------
# Symmetry orbits


def invariant_model(grid, seed: int) -> RequestModel:
    """Random arrivals and weights that every grid symmetry leaves unchanged, entry for entry.

    Each (u, v) reads the value drawn for the least pair index among its
    images, so the pairs of one orbit share one float.
    """
    n = grid.n
    pair = np.arange(n * n).reshape(n, n)
    label = np.min([pair[np.ix_(g, g)] for g in grid.symmetries()], axis=0)
    rng = np.random.default_rng(seed)
    p, w = rng.random(n * n)[label] + 0.05, rng.random(n * n)[label]
    return RequestModel(grid, p / (1.25 * p.sum()), w)


def brute_orbits(space: StateSpace) -> np.ndarray:
    """Each state's least rank over its images, each image ranked one state at a time."""
    arr = space.as_array()
    images = np.empty_like(arr)
    label = np.arange(space.size)
    for g in space.grid.symmetries():
        images[:, g] = arr  # the count at cell u moves to g[u]
        label = np.minimum(label, [space.rank(y) for y in images.tolist()])
    return label


@SLOW
@given(spaces(), st.integers(0, 2**16), st.sampled_from([0.8, 0.5, 1.0]),
       st.sampled_from(["renormalize", "lost"]))
@example(LARGEST, 1, 0.8, "renormalize")
@example(StateSpace(build_grid(2, 3), 3, 2), 2, 0.8, "lost")
@example(StateSpace(build_grid(1, 3), 2, 1), 3, 0.5, "renormalize")
def test_invariant_nadap_chains_commute_with_every_grid_symmetry(space, seed, alpha, boundary):
    """P(gx, gy) = P(x, y) on square and rectangular grids, and the orbit labels are the brute force's."""
    grid = space.grid
    perms = grid.symmetries()
    assert len(perms) == (8 if grid.rows == grid.cols else 4) and perms[0].tolist() == list(range(grid.n))
    if min(grid.rows, grid.cols) > 1:
        assert len(np.unique(perms, axis=0)) == len(perms)
    tm = build_transition(space, invariant_model(grid, seed), PolicySpec("nadap", alpha=alpha, boundary=boundary))
    P = tm.to_dense()
    arr = space.as_array()
    for g in perms:
        moved = space.permuted_ranks(g)
        images = np.empty_like(arr)
        images[:, g] = arr
        assert moved.tolist() == ranks(space, images).tolist()
        assert np.abs(P[np.ix_(moved, moved)] - P).max() <= 1e-15
    reps, orbit = np.unique(brute_orbits(space), return_inverse=True)
    if len(reps) == space.size:
        assert tm.orbit is None and tm.reps is None
    else:
        assert (tm.reps.tolist(), tm.orbit.tolist()) == (reps.tolist(), orbit.tolist())


@SLOW
@given(spaces(), st.integers(0, 2**16), st.sampled_from(["renormalize", "lost"]))
@example(LARGEST, 4, "renormalize")
@example(StateSpace(build_grid(2, 3), 3, 2), 5, "lost")
def test_orbit_sweep_and_lumped_solve_match_the_full_chain(space, seed, boundary):
    tm = build_transition(space, invariant_model(space.grid, seed), PolicySpec("nadap", alpha=0.8, boundary=boundary))
    assume(tm.orbit is not None and check_irreducible(tm))
    pi = stationary_distribution(tm).pi
    assert np.abs(pi - gth_solve_scalar(tm.to_dense())).max() <= 1e-12
    args = (tm, pi, [0.3, 0.02, 1e-4], 5000)
    got, want = mixing_analysis(*args), mixing_curve_loop(*args)
    assert len(got.d_curve) == len(want.d_curve) and got.tau == want.tau
    assert np.abs(got.d_curve - want.d_curve).max() <= 1e-12
    assert (got.exhaustive, got.start_count) == (True, space.size)


@pytest.mark.parametrize("label, change", [
    ("rand:NESW", None), ("greedy", None), ("greedy:pool", None),
    ("nadap:0.8", "p"), ("nadap:0.8:lost", "p"), ("nadap:0.8", "w"),
])
def test_chains_without_symmetry_keep_the_full_path_and_its_bytes(label, change):
    """rand, greedy, or one model entry moved by an ulp: no orbit labels, every start stepped."""
    g = build_grid(3, 3)
    space = StateSpace(g, m=3, c=2)
    model = uniform_request_model(g, 0.01)
    if change is not None:
        p, w = model.p.copy(), model.w.copy()
        entry = {"p": p, "w": w}[change]
        entry[0, 1] = np.nextafter(entry[0, 1], np.inf)
        model = RequestModel(g, p, w)
    tm = build_transition(space, model, parse_policy(label))
    assert tm.orbit is None and tm.reps is None
    res = stationary_distribution(tm)
    assert res.pi.tobytes() == _gth_solve(tm.to_dense()).tobytes()
    args = (tm, res.pi, [0.3, 0.02], 5000)
    got, want = mixing_analysis(*args), mixing_curve_loop(*args)
    assert got.d_curve.tobytes() == want.d_curve.tobytes()
    assert (got.tau, got.start_count) == (want.tau, space.size)
