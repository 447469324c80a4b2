"""Exact chain construction, stationary analysis, mixing, and closed forms."""

import math
from fractions import Fraction

import numpy as np
import pytest

from dispatchlab import chain
from dispatchlab.chain import (
    DENSE_SOLVE_LIMIT,
    MIXING_SIZE_LIMIT,
    build_occupancy_pair_chain,
    build_transition,
    check_aperiodic,
    check_irreducible,
    eta_map,
    exact_error_curves,
    gamma_map,
    limiting_objective,
    mixing_analysis,
    stationary_distribution,
    uniform_availability,
    uniform_average_gap_bound,
    uniform_closed_form_objective,
    uniform_decay_envelope,
    uniform_mixing_bound,
    uniform_profit_gap_bound,
)
from dispatchlab.errors import HorizonTooShortError, IterationLimitError, SizeLimitError
from dispatchlab.grid import build_grid, request_model_from_pairs, uniform_request_model
from dispatchlab.policies import PolicySpec, parse_policy, step_profit
from dispatchlab.rng import stream
from dispatchlab.states import StateSpace
from oracles import (
    build_transition_from_policy,
    expected_step_profit,
    gth_solve_scalar,
    kernel_from_rows,
    limiting_objective_gamma,
    matrix_gap_series,
    mixing_curve_loop,
    same_transitions,
    unrank,
)


def toy_two_cell_chain():
    """1x2 grid, one driver, unit capacity, uniform exact arrivals, origin-only probes."""
    g = build_grid(1, 2)
    space = StateSpace(g, m=1, c=1)
    model = uniform_request_model(g, Fraction(1, 4), weights=Fraction(1))
    tm = build_transition(space, model, PolicySpec("nadap", alpha=Fraction(1)))
    return space, model, tm


def test_toy_chain_is_exactly_symmetric_random_walk():
    space, _model, tm = toy_two_cell_chain()
    assert space.size == 2
    assert tm.exact
    # the driver moves only on the single cross request, mass 1/4
    assert tm.entry(0, 0) == Fraction(3, 4)
    assert tm.entry(0, 1) == Fraction(1, 4)
    assert tm.entry(1, 0) == Fraction(1, 4)
    assert tm.entry(1, 1) == Fraction(3, 4)
    assert tm.row_sum_error() == 0


def test_toy_chain_stationary_and_maps():
    space, _model, tm = toy_two_cell_chain()
    res = stationary_distribution(tm)
    assert np.allclose(res.pi, [0.5, 0.5], atol=1e-14)
    assert res.residual <= 1e-14
    assert res.method == "elimination"
    # gamma[u, u] is bare driver presence; off-diagonal adds room at v
    assert np.allclose(gamma_map(space, res.pi), [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)
    # both cells are within reach of either cell, so eta reduces to room at v
    assert np.allclose(eta_map(space, res.pi), [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)


def test_solves_and_sweeps_compute_no_occupancy_map(monkeypatch):
    """The solve returns pi and the sweeps their curves; the occupancy maps are built only where asked."""

    def refuse(*_args):
        raise AssertionError("an occupancy map was built")

    monkeypatch.setattr(chain, "gamma_map", refuse)
    monkeypatch.setattr(chain, "eta_map", refuse)
    g = build_grid(2, 2)
    space = StateSpace(g, m=2, c=2)
    model = uniform_request_model(g, 0.0625, weights=1)
    policy = parse_policy("nadap:0.8")
    tm = build_transition(space, model, policy)
    res = stationary_distribution(tm)
    mixing_analysis(tm, res.pi, [0.01], t_max=1000)
    exact_error_curves(tm, model, policy, (2, 0, 0, 0), 20)


def test_gamma_eta_maps_on_asymmetric_law():
    g = build_grid(1, 2)
    space = StateSpace(g, m=1, c=1)
    # ranks are lexicographic: state 0 = (0, 1), state 1 = (1, 0)
    pi = np.array([0.75, 0.25])
    gm = gamma_map(space, pi)
    assert gm[0, 0] == pytest.approx(0.25)  # driver at 0
    assert gm[0, 1] == pytest.approx(0.25)  # driver at 0 and room at 1
    assert gm[1, 1] == pytest.approx(0.75)
    assert gm[1, 0] == pytest.approx(0.75)
    em = eta_map(space, pi)
    # a driver is always within reach on this grid, so eta is room alone
    assert em[0, 0] == pytest.approx(0.75)
    assert em[0, 1] == pytest.approx(0.25)


def test_probe_rate_matrix_renormalize_and_lost():
    """nadap's probe rates, read off the chain of one unit-capacity driver.

    With m = c = 1 a state is the driver's location, so the entry u -> v is
    the rate q[u, v] at which a probe moves the driver from u to v.
    """
    g = build_grid(2, 2)
    space = StateSpace(g, m=1, c=1)
    model = uniform_request_model(g, Fraction(1, 16), weights=Fraction(1))
    at = [space.rank([int(k == u) for k in range(g.n)]) for u in range(g.n)]

    def rates(boundary):
        policy = PolicySpec("nadap", alpha=Fraction(4, 5), boundary=boundary)
        tm = build_transition(space, model, policy)
        return {tm.entry(at[u], at[v]) for u in range(g.n) for v in range(g.n) if u != v}

    # q[u, v] = alpha p[u, v] + sum over neighbors k of u of (1 - alpha)/|N(k)| p[k, v]
    expect = Fraction(4, 5) * Fraction(1, 16) + 2 * Fraction(1, 5, ) / 2 * Fraction(1, 16)
    assert rates("renormalize") == {expect}
    # all 16 rates are equal, so the total successful-probe mass is the full arrival mass
    assert 16 * expect == 1
    (lost,) = rates("lost")
    # every cell of the 2x2 grid loses two compass directions
    assert 16 * lost == 1 - Fraction(1, 5) * Fraction(1, 2)


def test_nadap_builder_matches_definitional_builder_exactly():
    for rows, cols, m, c in ((1, 2, 2, 2), (2, 2, 2, 2), (2, 2, 3, 2), (1, 3, 2, 1)):
        g = build_grid(rows, cols)
        space = StateSpace(g, m=m, c=c)
        model = uniform_request_model(g, Fraction(1, g.n * g.n * 2), weights=Fraction(1))
        for alpha, boundary in ((Fraction(1, 2), "renormalize"), (Fraction(1), "renormalize"), (Fraction(4, 5), "lost")):
            spec = PolicySpec("nadap", alpha=alpha, boundary=boundary)
            fast = build_transition(space, model, spec)
            slow = build_transition_from_policy(space, model, spec)
            assert fast.exact and slow.exact
            assert same_transitions(fast, slow, tol=0), (rows, cols, m, c, alpha, boundary)


def test_rand_builder_matches_definitional_builder_exactly():
    from dispatchlab.policies import ALL_PHIS

    g = build_grid(2, 2)
    space = StateSpace(g, m=2, c=2)
    model = uniform_request_model(g, Fraction(1, 16), weights=Fraction(1))
    for phi in ALL_PHIS[:6] + (("N", "E", "S", "W"), ("W", "S", "E", "N")):
        spec = PolicySpec("rand", phi=tuple(phi))
        fast = build_transition(space, model, spec)
        slow = build_transition_from_policy(space, model, spec)
        assert same_transitions(fast, slow, tol=0), phi


def test_builders_agree_on_nonuniform_model():
    g = build_grid(2, 2)
    space = StateSpace(g, m=2, c=2)
    rates = {
        (0, 1): Fraction(1, 8),
        (1, 0): Fraction(1, 16),
        (2, 3): Fraction(1, 4),
        (3, 0): Fraction(1, 16),
    }
    weights = {(0, 1): 2, (1, 0): 1, (2, 3): 3, (3, 0): 5}
    model = request_model_from_pairs(g, rates, weights=weights)
    fast = build_transition(space, model, PolicySpec("nadap", alpha=Fraction(3, 4)))
    slow = build_transition_from_policy(space, model, PolicySpec("nadap", alpha=Fraction(3, 4)))
    assert same_transitions(fast, slow, tol=0)


def test_uniform_square_instance_has_uniform_stationary_law():
    g = build_grid(2, 2)
    space = StateSpace(g, m=2, c=2)
    model = uniform_request_model(g, Fraction(1, 16), weights=1)
    tm = build_transition(space, model, PolicySpec("nadap", alpha=0.8))
    res = stationary_distribution(tm)
    assert space.size == 10
    assert np.abs(res.pi - 0.1).max() < 1e-10
    obj = limiting_objective(res, model, parse_policy("nadap:0.8"))
    assert abs(obj - 0.4) < 1e-10
    closed = uniform_closed_form_objective(g.n, 2, 1 / 16, float(model.sum_w))
    assert abs(obj - closed) < 1e-10
    assert uniform_availability(4, 2) == Fraction(2, 5)


def test_stationary_matches_eigenvector_oracle():
    """Elimination solve agrees with a numpy left-eigenvector computation."""
    g = build_grid(2, 2)
    space = StateSpace(g, m=2, c=2)
    rng = stream(321)
    p = rng.random((4, 4)) * 0.05
    w = 1.0 + rng.random((4, 4))
    model = request_model_from_pairs(
        g, {(u, v): p[u, v] for u in range(4) for v in range(4)}, weights=w
    )
    tm = build_transition(space, model, PolicySpec("nadap", alpha=0.7))
    res = stationary_distribution(tm)
    P = tm.to_dense()
    vals, vecs = np.linalg.eig(P.T)
    k = int(np.argmin(np.abs(vals - 1.0)))
    pi_eig = np.real(vecs[:, k])
    pi_eig = pi_eig / pi_eig.sum()
    assert np.abs(res.pi - pi_eig).max() < 1e-10
    assert res.residual < 1e-12


def test_stationary_reports_power_iterations():
    # greedy's fixed candidate order breaks the grid's symmetry, so the full chain is iterated
    g = build_grid(4, 4)
    tm = build_transition(StateSpace(g, m=4, c=2), uniform_request_model(g, 0.00390625), parse_policy("greedy"))
    assert tm.size > DENSE_SOLVE_LIMIT and tm.orbit is None
    res = stationary_distribution(tm)
    assert res.method == "power" and res.iterations > 1
    # exactly that many steps: one fewer falls short of the tolerance
    again = stationary_distribution(tm, max_iter=res.iterations)
    assert (again.iterations, again.pi.tobytes()) == (res.iterations, res.pi.tobytes())
    with pytest.raises(IterationLimitError):
        stationary_distribution(tm, max_iter=res.iterations - 1)
    small = stationary_distribution(toy_two_cell_chain()[2])
    assert (small.method, small.iterations) == ("elimination", 0)


@pytest.mark.parametrize("label", ["greedy", "rand:NESW", "nadap:0.8"])
def test_power_and_error_curves_step_the_transpose_as_x_at_p(monkeypatch, label):
    """``P.T @ x`` on the CSC view of the kernel's CSR gives the bytes of an ``x @ P`` loop.

    nadap's orbit labels are dropped, so its full chain is iterated too.
    """
    monkeypatch.setattr(chain, "DENSE_SOLVE_LIMIT", 10)
    g = build_grid(3, 3)
    space = StateSpace(g, m=3, c=2)
    model = uniform_request_model(g, 0.01)
    policy = parse_policy(label)
    tm = build_transition(space, model, policy)
    tm.orbit = tm.reps = None
    res = stationary_distribution(tm)
    P = tm.to_csr()
    pi = np.full(space.size, 1.0 / space.size)
    for _ in range(res.iterations):
        nxt = pi @ P
        nxt /= nxt.sum()
        residual = float(np.abs(nxt - pi).sum())
        pi = nxt
    assert (res.method, res.pi.tobytes(), res.residual) == ("power", pi.tobytes(), residual)
    curves = exact_error_curves(tm, model, policy, space.as_array()[0], 40, stationary=res)
    esp = step_profit(space.as_array(), model, policy, space.c)
    mu = np.zeros(space.size)
    mu[0] = 1.0
    w_t = []
    for _ in range(40):
        w_t.append(mu @ esp)
        mu = mu @ P
    assert curves.w_t.tobytes() == np.array(w_t).tobytes()


def test_lumped_power_solve_matches_elimination(monkeypatch):
    """Above the dense limit, counted in orbits, the lumped chain is power-iterated."""
    g = build_grid(2, 3)
    space = StateSpace(g, m=3, c=2)
    tm = build_transition(space, uniform_request_model(g, 0.025), parse_policy("nadap:0.8"))
    assert (space.size, tm.orbit_count) == (50, 14)
    monkeypatch.setattr(chain, "DENSE_SOLVE_LIMIT", 13)
    res = stationary_distribution(tm)
    assert res.method == "power" and res.iterations > 1
    assert np.abs(res.pi - gth_solve_scalar(tm.to_dense())).max() <= 1e-10
    assert np.abs(tm.to_csr().T @ res.pi - res.pi).sum() <= 1e-11


def test_limiting_objective_routes_match_across_policies():
    """The gamma-map closed path of the oracles equals the package's pi-weighted per-state profit.

    The lost boundary on 2x3 drops the off-grid probe mass at every edge
    cell, which the gamma route must leave out as well.
    """
    cases = (("nadap:0.8", (2, 2), 2, 2, 0.05), ("nadap:0.8:lost", (2, 3), 2, 1, 0.025))
    for label, (rows, cols), m, c, rate in cases:
        g = build_grid(rows, cols)
        space = StateSpace(g, m=m, c=c)
        model = uniform_request_model(g, rate, weights=1)
        policy = parse_policy(label)
        res = stationary_distribution(build_transition(space, model, policy))
        objective = limiting_objective(res, model, policy)
        esp = step_profit(space.as_array(), model, policy, space.c)
        assert objective == float(res.pi @ esp), label
        assert abs(limiting_objective_gamma(res, model, policy) - objective) < 1e-12, label


def test_limiting_objective_rejects_policy_mismatch():
    _space, model, tm = toy_two_cell_chain()
    res = stationary_distribution(tm)
    with pytest.raises(ValueError):
        limiting_objective(res, model, parse_policy("rand:NESW"))


def test_esp_profile_matches_pointwise_profit():
    g = build_grid(2, 2)
    space = StateSpace(g, m=3, c=2)
    rng = stream(77)
    p = rng.random((4, 4)) * 0.04
    w = rng.random((4, 4)) * 3
    model = request_model_from_pairs(
        g, {(u, v): p[u, v] for u in range(4) for v in range(4)}, weights=w
    )
    for label in ("nadap:0.6", "nadap:0.6:lost", "rand:SENW", "greedy", "greedy:pool"):
        policy = parse_policy(label)
        prof = step_profit(space.as_array(), model, policy, space.c)
        for ix in range(space.size):
            direct = float(expected_step_profit(unrank(space, ix), model, policy, space.c))
            assert prof[ix] == direct, (label, ix)


def test_irreducible_and_aperiodic_for_supported_models():
    g = build_grid(2, 2)
    space = StateSpace(g, m=2, c=2)
    model = uniform_request_model(g, 0.0625, weights=1)
    for policy in (parse_policy("nadap:0.8"), parse_policy("rand:NESW"), parse_policy("greedy")):
        tm = build_transition_from_policy(space, model, policy)
        assert check_irreducible(tm)
        assert check_aperiodic(tm)


def test_periodic_permutation_chain_is_caught():
    g = build_grid(1, 2)
    space = StateSpace(g, m=1, c=1)
    swap = kernel_from_rows(space, [{1: 1.0}, {0: 1.0}], None, False)
    assert check_irreducible(swap)
    assert not check_aperiodic(swap)
    frozen = kernel_from_rows(space, [{0: 1.0}, {1: 1.0}], None, False)
    assert not check_irreducible(frozen)
    assert check_aperiodic(frozen)


def test_zero_diagonal_entries_are_no_self_loops():
    """A stored zero on the diagonal neither settles a period nor makes a state periodic."""
    space = StateSpace(build_grid(1, 2), m=1, c=1)
    swap = kernel_from_rows(space, [{0: 0.0, 1: 1.0}, {0: 1.0, 1: 0.0}], None, False)
    assert check_irreducible(swap)
    assert not check_aperiodic(swap)
    exact = kernel_from_rows(space, [{0: Fraction(0), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(0)}], None, True)
    assert check_irreducible(exact) and not check_aperiodic(exact)
    # state 0 keeps only a zero diagonal entry: no positive transition, so no period
    stuck = kernel_from_rows(space, [{0: 0.0}, {0: 0.5, 1: 0.5}], None, False)
    assert not check_irreducible(stuck)
    assert check_aperiodic(stuck)


def test_to_csr_holds_a_float_kernels_values_without_a_copy():
    space = StateSpace(build_grid(1, 2), m=1, c=1)
    rows = [{0: Fraction(1, 3), 1: Fraction(2, 3)}, {0: Fraction(1)}]
    floats = kernel_from_rows(space, [{j: float(p) for j, p in row.items()} for row in rows], None, False)
    assert np.shares_memory(floats.data, floats.to_csr().data)
    exact = kernel_from_rows(space, rows, None, True)
    assert exact.to_csr().data.tolist() == floats.data.tolist() == [1 / 3, 2 / 3, 1.0]


def aperiodic_by_powers(edges: np.ndarray) -> bool:
    """Every state's return times t <= 2 size^2 have gcd 0 or 1, read off boolean powers of the edge matrix."""
    size = len(edges)
    A = edges.astype(np.int64)
    reach = np.eye(size, dtype=np.int64)
    period = np.zeros(size, dtype=np.int64)
    for t in range(1, 2 * size * size + 1):
        reach = np.minimum(reach @ A, 1)
        period = np.where(np.diag(reach) > 0, np.gcd(period, t), period)
    return bool((period <= 1).all())


def edge_chain(edges: np.ndarray):
    """A kernel with the given positive-entry pattern, each row spread evenly over its edges."""
    size = len(edges)
    space = StateSpace(build_grid(1, size), m=1, c=1)
    rows = [{int(j): 1.0 / row.sum() for j in np.flatnonzero(row)} for row in edges]
    return kernel_from_rows(space, rows, None, False)


def edge_matrix(size: int, pairs) -> np.ndarray:
    edges = np.zeros((size, size), dtype=bool)
    for a, b in pairs:
        edges[a, b] = True
    return edges


@pytest.mark.parametrize("size, pairs, aperiodic", [
    (3, [(0, 1), (1, 2), (2, 0)], False),  # a 3-cycle
    (4, [(0, 1), (1, 0), (0, 2), (2, 3), (3, 0)], True),  # a 2-cycle and a 3-cycle through state 0, no self-loop
    # a periodic transient class {0, 1} above an aperiodic closed class {2, 3, 4} with no self-loop
    (5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4), (4, 2)], False),
    (5, [(0, 0), (0, 1), (1, 2), (2, 3), (3, 2)], False),  # aperiodic transient state above a periodic closed class
    (3, [(0, 1), (1, 1)], True),  # state 2 has no transitions
    (1, [], True),
])
def test_period_search_matches_matrix_powers_on_named_digraphs(size, pairs, aperiodic):
    edges = edge_matrix(size, pairs)
    assert aperiodic_by_powers(edges) == aperiodic
    assert check_aperiodic(edge_chain(edges)) == aperiodic


def test_period_search_matches_matrix_powers_on_random_digraphs():
    rng = np.random.default_rng(2024)
    outcomes = set()
    for _ in range(400):
        size = int(rng.integers(1, 9))
        density = rng.uniform(0.1, 0.6)
        edges = rng.random((size, size)) < density
        # self-loops settle a class before any search, so draw few of them
        np.fill_diagonal(edges, rng.random(size) < density / 8)
        want = aperiodic_by_powers(edges)
        assert check_aperiodic(edge_chain(edges)) == want, edges.astype(int).tolist()
        outcomes.add((want, bool(edges.diagonal().any())))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def class_row(classes: int, periodic: int | None) -> list[tuple[int, int]]:
    """Four-state classes in a row, each with an edge into the next: a 4-cycle, plus a 3-cycle but in ``periodic``."""
    pairs = []
    for k in range(classes):
        s = 4 * k
        pairs += [(s, s + 1), (s + 1, s + 2), (s + 2, s + 3), (s + 3, s)]
        if k != periodic:
            pairs.append((s + 2, s))
        if k + 1 < classes:
            pairs.append((s + 3, s + 4))
    return pairs


@pytest.mark.parametrize("periodic", [None, 0, 350, 699])
def test_period_search_over_many_classes(periodic):
    """700 classes of 2,800 states, with at most one of period 4 among aperiodic ones."""
    assert aperiodic_by_powers(edge_matrix(4, class_row(1, None)))
    assert not aperiodic_by_powers(edge_matrix(4, class_row(1, 0)))
    tm = edge_chain(edge_matrix(2800, class_row(700, periodic)))
    assert chain._components(tm)[0] == 700
    assert check_aperiodic(tm) == (periodic is None)


def test_mixing_curve_matches_toy_closed_form():
    _space, _model, tm = toy_two_cell_chain()
    res = stationary_distribution(tm)
    report = mixing_analysis(tm, res.pi, [0.25, 0.01], t_max=100)
    # second eigenvalue is 1/2, so d(t) = (1/2)^(t+1) from either start
    t = np.arange(len(report.d_curve))
    assert np.abs(report.d_curve - 0.5 ** (t + 1)).max() < 1e-12
    assert report.tau[0.25] == 1
    assert report.tau[0.01] == 6
    assert report.exhaustive
    assert report.start_count == 2
    # the curve stops as soon as the last threshold is crossed
    assert len(report.d_curve) == 7


def test_mixing_horizon_too_short_carries_partial_curve():
    _space, _model, tm = toy_two_cell_chain()
    res = stationary_distribution(tm)
    with pytest.raises(HorizonTooShortError) as info:
        mixing_analysis(tm, res.pi, [0.01], t_max=3)
    assert len(info.value.d_curve) == 4
    assert np.abs(info.value.d_curve - 0.5 ** np.arange(1, 5)).max() < 1e-12


def test_mixing_start_sample_flagged_non_exhaustive():
    g = build_grid(2, 2)
    space = StateSpace(g, m=2, c=2)
    model = uniform_request_model(g, 0.0625, weights=1)
    tm = build_transition(space, model, PolicySpec("nadap", alpha=0.8))
    res = stationary_distribution(tm)
    full = mixing_analysis(tm, res.pi, [0.01], t_max=1000)
    part = mixing_analysis(tm, res.pi, [0.01], t_max=1000, start_ranks=[0, 3])
    assert full.exhaustive and not part.exhaustive
    assert part.start_count == 2
    # a subset of starts can only lower the worst-case curve
    assert part.tau[0.01] <= full.tau[0.01]


def test_mixing_envelope_check():
    g = build_grid(2, 2)
    space = StateSpace(g, m=2, c=2)
    model = uniform_request_model(g, 0.0625, weights=1)
    tm = build_transition(space, model, PolicySpec("nadap", alpha=0.8))
    res = stationary_distribution(tm)
    env = uniform_decay_envelope(g.n, 2)
    assert env == (4.0, pytest.approx(np.exp(-1 / 16)))
    report = mixing_analysis(tm, res.pi, [0.01], t_max=1000)
    C, beta = env
    assert (report.d_curve <= C * beta ** np.arange(len(report.d_curve)) + 1e-12).all()
    tau_bound = uniform_mixing_bound(g.n, 2, 0.01)
    assert tau_bound == pytest.approx(16 * np.log(400))
    assert report.tau[0.01] <= tau_bound


def test_mixing_size_limit_requires_start_sample():
    g = build_grid(3, 3)
    space = StateSpace(g, m=6, c=6)
    assert space.size > MIXING_SIZE_LIMIT
    ident = kernel_from_rows(space, [{i: 1.0} for i in range(space.size)], None, False)
    pi = np.full(space.size, 1.0 / space.size)
    with pytest.raises(SizeLimitError):
        mixing_analysis(ident, pi, [0.25], t_max=10)


def test_mixing_rejects_bad_arguments():
    _space, _model, tm = toy_two_cell_chain()
    res = stationary_distribution(tm)
    with pytest.raises(ValueError):
        mixing_analysis(tm, res.pi, [0.25], t_max=0)
    with pytest.raises(ValueError):
        mixing_analysis(tm, res.pi, [], t_max=10)
    with pytest.raises(ValueError):
        mixing_analysis(tm, res.pi, [0.25, -0.1], t_max=10)
    # a NaN sorts anywhere; it and inf are refused before the first step of a long horizon
    for eps in ([0.25, math.nan], [math.nan, 0.25], [math.inf]):
        for analysis in (mixing_analysis, mixing_curve_loop):
            with pytest.raises(ValueError, match="positive and finite"):
                analysis(tm, res.pi, eps, t_max=10**9)


def test_mixing_rejects_start_ranks_outside_the_space():
    g = build_grid(2, 2)
    tm = build_transition(StateSpace(g, m=2, c=2), uniform_request_model(g, 0.0625), parse_policy("nadap:0.8"))
    assert tm.size == 10
    pi = stationary_distribution(tm).pi
    for ranks, message in (([-1], r"start rank -1 is outside \[0, 10\)"),
                           ([3, 10, 12], r"start rank 10 is outside \[0, 10\)"),
                           ([], "empty start sample"),
                           (range(-10, 10), r"start rank -10 is outside \[0, 10\)")):
        with pytest.raises(ValueError, match=message):
            mixing_analysis(tm, pi, [0.25], t_max=10, start_ranks=ranks)


def test_exact_error_curves_against_dense_propagation():
    g = build_grid(2, 2)
    space = StateSpace(g, m=2, c=2)
    model = uniform_request_model(g, 0.0625, weights=1)
    policy = parse_policy("nadap:0.8")
    tm = build_transition(space, model, policy)
    res = stationary_distribution(tm)
    x0 = (2, 0, 0, 0)
    T = 60
    curves = exact_error_curves(tm, model, policy, x0, T, stationary=res)
    assert len(curves.w_t) == T
    # oracle: propagate the start row against the dense kernel directly
    P = tm.to_dense()
    esp = step_profit(space.as_array(), model, policy, space.c)
    row = np.zeros(space.size)
    row[space.rank(x0)] = 1.0
    for t in range(T):
        assert abs(curves.w_t[t] - float(row @ esp)) < 1e-12
        row = row @ P
    limit = float(res.pi @ esp)
    assert curves.limit == pytest.approx(limit, abs=1e-14)
    assert np.abs(curves.delta - np.abs(curves.w_t - limit)).max() < 1e-15
    running = np.cumsum(curves.w_t) / np.arange(1, T + 1)
    assert np.abs(curves.obj_running - running).max() < 1e-12
    assert np.abs(curves.delta_hat - np.abs(running - limit)).max() < 1e-15
    # uniform-arrival envelope dominates both exact gap curves
    t_axis = np.arange(T)
    bound = uniform_profit_gap_bound(g.n, 2, float(model.sum_w), t_axis)
    assert (curves.delta <= bound + 1e-12).all()
    avg_bound = uniform_average_gap_bound(g.n, 2, float(model.sum_w), t_axis + 1)
    assert (curves.delta_hat <= avg_bound + 1e-12).all()


# ---------------------------------------------------------------------------
# Watched-pair occupancy chain


def test_occupancy_pair_chain_validation():
    with pytest.raises(ValueError):
        build_occupancy_pair_chain(50, 1)
    with pytest.raises(ValueError):
        build_occupancy_pair_chain(50, 49)
    with pytest.raises(ValueError):
        build_occupancy_pair_chain(3, 2)
    with pytest.raises(ValueError):
        build_occupancy_pair_chain(50.0, 5)
    chain = build_occupancy_pair_chain(50, 5)
    assert chain.gamma == Fraction(5, 50) * Fraction(45, 49)


def test_occupancy_pair_chain_rows_and_stationary_are_exact():
    for n, m in ((50, 5), (10, 3), (6, 2)):
        chain = build_occupancy_pair_chain(n, m)
        for i in range(4):
            assert sum(chain.P[i]) == 1
        # exchangeable occupancy law of the watched pair
        pi = np.array(
            [
                Fraction(m * (n - m), n * (n - 1)),
                Fraction(m * (m - 1), n * (n - 1)),
                Fraction((n - m) * (n - m - 1), n * (n - 1)),
                Fraction(m * (n - m), n * (n - 1)),
            ],
            dtype=object,
        )
        assert sum(pi) == 1
        assert pi[3] == chain.gamma
        residual = pi @ chain.P - pi
        assert all(r == 0 for r in residual)


def test_occupancy_pair_gap_matches_exact_matrix_powers():
    chain = build_occupancy_pair_chain(10, 3)
    row = np.array([Fraction(1), Fraction(0), Fraction(0), Fraction(0)], dtype=object)
    for t in range(25):
        assert chain.gamma - row[3] == chain.gap(t, exact=True), t
        row = row @ chain.P
    # float closed form tracks the exact one
    series = chain.gap_series(24)
    for t in range(25):
        assert abs(series[t] - float(chain.gap(t, exact=True))) < 1e-14


def test_occupancy_pair_gap_matches_float_power_oracle():
    chain = build_occupancy_pair_chain(50, 5)
    T = 500
    oracle = matrix_gap_series(chain, T)
    series = chain.gap_series(T)
    assert np.abs(series - oracle).max() < 1e-12


def test_occupancy_pair_ratio_to_reference():
    chain = build_occupancy_pair_chain(50, 5)
    t = np.array([100.0])
    ratio = chain.ratio_to_reference(t)
    assert ratio[0] == pytest.approx(chain.gap_series(100)[-1] / chain.decay_reference(100))
    # the leading mode dominates for large n: the ratio settles near 1
    big = build_occupancy_pair_chain(2000, 20)
    window = np.arange(10 * 2000, 20 * 2000 + 1)
    r = big.ratio_to_reference(window)
    assert 0.9 <= r.min() and r.max() <= 1.1
