"""Dispatch rules: probe laws, serving feasibility, and per-state expected profit."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from dispatchlab.grid import build_grid, uniform_request_model
from dispatchlab.policies import (
    ALL_PHIS,
    PHI_CLOCKWISE,
    PolicySpec,
    candidate_table,
    parse_policy,
    serving_locations,
)
from oracles import (
    can_serve,
    dispatch,
    expected_step_profit,
    greedy_candidates,
    nadap_probe_weights,
    rand_scan_order,
    serving_location,
)


def test_parse_policy_grammar():
    p = parse_policy("nadap:0.8")
    assert p.kind == "nadap" and p.alpha == 0.8 and p.boundary == "renormalize"
    assert parse_policy("nadap:0.5:lost").boundary == "lost"
    assert parse_policy("nadap:0.5:renorm").boundary == "renormalize"
    r = parse_policy("rand:SWEN")
    assert r.kind == "rand" and r.phi == ("S", "W", "E", "N")
    assert parse_policy("greedy").origin_first
    assert not parse_policy("greedy:pool").origin_first
    for bad in ("nadap", "nadap:0", "nadap:1.5", "rand:XYZW", "rand:NNEE", "unknown", ""):
        with pytest.raises(ValueError):
            parse_policy(bad)


def test_policy_labels_roundtrip():
    for text in ("nadap:0.8", "nadap:0.5:lost", "rand:NESW", "rand:SWEN", "greedy", "greedy:pool"):
        assert parse_policy(parse_policy(text).label()) == parse_policy(text)


def test_all_phis_enumerates_permutations():
    assert len(ALL_PHIS) == 24
    assert PHI_CLOCKWISE in ALL_PHIS


def test_can_serve_feasibility():
    # origin must hold a driver; destination must have room unless it is the origin
    assert can_serve((1, 0), 0, 1, 1)
    assert not can_serve((0, 1), 0, 1, 1)
    assert not can_serve((1, 1), 0, 1, 1)  # destination full
    assert can_serve((1, 1), 0, 0, 1)  # self-trip ignores room
    assert can_serve((1, 1), 1, 1, 1)


def test_nadap_probe_weights_renormalize():
    g = build_grid(2, 2)
    # corner cell: two in-grid neighbors share the leftover mass
    weights = dict(nadap_probe_weights(g, 0, 0.8, "renormalize"))
    assert weights[0] == pytest.approx(0.8)
    assert weights[g.neighbors(0)[0]] == pytest.approx(0.1)
    assert weights[g.neighbors(0)[1]] == pytest.approx(0.1)
    assert sum(weights.values()) == pytest.approx(1.0)
    assert None not in weights


def test_nadap_probe_weights_lost():
    g = build_grid(2, 2)
    # corner cell: two compass directions point off-grid and their mass is lost
    out = nadap_probe_weights(g, 0, 0.8, "lost")
    weights = {}
    for loc, wgt in out:
        weights[loc] = weights.get(loc, 0) + wgt
    assert weights[0] == pytest.approx(0.8)
    for v in g.neighbors(0):
        assert weights[v] == pytest.approx(0.05)
    assert weights[None] == pytest.approx(0.1)


def test_nadap_probe_weights_exact_fractions():
    g = build_grid(2, 2)
    out = nadap_probe_weights(g, 0, Fraction(4, 5), "renormalize")
    assert all(isinstance(wgt, Fraction) for _loc, wgt in out)
    assert sum(wgt for _loc, wgt in out) == 1


def test_nadap_interior_cell_boundary_modes_agree():
    # all four neighbors in-grid: renormalize and lost coincide
    g = build_grid(3, 3)
    a = sorted((loc, float(wgt)) for loc, wgt in nadap_probe_weights(g, 4, 0.8, "renormalize"))
    b = sorted((loc, float(wgt)) for loc, wgt in nadap_probe_weights(g, 4, 0.8, "lost"))
    assert a == b


def test_rand_scan_order_lists_neighbors_in_phi_order():
    g = build_grid(2, 2)
    # off-grid compass directions are skipped; origin is probed separately
    assert rand_scan_order(g, 0, ("N", "E", "S", "W")) == [1, 2]
    assert rand_scan_order(g, 3, ("S", "W", "E", "N")) == [2, 1]
    assert rand_scan_order(build_grid(1, 1), 0, ("N", "E", "S", "W")) == []
    # the package's candidate rows: the origin, then the same scan, padded with the origin
    assert candidate_table(PolicySpec("rand", phi=("N", "E", "S", "W")), g)[0].tolist() == [0, 1, 2, 0, 0]
    assert candidate_table(PolicySpec("rand", phi=("S", "W", "E", "N")), g)[3].tolist() == [3, 2, 1, 3, 3]
    assert candidate_table(PolicySpec("rand", phi=PHI_CLOCKWISE), build_grid(1, 1)).tolist() == [[0] * 5]


def test_rand_dispatch_takes_first_occupied():
    g = build_grid(2, 2)
    model = uniform_request_model(g, 0.0625, weights=1)
    policy = parse_policy("rand:NESW")
    # origin empty, east neighbor occupied
    out = dispatch([0, 1, 1, 0], (0, 3), model, policy, c=2)
    assert out.chosen == 1 and out.success and out.profit == 1
    # fully empty neighborhood rejects
    out = dispatch([0, 0, 0, 2], (0, 0), model, policy, c=2)
    assert out.chosen is None and not out.success and out.profit == 0


def test_rand_dispatch_respects_capacity():
    g = build_grid(2, 2)
    model = uniform_request_model(g, 0.0625, weights=1)
    policy = parse_policy("rand:NESW")
    # serving driver found but destination is full: request lost
    out = dispatch([1, 0, 0, 2], (0, 3), model, policy, c=2)
    assert out.chosen == 0 and not out.success


def test_greedy_prefers_origin_then_fullest():
    g = build_grid(2, 2)
    state = [0, 1, 2, 0]
    # origin first even when a neighbor holds more drivers
    assert greedy_candidates(g, [1, 0, 2, 0], 0, origin_first=True)[0] == 0
    # among neighbors, the fuller one comes first; clockwise breaks ties
    cands = greedy_candidates(g, state, 0, origin_first=True)
    assert cands == [0, 2, 1]
    tie = greedy_candidates(g, [0, 1, 1, 0], 0, origin_first=True)
    assert tie == [0, 1, 2]


def test_greedy_pool_ranks_origin_with_neighbors():
    g = build_grid(2, 2)
    # pool mode lets a fuller neighbor outrank the origin
    cands = greedy_candidates(g, [1, 0, 2, 0], 0, origin_first=False)
    assert cands == [2, 0, 1]
    # ties still favor the origin, then clockwise neighbors
    assert greedy_candidates(g, [1, 1, 1, 0], 0, origin_first=False) == [0, 1, 2]


def test_serving_location_deterministic_policies():
    g = build_grid(2, 2)
    assert serving_location([0, 1, 1, 0], 0, parse_policy("rand:NESW"), g) == 1
    assert serving_location([0, 1, 2, 0], 0, parse_policy("greedy"), g) == 2
    assert serving_location([0, 0, 0, 1], 0, parse_policy("greedy"), g) is None
    # the array form, one row per state
    counts = np.array([[0, 1, 1, 0], [0, 1, 2, 0], [0, 0, 0, 1]])
    assert serving_locations(parse_policy("rand:NESW"), g, counts[:1], 0).tolist() == [1]
    assert serving_locations(parse_policy("greedy"), g, counts[1:], 0).tolist() == [2, -1]


@pytest.mark.parametrize("shape", [(3, 3), (1, 3), (1, 1)])
def test_nadap_coin_map_matches_probe_weights(shape):
    """The coin -> location map of nadap realizes nadap_probe_weights.

    N evenly spaced midpoint coins land on each location (-1 for none) in
    the share its probe weight gives, up to the slice-edge rounding of a
    few coins in N.  The array map steps the coins; the test below ties it
    to the scalar map.
    """
    N, tol = 240_000, 1e-4
    g = build_grid(*shape)
    coins = (np.arange(N) + 0.5) / N
    for alpha in (0.6, 0.8, 1.0):
        for boundary in ("renormalize", "lost"):
            policy = PolicySpec("nadap", alpha=alpha, boundary=boundary)
            for u in range(g.n):
                locs, counts = np.unique(serving_locations(policy, g, None, u, coins), return_counts=True)
                hits = Counter(dict(zip(locs.tolist(), counts.tolist())))
                expected = Counter()
                for loc, wgt in nadap_probe_weights(g, u, alpha, boundary):
                    expected[-1 if loc is None else loc] += wgt
                for loc in set(hits) | set(expected):
                    assert abs(hits[loc] / N - expected[loc]) <= tol, (alpha, boundary, u, loc)


@pytest.mark.parametrize("shape", [(3, 3), (1, 3), (1, 1)])
def test_nadap_coin_map_arrays_match_the_scalar_map(shape):
    """The array coin map is the scalar map's float expression, slice edges included."""
    g = build_grid(*shape)
    spaced = np.linspace(0.0, 1.0, 4001)[:-1]
    for alpha in (0.6, 0.8, 0.7, 1.0, Fraction(3, 4)):
        a = float(alpha)
        edges = [a + (1 - a) * i / d for d in (1, 2, 3, 4) for i in range(d)]
        near = [np.nextafter(x, y) for x in edges for y in (0.0, 1.0)]
        coins = np.array([x for x in [*spaced, *edges, *near] if 0 <= x < 1])
        for boundary in ("renormalize", "lost"):
            policy = PolicySpec("nadap", alpha=alpha, boundary=boundary)
            for u in range(g.n):
                got = serving_locations(policy, g, None, np.full(len(coins), u), coins)
                want = [serving_location([0] * g.n, u, policy, g, coin) for coin in coins.tolist()]
                assert got.tolist() == [-1 if k is None else k for k in want], (alpha, boundary, u)


def test_nadap_dispatch_uses_single_coin():
    g = build_grid(2, 2)
    model = uniform_request_model(g, 0.0625, weights=1)
    policy = parse_policy("nadap:0.8")

    class FixedRng:
        def __init__(self, value):
            self.value = value

        def random(self):
            return self.value

    # coin below alpha probes the origin
    out = dispatch([1, 1, 0, 0], (0, 1), model, policy, c=2, rng=FixedRng(0.5))
    assert out.chosen == 0 and out.success
    # coin in the first neighbor slice probes that neighbor
    out = dispatch([1, 1, 0, 0], (0, 1), model, policy, c=2, rng=FixedRng(0.85))
    assert out.chosen == g.neighbors(0)[0]
    # without a coin source nadap has no serving location
    with pytest.raises(ValueError):
        dispatch([1, 1, 0, 0], (0, 1), model, policy, c=2)
    with pytest.raises(ValueError):
        serving_location([1, 1, 0, 0], 0, policy, g)


def test_expected_step_profit_closed_form_case():
    # every location holds a driver and every destination has room:
    # nadap(0.8) serves any request, so the expected profit is total mass
    g = build_grid(2, 2)
    model = uniform_request_model(g, Fraction(1, 16), weights=1)
    esp = expected_step_profit((1, 1, 0, 0), model, parse_policy("nadap:1"), c=2)
    # alpha=1 probes only origins; occupied origins serve, empty ones fail
    # requests from 0 or 1 succeed (8 pairs at 1/16 each)
    assert esp == Fraction(1, 2)


def test_expected_step_profit_exact_type_preserved():
    g = build_grid(2, 2)
    model = uniform_request_model(g, Fraction(1, 16), weights=Fraction(1))
    policy = PolicySpec(kind="nadap", alpha=Fraction(4, 5))
    esp = expected_step_profit((2, 0, 0, 0), model, policy, c=2)
    assert isinstance(esp, Fraction)
    # only location 0 holds drivers: requests out of 0 succeed on the origin
    # probe (4 pairs, weight 4/5); requests out of 1 or 2 can reach 0 on a
    # neighbor probe (8 pairs, weight (1/5)/2 each)
    assert esp == 4 * Fraction(1, 16) * Fraction(4, 5) + 8 * Fraction(1, 16) * Fraction(1, 10)
    assert esp == Fraction(1, 4)


def test_expected_step_profit_matches_monte_carlo():
    """Seeded simulation of dispatch agrees with the analytic per-state profit."""
    g = build_grid(2, 2)
    model = uniform_request_model(g, 0.05, weights=1)
    rng = np.random.default_rng(2024)
    flat = model.p.astype(float).ravel()
    cum = np.cumsum(flat)
    for label in ("nadap:0.7", "rand:ESWN", "greedy"):
        policy = parse_policy(label)
        state = (1, 0, 1, 0)
        esp = float(expected_step_profit(state, model, policy, c=2))
        total = 0.0
        trials = 40000
        draws = rng.random(trials)
        coins = rng.random(trials)
        for i in range(trials):
            r = int(np.searchsorted(cum, draws[i], side="right"))
            if r >= 16:
                continue
            u, v = divmod(r, 4)

            class OneCoin:
                def __init__(self, value):
                    self.value = value

                def random(self):
                    return self.value

            out = dispatch(list(state), (u, v), model, policy, c=2, rng=OneCoin(coins[i]))
            total += out.profit
        mc = total / trials
        assert abs(mc - esp) < 0.01, (label, mc, esp)
