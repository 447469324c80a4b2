"""Optimal dispatch: value iteration, its oracles, and episode measurements."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from dispatchlab.errors import IterationLimitError, SizeLimitError
from dispatchlab.grid import build_grid, uniform_request_model
from dispatchlab.mdp import (
    REJECT,
    MdpInstance,
    bellman_residual,
    compare_policies,
    policy_value,
    simulate_optimal_episode,
    summarize_returns,
    value_iteration,
)
from dispatchlab.policies import parse_policy
from dispatchlab.rng import stream
from oracles import (
    discounted_return,
    dispatch,
    optimal_episode,
    policy_value_loop,
    same_report,
    simulate_policy_episode,
)


def tiny_instance(**overrides):
    g = build_grid(1, 2)
    kwargs = dict(grid=g, m=1, c=1, model=uniform_request_model(g, 0.25, weights=1))
    kwargs.update(overrides)
    return MdpInstance(**kwargs)


def square_instance(**overrides):
    g = build_grid(2, 2)
    kwargs = dict(grid=g, m=1, c=2, model=uniform_request_model(g, 0.0625, weights=None))
    kwargs.update(overrides)
    return MdpInstance(**kwargs)


def test_instance_accounting():
    inst = tiny_instance()
    assert inst.n_requests == 4
    assert inst.state_count == 2 * 5
    assert inst.n_actions == 3  # reject, origin, one neighbor slot
    sq = square_instance()
    assert sq.n_actions == 4
    assert sq.state_count == 4 * 17
    with pytest.raises(ValueError):
        tiny_instance(discount=1.0)
    with pytest.raises(ValueError):
        tiny_instance(discount=0.0)
    with pytest.raises(SizeLimitError):
        square_instance(cap=10)


def test_action_location_semantics():
    inst = square_instance()
    g = inst.grid
    # request (0, 3): reject serves nobody, action 1 is the origin,
    # actions 2.. walk the origin's clockwise neighbor slots
    r = 0 * 4 + 3
    assert inst.action_location(r, REJECT) is None
    assert inst.action_location(r, 1) == 0
    assert inst.action_location(r, 2) == g.neighbors(0)[0]
    assert inst.action_location(r, 3) == g.neighbors(0)[1]
    # the none slot has no serving location at all
    none_slot = inst.n_requests
    for a in range(inst.n_actions):
        assert inst.action_location(none_slot, a) is None


@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 3)])
def test_location_table_is_the_action_definition(shape):
    g = build_grid(*shape)
    inst = MdpInstance(grid=g, m=1, c=1, model=uniform_request_model(g, 1 / g.n**2, weights=1))
    assert inst.n_actions == 2 + max(len(g.neighbors(u)) for u in range(g.n))
    assert inst.locations.shape == (inst.n_requests + 1, inst.n_actions)
    assert not inst.locations.flags.writeable
    for r in range(inst.n_requests + 1):
        want = [None] * inst.n_actions  # reject, and every action of the none slot
        if r < inst.n_requests:
            u = r // g.n
            nbrs = g.neighbors(u)
            want[1:] = [u] + [nbrs[a - 2] if a - 2 < len(nbrs) else None for a in range(2, inst.n_actions)]
        assert inst.locations[r].tolist() == [-1 if k is None else k for k in want]
        assert [inst.action_location(r, a) for a in range(inst.n_actions)] == want


def test_action_location_refuses_slots_and_names_no_location_off_the_action_range():
    g = build_grid(3, 3)
    inst = MdpInstance(grid=g, m=1, c=1, model=uniform_request_model(g, 1 / 81, weights=1))
    centre = 4 * g.n + 0  # request (4, 0); the centre has every neighbor
    assert [inst.action_location(centre, a) for a in range(inst.n_actions)] == [None, 4, 1, 5, 7, 3]
    for action in (-1, -2, -3, -inst.n_actions, inst.n_actions, inst.n_actions + 1):
        assert inst.action_location(centre, action) is None
        assert inst.action_location(inst.n_requests, action) is None
    for request in (-1, -inst.n_requests, inst.n_requests + 1):
        with pytest.raises(ValueError, match="request slot"):
            inst.action_location(request, 1)


def test_request_probs_complete():
    inst = square_instance()
    q = inst.request_probs()
    assert q.shape == (17,)
    assert q.sum() == pytest.approx(1.0)
    assert q[-1] == pytest.approx(1.0 - 16 * 0.0625)
    rich = tiny_instance()
    assert rich.request_probs()[-1] == pytest.approx(0.0)


def test_value_iteration_refuses_a_bad_tolerance_and_reports_its_sweep_cap():
    inst = square_instance()
    for tol in (math.nan, -1.0):
        with pytest.raises(ValueError, match="tolerance must be a number >= 0"):
            value_iteration(inst, tol=tol)
    with pytest.raises(IterationLimitError) as info:
        value_iteration(inst, tol=0.0, max_sweeps=5)
    assert 0 < info.value.residual < math.inf
    assert value_iteration(inst, tol=0.0).residual == 0


def test_value_iteration_solves_twocell_instance_exactly():
    """Every request is servable, so the fixed point is 1/(1 - discount) flat."""
    inst = tiny_instance()
    result = value_iteration(inst, tol=1e-12)
    # states with a pending request are worth 10, the idle slot 9
    expect = np.full((2, 5), 10.0)
    expect[:, 4] = 9.0
    assert np.abs(result.values - expect).max() < 1e-10
    assert result.residual <= 1e-12
    # the policy never rejects a live request
    assert (result.policy[:, :4] != REJECT).all()


def test_vi_policy_matches_its_own_exact_value():
    inst = square_instance()
    result = value_iteration(inst, tol=1e-10)
    direct = policy_value(inst, result.policy)
    assert np.abs(direct - result.values).max() < 1e-6


def test_vi_beats_seeded_random_policies():
    """No randomly drawn action table improves on the value-iteration fixed point."""
    inst = square_instance()
    result = value_iteration(inst, tol=1e-10)
    rng = stream(515)
    legal = np.arange(inst.n_actions)
    for _ in range(150):
        policy = rng.choice(legal, size=result.policy.shape)
        vals = policy_value(inst, policy.astype(np.int64))
        assert (vals <= result.values + 1e-8).all()


def test_policy_value_matches_the_per_slot_loop():
    """One gather and one np.add.at give the per-slot loop's values to the last bit and sign."""
    rng = np.random.default_rng(8)
    g23 = build_grid(2, 3)
    for inst in (tiny_instance(), square_instance(),
                 MdpInstance(grid=g23, m=3, c=2, model=uniform_request_model(g23, 0.025, weights=None))):
        shape = (inst.space.size, inst.n_requests + 1)
        tables = [np.zeros(shape, dtype=np.int64), value_iteration(inst).policy]
        tables += [rng.integers(0, inst.n_actions, shape) for _ in range(20)]
        for table in tables:
            assert policy_value(inst, table).tobytes() == policy_value_loop(inst, table).tobytes()


def test_bellman_residual_certifies_convergence():
    inst = square_instance()
    result = value_iteration(inst, tol=1e-9)
    assert bellman_residual(inst, result.values) <= 1e-9
    # a perturbed table has a visible one-sweep defect
    bumped = result.values + 0.5
    assert bellman_residual(inst, bumped) > 1e-3


def test_vi_sweep_count_scales_with_tolerance():
    inst = square_instance()
    loose = value_iteration(inst, tol=1e-4)
    tight = value_iteration(inst, tol=1e-10)
    assert loose.sweeps < tight.sweeps
    assert loose.residual <= 1e-4 and tight.residual <= 1e-10
    # geometric contraction: the sweep gap matches log(tol ratio)/log(discount)
    predicted = np.log(1e-10 / 1e-4) / np.log(inst.discount)
    assert abs((tight.sweeps - loose.sweeps) - predicted) <= 2


def test_zero_weights_make_rejection_optimal():
    g = build_grid(2, 2)
    inst = MdpInstance(grid=g, m=1, c=2, model=uniform_request_model(g, 0.0625, weights=0))
    result = value_iteration(inst)
    assert np.abs(result.values).max() == 0.0
    assert (result.policy == REJECT).all()


def test_episode_is_deterministic_and_legal():
    inst = square_instance()
    result = value_iteration(inst)
    rep1 = simulate_optimal_episode(inst, result, periods=300, seed=11)
    rep2 = simulate_optimal_episode(inst, result, periods=300, seed=11)
    rep3 = simulate_optimal_episode(inst, result, periods=300, seed=12)
    _, log1 = optimal_episode(inst, result, periods=300, seed=11)
    _, log2 = optimal_episode(inst, result, periods=300, seed=11)
    assert log1 == log2
    assert np.array_equal(rep1.time_covered, rep2.time_covered)
    assert rep1.served == rep2.served
    assert rep1.served != rep3.served or not np.array_equal(rep1.drop_rate, rep3.drop_rate)
    for step in log1:
        assert sum(step.state) == inst.m
        assert all(0 <= v <= inst.c for v in step.state)


def test_episode_report_matches_log_replay_oracle():
    """Recomputing every occupancy measure from the oracle episode's log reproduces the report."""
    inst = square_instance()
    result = value_iteration(inst)
    periods = 400
    report = simulate_optimal_episode(inst, result, periods=periods, seed=3)
    _, log = optimal_episode(inst, result, periods=periods, seed=3)
    n = inst.grid.n
    covered = np.zeros(n)
    starts = np.zeros(n)
    drops = np.zeros(n)
    served = 0
    for step in log:
        for u in range(n):
            if step.state[u] >= 1:
                covered[u] += 1
        if step.success:
            served += 1
            u, v = step.request
            starts[u] += 1
            drops[u] += 1
            if v != u:
                drops[v] += 1
    assert served == report.served
    assert np.array_equal(report.time_covered, 100.0 * covered / periods)
    assert np.array_equal(report.drop_rate, 100.0 * drops / periods)
    assert np.array_equal(report.start_pct, 100.0 * starts / periods)
    # a location is the start of a ride no more often than it is an endpoint
    assert (report.start_pct <= report.drop_rate + 1e-12).all()
    assert (report.time_covered >= 0).all() and (report.time_covered <= 100).all()


def test_single_location_is_always_covered():
    g = build_grid(1, 1)
    inst = MdpInstance(grid=g, m=1, c=1, model=uniform_request_model(g, 0.5, weights=1))
    result = value_iteration(inst)
    report = simulate_optimal_episode(inst, result, periods=200, seed=1)
    _, log = optimal_episode(inst, result, periods=200, seed=1)
    assert report.time_covered[0] == 100.0
    # self-trips both start and end at the only cell
    assert report.start_pct[0] == report.drop_rate[0]
    assert report.served == sum(1 for step in log if step.success)


def test_no_arrivals_mean_no_rides():
    g = build_grid(2, 2)
    inst = MdpInstance(grid=g, m=1, c=2, model=uniform_request_model(g, 0.0, weights=1))
    result = value_iteration(inst)
    report = simulate_optimal_episode(inst, result, periods=100, seed=5)
    _, log = optimal_episode(inst, result, periods=100, seed=5)
    assert report.served == 0
    assert (report.drop_rate == 0).all() and (report.start_pct == 0).all()
    # the adversarial start parks the single driver at the first cell
    assert report.time_covered.tolist() == [100.0, 0.0, 0.0, 0.0]
    assert all(step.request is None for step in log)


def test_custom_initial_state_and_action_rule():
    inst = square_instance()

    def act(counts, r, _rng):
        u, v = divmod(r, inst.grid.n)
        return u if counts[u] >= 1 else None

    report, log = simulate_policy_episode(inst, act, periods=50, seed=2, initial_state=(0, 0, 0, 1))
    assert log[0].state == (0, 0, 0, 1)
    with pytest.raises(ValueError):
        simulate_policy_episode(inst, act, periods=10, seed=2, initial_state=(2, 0, 0, 0))
    # the package's episode starts where it is told, and checks the start too
    result = value_iteration(inst)
    report = simulate_optimal_episode(inst, result, periods=50, seed=2, initial_state=(0, 0, 0, 1))
    assert same_report(report, optimal_episode(inst, result, 50, 2, (0, 0, 0, 1))[0])
    with pytest.raises(ValueError):
        simulate_optimal_episode(inst, result, periods=10, seed=2, initial_state=(2, 0, 0, 0))


def test_discounted_return_hand_check():
    inst = square_instance()
    result = value_iteration(inst)
    _, log = optimal_episode(inst, result, periods=60, seed=8)
    expect = sum(step.profit * 0.9**step.period for step in log)
    assert discounted_return(log, 0.9) == pytest.approx(expect)
    assert discounted_return([], 0.9) == 0.0


def test_compare_policies_pairs_runs_and_dominates_baselines():
    inst = square_instance()
    result = value_iteration(inst)
    baselines = [parse_policy("nadap:0.8"), parse_policy("rand:NESW")]
    returns = compare_policies(inst, result, baselines, episodes=120, periods=120, seed=6)
    assert set(returns) == {"optimal", "nadap:0.8", "rand:NESW"}
    assert all(len(v) == 120 for v in returns.values())
    opt_mean, opt_err = summarize_returns(returns["optimal"])
    assert opt_err > 0
    for label in ("nadap:0.8", "rand:NESW"):
        diff = returns["optimal"] - returns[label]
        mean = float(diff.mean())
        stderr = float(diff.std(ddof=1) / np.sqrt(len(diff)))
        assert mean >= -3 * stderr, (label, mean, stderr)
    # common random numbers: rerunning reproduces the exact same samples
    again = compare_policies(inst, result, baselines, episodes=120, periods=120, seed=6)
    for label, vals in returns.items():
        assert np.array_equal(vals, again[label])


def test_compare_policies_baselines_match_dispatch_oracle():
    """Each baseline's returns equal episodes that offer every request to dispatch."""
    g = build_grid(2, 3)
    inst = MdpInstance(grid=g, m=3, c=2, model=uniform_request_model(g, 0.025, weights=None))
    result = value_iteration(inst)
    baselines = [parse_policy(label) for label in ("nadap:0.6:lost", "rand:WSEN", "greedy:pool")]
    returns = compare_policies(inst, result, baselines, episodes=8, periods=150, seed=12)
    n = inst.grid.n
    for policy in baselines:

        def act(counts, r, coin_rng, policy=policy):
            return dispatch(counts, divmod(r, n), inst.model, policy, inst.c, rng=coin_rng).chosen

        for e in range(8):
            _, log = simulate_policy_episode(inst, act, 150, 12, episode_key=(e,))
            assert returns[policy.label()][e] == discounted_return(log, inst.discount)


def test_summarize_returns_degenerate_sample():
    mean, err = summarize_returns(np.array([2.5]))
    assert mean == 2.5 and err == 0.0


def test_summarize_returns_refuses_an_empty_sample():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at least one episode"):
            summarize_returns(np.array([]))


def test_compare_policies_needs_an_episode():
    inst = square_instance()
    result = value_iteration(inst)
    for episodes in (0, -2):
        with pytest.raises(ValueError, match="need at least one episode"):
            compare_policies(inst, result, [parse_policy("greedy")], episodes=episodes, periods=10)


# Recorded while the episodes still stepped driver counts, on criterion 08's
# 2x2 instance, baselines and episode budget.
COMPARE_DIGEST = "08638385ceb53aed2a0df09197448a07b36fe7b10922c4d90dd6a91d45231ef8"


def test_compare_policies_returns_are_pinned():
    inst = square_instance()
    result = value_iteration(inst, tol=1e-10)
    baselines = [parse_policy(label) for label in ("nadap:0.8", "rand:NESW", "greedy")]
    returns = compare_policies(inst, result, baselines, episodes=1_000, periods=200, seed=7)
    digest = hashlib.sha256()
    for label, vals in returns.items():
        digest.update(label.encode())
        digest.update(vals.tobytes())
    assert digest.hexdigest() == COMPARE_DIGEST
