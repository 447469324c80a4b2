"""The ensemble engines, pinned bit for bit to the scalar loops they replaced.

Ensembles (IID and replay), optimal-policy episodes and policy comparisons
run every replication at once; tests/oracles.py keeps the one-run,
one-round loops.  Episodes, and ensembles on a space that fits the
successor table, step state ranks; larger ensembles step driver counts,
and a zero table budget forces that counts path.  Random small instances
with derandomized draws, and block budgets small enough to split runs
into blocks and schedules into chunks; explicit replays sit at the edges
of the expansion of a replay's entry profits into round profits.
"""

from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dispatchlab import mdp, simulate
from dispatchlab.grid import RequestModel, build_grid
from dispatchlab.mdp import MdpInstance, compare_policies, simulate_optimal_episode, value_iteration
from dispatchlab.policies import ALL_PHIS, PolicySpec
from dispatchlab.rng import stream
from dispatchlab.simulate import SimConfig, initial_state_preset, run_ensemble
from oracles import compare_policies_scalar, optimal_episode, run_ensemble_scalar, same_report

ENGINE = settings(derandomize=True, max_examples=30, deadline=None)

# simulate's budgets: the package's own, then ones that split the runs
# into blocks and the schedule into short chunks, each on either path
SPLITS = [{}, {"_BLOCK_ELEMENTS": 7, "_SCHEDULE_ELEMENTS": 5},
          {"_BLOCK_ELEMENTS": 1, "_SCHEDULE_ELEMENTS": 1}]
COUNTS_PATH = {"_TABLE_ELEMENTS": 0}
BUDGETS = SPLITS + [{**sizes, **COUNTS_PATH} for sizes in SPLITS]


@contextmanager
def budgets(sizes):
    # mdp binds its own name for the schedule budget
    with ExitStack() as stack:
        for module in (simulate, mdp):
            names = {name: size for name, size in sizes.items() if hasattr(module, name)}
            if names:
                stack.enter_context(mock.patch.multiple(module, **names))
        yield


@st.composite
def instances(draw):
    """A grid up to 3x3, a fleet, a capacity and a legal start."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    grid = build_grid(rows, cols)
    c = draw(st.integers(1, 3))
    m = draw(st.integers(1, min(4, c * grid.n)))
    start = initial_state_preset(grid, m, c, draw(st.sampled_from(["adversarial", "spread"]))) \
        if m <= grid.n else initial_state_preset(grid, m, c, "adversarial")
    return grid, m, c, start


@st.composite
def policies(draw):
    """Every serving rule: nadap (float alpha, both boundaries), rand in any order, greedy both ways."""
    kind = draw(st.sampled_from(["nadap", "rand", "greedy"]))
    if kind == "nadap":
        alpha = draw(st.sampled_from([1.0, 0.8, 0.7, 1 / 3]))
        return PolicySpec("nadap", alpha=alpha, boundary=draw(st.sampled_from(["renormalize", "lost"])))
    if kind == "rand":
        return PolicySpec("rand", phi=ALL_PHIS[draw(st.integers(0, 23))])
    return PolicySpec("greedy", origin_first=draw(st.booleans()))


def float_model(grid, seed: int, mass: float) -> RequestModel:
    """Random arrivals with total mass ``mass``, some pairs absent and some paying nothing."""
    n = grid.n
    rng = np.random.default_rng(seed)
    p = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
    w = rng.random((n, n)) * (rng.random((n, n)) < 0.8)
    return RequestModel(grid, mass * p / max(p.sum(), 1e-9), w)


def assert_same_series(a, b):
    for name in ("w_mean", "w_stderr", "obj_running"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.obj, a.obj_stderr, a.runs, a.estimator) == (b.obj, b.obj_stderr, b.runs, b.estimator)


@ENGINE
@given(instances(), policies(), st.sampled_from(["conditional", "realized"]), st.integers(0, 2**16),
       st.integers(1, 6), st.integers(1, 60), st.sampled_from([0.1, 0.5, 1.0]), st.sampled_from(BUDGETS))
@example((build_grid(3, 3), 4, 2, (2, 2, 0, 0, 0, 0, 0, 0, 0)), PolicySpec("greedy", origin_first=False),
         "conditional", 1, 5, 60, 0.5, BUDGETS[1])
# one block of runs on the counts path at low mass: rounds that ask only some runs
@example((build_grid(3, 3), 4, 2, (1, 1, 1, 1, 0, 0, 0, 0, 0)), PolicySpec("greedy"),
         "conditional", 3, 6, 60, 0.1, BUDGETS[3])
@example((build_grid(2, 3), 3, 1, (1, 1, 1, 0, 0, 0)), PolicySpec("nadap", alpha=0.7),
         "realized", 4, 6, 60, 0.1, BUDGETS[3])
def test_iid_ensemble_matches_scalar_runs(inst, policy, estimator, seed, runs, T, mass, sizes):
    grid, m, c, start = inst
    config = SimConfig(grid=grid, m=m, c=c, T=T, runs=runs, seed=seed, policy=policy,
                       model=float_model(grid, seed, mass), initial_state=start, estimator=estimator)
    with budgets(sizes):
        got = run_ensemble(config)
    assert_same_series(got, run_ensemble_scalar(config))


@pytest.mark.parametrize("policy", [PolicySpec("greedy"), PolicySpec("rand", phi=ALL_PHIS[0]),
                                    PolicySpec("nadap", alpha=0.8)])
def test_paper_scale_sparse_ensemble_matches_scalar_run(policy):
    """One conditional run on the paper's 21x11 grid (the counts path) under a model shaped like an
    ingested segment: mass 0.13, so most rounds ask nothing, about 84% of pairs never asked, and
    some asked pairs paying nothing."""
    grid = build_grid(21, 11)
    rng = np.random.default_rng(5)
    p = rng.random((grid.n, grid.n)) * (rng.random((grid.n, grid.n)) >= 0.84)
    w = rng.random((grid.n, grid.n)) * (rng.random((grid.n, grid.n)) >= 0.1)
    config = SimConfig(grid=grid, m=50, c=2, T=400, runs=1, seed=5, policy=policy,
                       model=RequestModel(grid, 0.13 * p / p.sum(), w),
                       initial_state=initial_state_preset(grid, 50, 2, "adversarial"))
    assert simulate._rank_tables(config) is None
    assert_same_series(run_ensemble(config), run_ensemble_scalar(config))


@st.composite
def traces(draw, grid):
    """Entries in non-decreasing rounds, several often sharing one second."""
    size = draw(st.integers(0, 40))
    steps = draw(st.lists(st.sampled_from([0, 0, 1, 2]), min_size=size, max_size=size))
    cells = st.integers(0, grid.n - 1)
    weights = st.sampled_from([0.5, 1.0, 2.25, 3.0])
    return [(int(r), draw(cells), draw(cells), draw(weights)) for r in np.cumsum(steps)]


def horizons(trace):
    """Horizons shorter than the trace cut it; longer ones leave empty rounds."""
    return st.integers(1, (trace[-1][0] if trace else 0) + 3)


@st.composite
def replays(draw):
    """An instance, a trace on its grid and a horizon."""
    inst = draw(instances())
    trace = draw(traces(inst[0]))
    return inst, trace, draw(horizons(trace))


# A replay's entry profits become round profits in the reduction; these
# replays sit at the edges of that expansion: (replay, policy, seed, runs)
# with no entries, with a horizon far past the last entry's round, and
# with a horizon that cuts the trace just before a repeated round.
EDGE_REPLAYS = [
    (((build_grid(2, 2), 2, 2, (2, 0, 0, 0)), [], 6), PolicySpec("rand", phi=ALL_PHIS[7]), 2, 5),
    (((build_grid(2, 3), 3, 2, (1, 1, 1, 0, 0, 0)),
      [(0, 0, 5, 1.0), (0, 1, 1, 0.5), (0, 2, 3, 2.25), (2, 3, 0, 3.0)], 400),
     PolicySpec("nadap", alpha=0.7, boundary="lost"), 9, 5),
    (((build_grid(3, 2), 4, 2, (2, 2, 0, 0, 0, 0)),
      [(0, 0, 5, 1.0), (1, 2, 3, 0.5), (2, 4, 0, 2.25), (2, 1, 1, 3.0), (3, 5, 2, 1.0), (3, 3, 0, 0.5),
       (7, 0, 4, 1.0)], 3),
     PolicySpec("nadap", alpha=0.8), 4, 6),
]


def with_examples(cases):
    """Explicit hypothesis examples, one per argument tuple."""
    def add(test):
        for case in cases:
            test = example(*case)(test)
        return test
    return add


def replay_config(replay, policy, seed, runs) -> SimConfig:
    """The realized ensemble of ``runs`` replications replaying an (instance, trace, horizon)."""
    (grid, m, c, start), trace, T = replay
    return SimConfig(grid=grid, m=m, c=c, T=T, runs=runs, seed=seed, policy=policy, trace=trace,
                     initial_state=start, estimator="realized")


@ENGINE
@given(replays(), policies(), st.integers(0, 2**16), st.integers(1, 6), st.sampled_from(BUDGETS))
@with_examples([(*edge, {**sizes, **path}) for edge in EDGE_REPLAYS
                for sizes in SPLITS[1:] for path in ({}, COUNTS_PATH)])
def test_replay_ensemble_matches_scalar_runs(replay, policy, seed, runs, sizes):
    config = replay_config(replay, policy, seed, runs)
    with budgets(sizes):
        got = run_ensemble(config)
    assert_same_series(got, run_ensemble_scalar(config))


@pytest.mark.parametrize("sizes, runs, entries, T", [({"_BLOCK_ELEMENTS": 60}, 6, 10, 100),
                                                    ({}, 100, 2000, 14_400)])
def test_replay_blocks_are_sized_by_entries(sizes, runs, entries, T):
    """Runs x entries fits the block budget and runs x T does not: one block steps every run, on either path."""
    rng = np.random.default_rng(entries)
    trace = [(i // 2, *rng.integers(0, 4, 2).tolist(), 1.0) for i in range(entries)]
    config = replay_config(((build_grid(2, 2), 2, 2, (2, 0, 0, 0)), trace, T),
                           PolicySpec("nadap", alpha=0.8), 3, runs)
    step = simulate._block
    series = []
    for path in ({}, COUNTS_PATH):
        made = []

        def block(*args):
            profits = step(*args)
            made.append(profits.size)
            return profits

        with budgets({**sizes, **path}), mock.patch.object(simulate, "_block", wraps=block) as spy:
            series.append(run_ensemble(config))
            budget = simulate._BLOCK_ELEMENTS
        assert runs * T > budget
        assert spy.call_count == 1
        assert made == [runs * entries] and made[0] <= budget
    assert_same_series(*series)


@st.composite
def ensembles(draw):
    """An IID ensemble under either estimator, or a replay, on a small instance."""
    grid, m, c, start = draw(instances())
    policy, mode = draw(policies()), draw(st.sampled_from(["conditional", "realized", "replay"]))
    seed, runs = draw(st.integers(0, 2**16)), draw(st.integers(1, 6))
    if mode == "replay":
        trace = draw(traces(grid))
        return replay_config(((grid, m, c, start), trace, draw(horizons(trace))), policy, seed, runs)
    return SimConfig(grid=grid, m=m, c=c, T=draw(st.integers(1, 60)), runs=runs, seed=seed, policy=policy,
                     model=float_model(grid, seed, 0.9), initial_state=start, estimator=mode)


LOST = PolicySpec("nadap", alpha=0.7, boundary="lost")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(ensembles(), st.sampled_from(SPLITS))
@example(SimConfig(grid=build_grid(2, 3), m=3, c=2, T=40, runs=5, seed=3, policy=LOST,
                   model=float_model(build_grid(2, 3), 3, 0.9), initial_state=(1, 1, 1, 0, 0, 0)), SPLITS[1])
@example(SimConfig(grid=build_grid(3, 2), m=4, c=2, T=9, runs=4, seed=8, policy=LOST, estimator="realized",
                   trace=[(0, 0, 5, 1.0), (0, 2, 1, 0.5), (0, 4, 4, 2.25), (2, 5, 0, 3.0), (2, 1, 3, 1.0),
                          (6, 3, 2, 0.5), (6, 0, 0, 1.0)],
                   initial_state=(2, 2, 0, 0, 0, 0)), SPLITS[2])
@example(SimConfig(grid=build_grid(3, 3), m=3, c=2, T=5, runs=6, seed=1,
                   policy=PolicySpec("greedy", origin_first=False),
                   trace=[(0, 4, 0, 1.0), (0, 4, 8, 2.25), (1, 0, 4, 0.5), (1, 1, 1, 3.0), (4, 8, 2, 1.0)],
                   initial_state=(1, 1, 1, 0, 0, 0, 0, 0, 0), estimator="realized"), SPLITS[1])
@example(SimConfig(grid=build_grid(2, 2), m=2, c=2, T=4, runs=3, seed=5, policy=PolicySpec("nadap", alpha=0.8),
                   trace=[(0, 0, 3, 1.0), (0, 3, 0, 0.5), (0, 1, 2, 2.25), (3, 2, 2, 1.0)],
                   initial_state=(2, 0, 0, 0), estimator="realized"), SPLITS[0])
@with_examples([(replay_config(*edge), sizes) for edge in EDGE_REPLAYS for sizes in SPLITS[1:]])
def test_rank_path_matches_count_path(config, sizes):
    """The same bytes from rank tables and from driver counts, IID (both estimators) and replay."""
    assert simulate._rank_tables(config) is not None
    with budgets(sizes):
        ranked = run_ensemble(config)
    with budgets({**sizes, **COUNTS_PATH}):
        assert simulate._rank_tables(config) is None
        counted = run_ensemble(config)
    for name in ("w_mean", "w_stderr", "obj_running"):
        assert getattr(ranked, name).tobytes() == getattr(counted, name).tobytes(), name
    assert (ranked.obj, ranked.obj_stderr) == (counted.obj, counted.obj_stderr)


@ENGINE
@given(instances(), st.lists(policies(), min_size=1, max_size=3), st.integers(0, 2**16),
       st.integers(1, 8), st.integers(1, 40), st.sampled_from(SPLITS))
def test_mdp_episodes_match_scalar_episodes(inst, baselines, seed, episodes, periods, sizes):
    grid, m, c, start = inst
    instance = MdpInstance(grid, m, c, float_model(grid, seed, 0.9))
    result = value_iteration(instance)
    with budgets(sizes):
        report = simulate_optimal_episode(instance, result, periods, seed, start)
        got = compare_policies(instance, result, baselines, episodes, periods, seed, start)
    assert same_report(report, optimal_episode(instance, result, periods, seed, start)[0])
    want = compare_policies_scalar(instance, result, baselines, episodes, periods, seed, start)
    assert list(got) == list(want)
    for label in want:
        assert np.array_equal(got[label], want[label]), label


def test_vector_draws_equal_scalar_draws():
    """One vector draw, or several chunks of one, equals the scalar draws it replaces."""
    scalar = stream(9, 4, 1)
    want = [scalar.random() for _ in range(1000)]
    assert stream(9, 4, 1).random(1000).tolist() == want
    chunked = stream(9, 4, 1)
    assert np.concatenate([chunked.random(k) for k in (1, 0, 299, 700)]).tolist() == want
    pairs = stream(9, 4).random((500, 2))
    chunked = stream(9, 4)
    assert np.array_equal(np.concatenate([chunked.random((k, 2)) for k in (3, 497)]), pairs)
    assert pairs.ravel().tolist() == stream(9, 4).random(1000).tolist()
