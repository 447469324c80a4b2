"""Monte-Carlo ensembles: estimators, replay, gap curves, and rate fits."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from dispatchlab.chain import (
    build_transition,
    exact_error_curves,
    stationary_distribution,
)
from dispatchlab.errors import FitFailureError
from dispatchlab.grid import build_grid, uniform_request_model
from dispatchlab.policies import PolicySpec, parse_policy
from dispatchlab.simulate import (
    ErrorSeries,
    SimConfig,
    error_curves,
    fit_exponential,
    fit_inverse,
    initial_state_preset,
    run_ensemble,
)


def test_initial_state_presets():
    g = build_grid(2, 2)
    assert initial_state_preset(g, 2, 2, "adversarial") == (2, 0, 0, 0)
    assert initial_state_preset(g, 3, 2, "adversarial") == (2, 1, 0, 0)
    assert initial_state_preset(g, 5, 2, "spread") == (2, 1, 1, 1)
    assert initial_state_preset(g, 2, 2, "spread") == (1, 1, 0, 0)
    with pytest.raises(ValueError):
        initial_state_preset(g, 9, 2, "adversarial")
    with pytest.raises(ValueError):
        initial_state_preset(g, 6, 1, "spread")
    with pytest.raises(ValueError):
        initial_state_preset(g, 2, 2, "mystery")


def make_config(**overrides):
    g = build_grid(2, 2)
    base = dict(
        grid=g,
        m=2,
        c=2,
        T=20,
        runs=4,
        seed=7,
        policy=parse_policy("nadap:0.8"),
        model=uniform_request_model(g, 0.0625, weights=1),
        initial_state=(2, 0, 0, 0),
    )
    base.update(overrides)
    return SimConfig(**base)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        make_config(T=0)
    with pytest.raises(ValueError):
        make_config(runs=0)
    with pytest.raises(ValueError):
        make_config(model=None)  # neither arrival source
    with pytest.raises(ValueError):
        make_config(trace=[(0, 0, 1, 1.0)])  # both arrival sources
    with pytest.raises(ValueError):
        make_config(estimator="bogus")
    with pytest.raises(ValueError):
        make_config(model=None, trace=[(0, 0, 1, 1.0)], estimator="conditional")
    with pytest.raises(ValueError):
        make_config(model=None, trace=[(0, 0, 1)] * 4, estimator="realized")  # entries of three fields
    with pytest.raises(ValueError):
        make_config(initial_state=(2, 0, 0))
    with pytest.raises(ValueError):
        make_config(initial_state=(1, 0, 0, 0))
    with pytest.raises(ValueError):
        make_config(initial_state=(2, 0, 0, 0), c=1)


def test_ensemble_is_deterministic_by_seed():
    a = run_ensemble(make_config(seed=42, runs=6))
    b = run_ensemble(make_config(seed=42, runs=6))
    c = run_ensemble(make_config(seed=43, runs=6))
    assert np.array_equal(a.w_mean, b.w_mean)
    assert np.array_equal(a.w_stderr, b.w_stderr)
    assert a.obj == b.obj and a.obj_stderr == b.obj_stderr
    assert not np.array_equal(a.w_mean, c.w_mean)


def test_ensemble_aggregates_are_consistent():
    series = run_ensemble(make_config(runs=10, T=30))
    assert series.t.tolist() == list(range(30))
    assert series.runs == 10
    expect_running = np.cumsum(series.w_mean) / np.arange(1, 31)
    assert np.abs(series.obj_running - expect_running).max() < 1e-12
    assert series.obj == pytest.approx(series.obj_running[-1])
    assert (series.w_stderr >= 0).all()


def test_conditional_estimator_tracks_exact_curve():
    """Ensemble means reproduce the exactly propagated profit curve (3 sigma, 20 points)."""
    g = build_grid(2, 2)
    model = uniform_request_model(g, 0.0625, weights=1)
    policy = parse_policy("nadap:0.8")
    space_m, T, runs = 2, 60, 800
    config = SimConfig(
        grid=g, m=space_m, c=2, T=T, runs=runs, seed=2026,
        policy=policy, model=model, initial_state=(2, 0, 0, 0),
    )
    series = run_ensemble(config)
    from dispatchlab.states import StateSpace

    tm = build_transition(StateSpace(g, space_m, 2), model, policy)
    exact = exact_error_curves(tm, model, policy, (2, 0, 0, 0), T)
    checkpoints = np.linspace(0, T - 1, 20, dtype=int)
    for t in checkpoints:
        slack = 3 * series.w_stderr[t] + 1e-12
        assert abs(series.w_mean[t] - exact.w_t[t]) <= slack, (t, series.w_mean[t], exact.w_t[t])


def test_conditional_and_realized_estimators_agree():
    """Both objective estimators target the same limit (3 combined stderr)."""
    kwargs = dict(T=400, runs=120, seed=5)
    cond = run_ensemble(make_config(estimator="conditional", **kwargs))
    real = run_ensemble(make_config(estimator="realized", **kwargs))
    gap = abs(cond.obj - real.obj)
    combined = math.hypot(cond.obj_stderr, real.obj_stderr)
    assert gap < 3 * combined
    # realized per-round profits are bare weights, so their spread dominates
    assert real.obj_stderr >= cond.obj_stderr * 0.5


def test_running_average_gap_shrinks_with_horizon():
    g = build_grid(2, 2)
    model = uniform_request_model(g, 0.0625, weights=1)
    config = SimConfig(
        grid=g, m=2, c=2, T=10_000, runs=20, seed=9,
        policy=parse_policy("nadap:0.8"), model=model, initial_state=(2, 0, 0, 0),
    )
    series = error_curves(run_ensemble(config), target=0.4)
    assert series.delta_hat[9_999] < series.delta_hat[99]


def test_replay_hand_trace_is_exact():
    """Replaying a tiny recorded trace reproduces the hand-computed profits."""
    g = build_grid(2, 2)
    trace = [
        (0, 0, 3, 2.0),  # served by the driver at 0; it moves to 3
        (1, 0, 1, 1.0),  # nobody near 0 anymore: lost
        (2, 3, 0, 2.0),  # served from 3, driver returns to 0
        (2, 0, 2, 1.0),  # same round: the returned driver serves again
        (4, 1, 0, 9.0),  # no driver at 1 and none adjacent via scan: depends on policy
    ]
    config = SimConfig(
        grid=g, m=1, c=1, T=5, runs=1, seed=0,
        policy=parse_policy("greedy"), trace=trace,
        initial_state=(1, 0, 0, 0), estimator="realized",
    )
    series = run_ensemble(config)
    # round 4: request (1, 0) scans origin 1 (empty) then neighbors by count;
    # the driver sits at 2, not adjacent to 1... it IS a neighbor of 1? no:
    # neighbors(1) = (3, 0); both empty, so the request is lost.
    assert series.w_mean.tolist() == [2.0, 0.0, 3.0, 0.0, 0.0]
    assert series.obj == pytest.approx(1.0)


def test_replay_rejects_unsorted_rounds():
    g = build_grid(2, 2)
    # the trace is checked when the ensemble is configured, before any run
    with pytest.raises(ValueError, match="trace rounds must be non-decreasing: entry 1"):
        SimConfig(
            grid=g, m=1, c=1, T=5, runs=1, seed=0,
            policy=parse_policy("greedy"), trace=[(3, 0, 1, 1.0), (1, 0, 1, 1.0)],
            initial_state=(1, 0, 0, 0), estimator="realized",
        )


@pytest.mark.parametrize("label", ["nadap:0.8", "rand:NESW", "greedy"])
def test_replay_rejects_entries_off_the_grid_or_before_round_zero(label):
    """Negative cells and rounds would wrap around in array indexing; they are refused."""
    g = build_grid(2, 2)
    good = (0, 0, 1, 1.0)
    cases = {
        (0, 7, 1, 1.0): "is off the 2x2 grid",
        (0, 0, 4, 1.0): "is off the 2x2 grid",
        (0, -1, 1, 1.0): "is off the 2x2 grid",
        (1, 0, -2, 1.0): "is off the 2x2 grid",
        (-1, 0, 1, 1.0): "has a negative round",
    }
    for bad, why in cases.items():
        # second, after a good entry, and first, where no earlier round precedes it
        for trace, at in (([good, bad, good], 1), ([bad, good], 0)):
            with pytest.raises(ValueError, match=re.escape(f"trace entry {at} {bad} ") + why):
                SimConfig(
                    grid=g, m=1, c=1, T=5, runs=1, seed=0, policy=parse_policy(label),
                    trace=trace, initial_state=(1, 0, 0, 0), estimator="realized",
                )


def test_replay_truncates_at_horizon():
    g = build_grid(2, 2)
    trace = [(0, 0, 1, 1.0), (7, 1, 0, 5.0)]
    config = SimConfig(
        grid=g, m=1, c=1, T=3, runs=1, seed=0,
        policy=parse_policy("greedy"), trace=trace,
        initial_state=(1, 0, 0, 0), estimator="realized",
    )
    series = run_ensemble(config)
    assert len(series.w_mean) == 3
    assert series.w_mean.tolist() == [1.0, 0.0, 0.0]


def test_error_curves_numeric_and_tail_targets():
    series = run_ensemble(make_config(runs=8, T=40))
    with_target = error_curves(series, target=0.4)
    assert with_target.target == 0.4
    assert with_target.target_kind == "value"
    assert np.abs(with_target.delta - np.abs(series.w_mean - 0.4)).max() < 1e-15
    assert np.abs(with_target.delta_hat - np.abs(series.obj_running - 0.4)).max() < 1e-15
    tail = error_curves(series, target="tail", tail_fraction=0.25)
    assert tail.target == pytest.approx(float(series.w_mean[-10:].mean()))
    assert tail.target_kind == "tail:0.25"
    full_tail = error_curves(series, target="tail")
    assert full_tail.target == pytest.approx(float(series.w_mean.mean()))


def test_error_curves_validation():
    series = run_ensemble(make_config(runs=2, T=5))
    with pytest.raises(ValueError):
        error_curves(series, target="median")
    with pytest.raises(ValueError):
        error_curves(series, target="tail", tail_fraction=0.0)
    with pytest.raises(ValueError):
        error_curves(series, target=float("nan"))
    empty = ErrorSeries(
        t=np.array([]), w_mean=np.array([]), w_stderr=np.array([]),
        obj_running=np.array([]), obj=0.0, obj_stderr=0.0, runs=1, estimator="realized",
    )
    with pytest.raises(ValueError):
        error_curves(empty, target=0.0)


def test_constant_series_with_matching_target_has_zero_gap():
    series = ErrorSeries(
        t=np.arange(5), w_mean=np.full(5, 0.3), w_stderr=np.zeros(5),
        obj_running=np.full(5, 0.3), obj=0.3, obj_stderr=0.0, runs=1, estimator="conditional",
    )
    out = error_curves(series, target=0.3)
    assert (out.delta == 0).all() and (out.delta_hat == 0).all()


# ---------------------------------------------------------------------------
# Rate fits


def test_fit_exponential_recovers_noiseless_curve():
    t = np.arange(51, dtype=float)
    fit = fit_exponential(t, 2.0 * np.exp(-0.1 * t))
    assert abs(fit.a - 2.0) < 1e-9
    assert abs(fit.b - 0.1) < 1e-9
    assert fit.r2 == pytest.approx(1.0)
    assert fit.dropped == 0


def test_fit_inverse_recovers_noiseless_curve():
    T = np.arange(1, 61, dtype=float)
    fit = fit_inverse(T, 3.0 / T)
    assert abs(fit.a - 3.0) < 1e-9
    assert fit.r2 == pytest.approx(1.0)
    assert fit.dropped == 0


def test_fit_exponential_on_exact_toy_chain_gap():
    """The two-cell chain's exact profit gap decays at rate exactly ln 2."""
    from dispatchlab.states import StateSpace

    g = build_grid(1, 2)
    space = StateSpace(g, 1, 1)
    model = uniform_request_model(g, Fraction(1, 4), weights={(0, 1): 2})
    policy = parse_policy("nadap:1.0")
    tm = build_transition(space, model, PolicySpec("nadap", alpha=Fraction(1)))
    curves = exact_error_curves(tm, model, policy, (1, 0), 30)
    # closed form: delta(t) = (1/4) (1/2)^t
    t = np.arange(30)
    assert np.abs(curves.delta - 0.25 * 0.5**t).max() < 1e-14
    fit = fit_exponential(t, curves.delta)
    assert abs(fit.b - math.log(2.0)) < 1e-6
    assert abs(fit.a - 0.25) < 1e-6


def test_fit_exponential_drops_nonpositive_points():
    t = np.arange(10, dtype=float)
    vals = 2.0 * np.exp(-0.5 * t)
    vals[3] = 0.0
    vals[7] = -1e-9
    fit = fit_exponential(t, vals)
    assert fit.dropped == 2
    assert abs(fit.b - 0.5) < 1e-9
    with pytest.raises(FitFailureError):
        fit_exponential(t, np.zeros(10))
    with pytest.raises(FitFailureError):
        fit_exponential(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        fit_exponential(np.arange(4), np.ones(5))


def test_fit_inverse_drops_nonpositive_horizons():
    T = np.arange(0, 20, dtype=float)  # first horizon is 0
    vals = np.ones(20)
    vals[1:] = 5.0 / T[1:]
    fit = fit_inverse(T, vals)
    assert fit.dropped == 1
    assert abs(fit.a - 5.0) < 1e-9
    with pytest.raises(FitFailureError):
        fit_inverse(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        fit_inverse(np.arange(4), np.ones(5))


def test_fit_goodness_on_exact_mixing_curve():
    """Exponential decay of the uniform 2x2 instance's mixing curve fits cleanly."""
    from dispatchlab.chain import mixing_analysis
    from dispatchlab.states import StateSpace

    g = build_grid(2, 2)
    space = StateSpace(g, 2, 2)
    model = uniform_request_model(g, 0.0625, weights=1)
    tm = build_transition(space, model, PolicySpec("nadap", alpha=0.8))
    res = stationary_distribution(tm)
    report = mixing_analysis(tm, res.pi, [1e-6], t_max=10_000)
    fit = fit_exponential(np.arange(len(report.d_curve)), report.d_curve)
    assert fit.r2 > 0.97
    assert fit.b > 0
