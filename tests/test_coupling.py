"""Identity-coupling contraction: exact joint laws and the geometric rate they certify."""

import math
from fractions import Fraction

import pytest

from dispatchlab.coupling import verify_contraction
from dispatchlab.errors import OutOfScopeError
from dispatchlab.grid import build_grid, uniform_request_model
from dispatchlab.states import StateSpace
from oracles import apply_request, coupled_step_distribution, pair_distance


def test_pair_distance():
    assert pair_distance((1, 0, 1), (1, 0, 1)) == 0
    assert pair_distance((2, 0, 0), (1, 1, 0)) == 2
    assert pair_distance((2, 0, 0), (0, 1, 1)) == 4
    with pytest.raises(ValueError):
        pair_distance((1, 0), (1, 0, 0))


def test_apply_request_feasibility_rule():
    assert apply_request((1, 0), 0, 1, 1) == (0, 1)
    assert apply_request((0, 1), 0, 1, 1) == (0, 1)  # empty origin: no move
    assert apply_request((1, 1), 0, 1, 1) == (1, 1)  # full destination: no move
    assert apply_request((1, 1), 0, 0, 1) == (1, 1)  # self-trip moves nobody
    assert apply_request((2, 1), 0, 1, 2) == (1, 2)


def test_coupled_step_is_a_probability_law_with_exact_marginals():
    g = build_grid(2, 2)
    model = uniform_request_model(g, Fraction(1, 16), weights=Fraction(1))
    x, y = (2, 0, 0, 0), (1, 1, 0, 0)
    joint = coupled_step_distribution(x, y, model, c=2)
    assert sum(joint.values()) == 1
    # each copy's marginal equals its own single-chain step law
    for idx, start in ((0, x), (1, y)):
        marginal: dict = {}
        for key, pr in joint.items():
            marginal[key[idx]] = marginal.get(key[idx], Fraction(0)) + pr
        direct: dict = {}
        for a in range(4):
            for b in range(4):
                nxt = apply_request(start, a, b, 2)
                direct[nxt] = direct.get(nxt, Fraction(0)) + Fraction(1, 16)
        assert marginal == direct


def test_coupled_step_requires_adjacent_pair():
    g = build_grid(2, 2)
    model = uniform_request_model(g, Fraction(1, 16), weights=Fraction(1))
    with pytest.raises(ValueError):
        coupled_step_distribution((2, 0, 0, 0), (0, 0, 2, 0), model, c=2)
    with pytest.raises(ValueError):
        coupled_step_distribution((1, 1, 0, 0), (1, 1, 0, 0), model, c=2)


def test_coupled_step_keeps_idle_mass_in_place():
    g = build_grid(1, 2)
    model = uniform_request_model(g, Fraction(1, 8), weights=Fraction(1))  # mass 1/2
    x, y = (1, 0), (0, 1)
    joint = coupled_step_distribution(x, y, model, c=1)
    assert sum(joint.values()) == 1
    # idle rounds leave the pair unchanged, so (x, y) keeps at least 1/2
    assert joint[(x, y)] >= Fraction(1, 2)


def test_contraction_worst_rate_on_two_by_two():
    report = verify_contraction(build_grid(2, 2), m=2, c=2)
    assert report.worst_beta == Fraction(15, 16)
    assert report.target == Fraction(15, 16)
    assert report.diameter == 4
    blocks = list(StateSpace(build_grid(2, 2), 2, 2).moves())
    assert report.pair_count == sum(len(src) for _, src, *_ in blocks) == 48
    assert len(report.x) == len(report.y) == 48
    assert report.x.tolist() == [x for _, src, *_ in blocks for x in src.tolist()]
    assert report.y.tolist() == [y for *_, dst in blocks for y in dst.tolist()]
    assert all(ratio <= report.target for _, ratio in report.shares().values())
    assert report.shares()[int(report.totals.max())][1] == report.worst_beta
    assert report.tau_bound(0.01) == pytest.approx(math.log(4 / 0.01) / (1 - 15 / 16))
    assert report.tau_bound(0.01) == pytest.approx(95.86343, abs=1e-4)


def test_contraction_three_by_three_hits_its_target():
    report = verify_contraction(build_grid(3, 3), m=2, c=2)
    assert report.worst_beta == Fraction(80, 81)
    assert report.target == Fraction(80, 81)


def test_contraction_strict_when_capacity_one():
    # with c = 1 the blocked-destination asymmetry disappears and every
    # pair couples at the uniform rate 1 - 1/n^2 or better
    for grid, m in ((build_grid(2, 2), 1), (build_grid(2, 2), 3), (build_grid(3, 3), 1)):
        report = verify_contraction(grid, m=m, c=1)
        assert report.worst_beta <= report.target


def test_contraction_sweep_small_instances():
    for rows, cols in ((2, 2), (3, 3)):
        g = build_grid(rows, cols)
        for c in (1, 2):
            for m in (1, 2, 3):
                report = verify_contraction(g, m=m, c=c)
                assert report.worst_beta <= report.target, (rows, cols, m, c)
                assert report.diameter == 2 * m
                # expected distances are exact rationals bounded by the metric
                for t, (expected, ratio) in report.shares().items():
                    assert isinstance(expected, Fraction) and expected == Fraction(t, (rows * cols) ** 2)
                    assert 0 <= ratio <= 1 and ratio == expected / 2


def test_contraction_rejects_large_capacity():
    with pytest.raises(OutOfScopeError):
        verify_contraction(build_grid(2, 2), m=2, c=3)


def test_tau_bound_validation():
    report = verify_contraction(build_grid(2, 2), m=2, c=2)
    with pytest.raises(ValueError):
        report.tau_bound(0.0)
    with pytest.raises(ValueError):
        report.tau_bound(-1.0)
    for eps in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            report.tau_bound(eps)
        with pytest.raises(ValueError, match="positive and finite"):
            verify_contraction(build_grid(2, 2), m=2, c=2, eps=eps)


def test_tau_bound_is_zero_from_the_diameter_up():
    """At eps >= D = 2m every pair is already within eps, so no round is needed."""
    report = verify_contraction(build_grid(2, 2), m=2, c=2)
    assert report.diameter == 4
    assert report.tau_bound(4.0) == 0.0
    assert report.tau_bound(100.0) == 0.0
    assert report.tau_bound(3.9) == pytest.approx(math.log(4 / 3.9) * 16)


def test_contraction_expected_distance_oracle():
    """Recompute one pair's expected coupled distance by brute request enumeration."""
    g = build_grid(2, 2)
    model = uniform_request_model(g, Fraction(1, 16), weights=Fraction(1))
    space = StateSpace(g, 2, 2)
    report = verify_contraction(g, m=2, c=2)
    arr = space.as_array()
    shares = report.shares()
    # report rows follow (x, u, v) order: x ascending, then the move
    assert (report.x[:-1] <= report.x[1:]).all()
    step = max(1, report.pair_count // 6)
    for x_rank, y_rank, t in zip(report.x[::step], report.y[::step], report.totals[::step]):
        x = tuple(int(v) for v in arr[x_rank])
        y = tuple(int(v) for v in arr[y_rank])
        expected = Fraction(0)
        for a in range(4):
            for b in range(4):
                expected += Fraction(1, 16) * pair_distance(
                    apply_request(x, a, b, 2), apply_request(y, a, b, 2)
                )
        assert expected == shares[int(t)][0]
        assert shares[int(t)][1] == expected / 2


def test_contraction_certificate_on_four_by_four():
    """The paper-scale gate: every one-move pair of 4x4, m=4, c=2 contracts at 1 - 1/n^2."""
    report = verify_contraction(build_grid(4, 4), m=4, c=2)
    assert report.pair_count == 184_800
    assert report.worst_beta == Fraction(255, 256)
    n2 = 16 * 16
    assert int(report.totals.max()) <= 2 * n2 * (1 - Fraction(1, n2))
