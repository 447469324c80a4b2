"""Release acceptance checklist.

Each test here runs one numbered acceptance criterion end to end at its
stated tolerance and time budget, and prints exactly one
``[criterion NN] PASS|FAIL`` line (visible with -s / -rA, and always on
failure) before asserting.

Criterion 4 is split into its two clauses because they have different
fates: 4a (closed-form agreement) holds to 1e-12, while 4b pins the gap
against a leading-order reference whose amplitude the exact constants at
(n, m) = (50, 5) sit well below.  4b is implemented faithfully and kept
red rather than widened; see the README's acceptance notes.
"""

import csv
import datetime as dt
import hashlib
import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np

from dispatchlab.chain import (
    build_occupancy_pair_chain,
    build_transition,
    check_aperiodic,
    check_irreducible,
    exact_error_curves,
    limiting_objective,
    mixing_analysis,
    stationary_distribution,
    uniform_mixing_bound,
    uniform_profit_gap_bound,
)
from dispatchlab.cli import main
from dispatchlab.coupling import verify_contraction
from dispatchlab.grid import (
    build_grid,
    check_hotspot,
    request_model_from_pairs,
    uniform_request_model,
)
from dispatchlab.ingest import (
    DEFAULT_BBOX,
    build_replay,
    bin_point,
    estimate_rates,
    filter_bbox,
    make_fixture,
    parse_trips,
    segment_by_time,
)
from dispatchlab.mdp import MdpInstance, compare_policies, policy_value, value_iteration
from dispatchlab.policies import ALL_PHIS, PolicySpec, parse_policy
from dispatchlab.rng import stream
from dispatchlab.simulate import SimConfig, fit_exponential, initial_state_preset, run_ensemble
from dispatchlab.states import StateSpace
from oracles import (
    TripRecord,
    build_transition_from_policy,
    kernel_from_rows,
    matrix_gap_series,
    records_from_table,
    same_transitions,
    table_from_records,
)


def _verdict(num: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _square_uniform_instance():
    """The 2x2, m=2, c=2, p=1/16, unit-weight workhorse instance."""
    g = build_grid(2, 2)
    space = StateSpace(g, m=2, c=2)
    model = uniform_request_model(g, Fraction(1, 16), weights=1)
    return g, space, model


def test_criterion_01_closed_form_limit():
    t0 = time.perf_counter()
    g, space, model = _square_uniform_instance()
    tm = build_transition(space, model, PolicySpec("nadap", alpha=0.8))
    res = stationary_distribution(tm)
    obj = float(limiting_objective(res, model, parse_policy("nadap:0.8")))
    pi_err = float(np.abs(res.pi - 1.0 / space.size).max())
    elapsed = time.perf_counter() - t0
    ok = (
        space.size == 10
        and abs(obj - 0.4) <= 1e-10
        and pi_err <= 1e-10
        and elapsed < 1.0
    )
    _verdict(
        "01",
        ok,
        f"objective {obj:.12f} vs 0.4, max |pi - 1/10| = {pi_err:.2e} "
        f"(tol 1e-10), {elapsed:.2f}s < 1s",
    )


def test_criterion_02_transition_construction_oracle():
    """The array builder's rows equal per-request policy simulation, rationally."""
    t0 = time.perf_counter()
    mismatches = []
    instances = 0
    compared = 0
    for rows, cols in ((1, 2), (2, 2)):
        g = build_grid(rows, cols)
        n = g.n
        # asymmetric rational arrivals with full support, total mass < 0.3
        pairs = {
            (u, v): Fraction(1 + (3 * u + 5 * v) % 7, 25 * n * n)
            for u in range(n)
            for v in range(n)
        }
        model = request_model_from_pairs(g, pairs, weights=Fraction(1))
        for m in (1, 2, 3):
            for c in (1, 2):
                if m > c * n:
                    continue
                space = StateSpace(g, m=m, c=c)
                instances += 1
                for alpha in (Fraction(1, 2), Fraction(1)):
                    fast = build_transition(space, model, PolicySpec("nadap", alpha=alpha))
                    slow = build_transition_from_policy(
                        space, model, PolicySpec("nadap", alpha=alpha)
                    )
                    assert fast.exact and slow.exact
                    if not same_transitions(fast, slow, tol=0):
                        mismatches.append((rows, cols, m, c, "nadap", alpha))
                    compared += 1
                for phi in ALL_PHIS:
                    fast = build_transition(space, model, PolicySpec("rand", phi=tuple(phi)))
                    slow = build_transition_from_policy(
                        space, model, PolicySpec("rand", phi=tuple(phi))
                    )
                    assert fast.exact and slow.exact
                    if not same_transitions(fast, slow, tol=0):
                        mismatches.append((rows, cols, m, c, "rand", phi))
                    compared += 1
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 30.0
    _verdict(
        "02",
        ok,
        f"{compared} exact matrix comparisons over {instances} instances "
        f"(2 alphas + 24 scan orders each), {len(mismatches)} mismatches, "
        f"{elapsed:.1f}s < 30s",
    )


def test_criterion_03_coupling_contraction_and_mixing_bound():
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for rows, cols in ((2, 2), (3, 3)):
        g = build_grid(rows, cols)
        n = g.n
        model = uniform_request_model(g, Fraction(1, n * n), weights=Fraction(1))
        for c in (1, 2):
            for m in (1, 2, 3):
                rep = verify_contraction(g, m, c, eps=0.01)
                worst = float(rep.worst_beta)
                if not (rep.p == Fraction(1, n * n) and worst <= 1 - 1 / n**2 + 1e-12):
                    failures.append(("contraction", rows, cols, c, m, worst))
                space = StateSpace(g, m=m, c=c)
                tm = build_transition(space, model, PolicySpec("nadap", alpha=Fraction(1)))
                res = stationary_distribution(tm)
                bound = uniform_mixing_bound(n, m, 0.01)
                mix = mixing_analysis(tm, res.pi, [0.01], t_max=math.ceil(bound) + 1)
                tau = mix.tau[0.01]
                if not (mix.exhaustive and tau <= bound):
                    failures.append(("mixing", rows, cols, c, m, tau, bound))
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    _verdict(
        "03",
        ok,
        f"{checked} instances exhaustively coupled and mixed; worst ratio <= "
        f"1 - 1/n^2 + 1e-12 and tau(0.01) <= n^2 ln(2m/0.01) on each; "
        f"failures: {failures or 'none'}; {elapsed:.1f}s < 300s",
    )


def test_criterion_04a_pair_chain_closed_form():
    t0 = time.perf_counter()
    chain = build_occupancy_pair_chain(50, 5)
    closed = chain.gap_series(500)
    oracle = matrix_gap_series(chain, 500)
    err = float(np.abs(closed - oracle).max())
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-12 and elapsed < 1.0
    _verdict(
        "04a",
        ok,
        f"max |matrix-power gap - closed form| = {err:.2e} over t <= 500 "
        f"(tol 1e-12), {elapsed:.2f}s < 1s",
    )


def test_criterion_04b_pair_chain_reference_ratio():
    # Known red.  The reference (2m/n) e^{-t/n} carries the right decay rate
    # but not the exact amplitude: the gap's true prefactor at (50, 5) is the
    # A constant of gap(t), which sits near 0.7 of 2m/n across the whole
    # window, so the ratio never reaches the required [0.9, 1.1] band.  The
    # window is genuinely attained at large scale (see the (2000, 20) check
    # in test_chain.py); this test states the criterion as given and is left
    # failing rather than widened.
    t0 = time.perf_counter()
    chain = build_occupancy_pair_chain(50, 5)
    n = 50
    t = np.arange(10 * n, 20 * n + 1)
    ratio = chain.ratio_to_reference(t)
    lo, hi = float(ratio.min()), float(ratio.max())
    elapsed = time.perf_counter() - t0
    ok = lo >= 0.9 and hi <= 1.1 and elapsed < 1.0
    _verdict(
        "04b",
        ok,
        f"gap / ((2m/n) e^(-t/n)) spans [{lo:.4f}, {hi:.4f}] for t in "
        f"[{10 * n}, {20 * n}], required [0.9, 1.1]; {elapsed:.2f}s < 1s",
    )


def test_criterion_05_profit_gap_envelopes():
    t0 = time.perf_counter()
    g, space, model = _square_uniform_instance()
    spec = parse_policy("nadap:0.8")
    tm = build_transition(space, model, PolicySpec("nadap", alpha=0.8))
    res = stationary_distribution(tm)
    horizon = 10_001  # rounds 0..10^4 inclusive
    curves = exact_error_curves(
        tm, model, spec, initial_state_preset(g, 2, 2, "adversarial"), horizon, stationary=res
    )
    n, m = g.n, 2
    sum_w = float(model.sum_w)
    # the true curves satisfy the bounds with wide margin; the 1e-12 slack
    # only absorbs the double-precision floor the propagated curve parks at
    slack = 1e-12
    t = np.arange(horizon)
    point_margin = float((uniform_profit_gap_bound(n, m, sum_w, t) + slack - curves.delta).min())
    T = np.arange(1, 10_001)
    avg_products = curves.delta_hat[:10_000] * T
    cap = 4 * m * sum_w
    avg_margin = float((cap + slack - avg_products).min())
    elapsed = time.perf_counter() - t0
    ok = point_margin >= 0 and avg_margin >= 0 and elapsed < 10.0
    _verdict(
        "05",
        ok,
        f"delta(t) <= 4 m sum_w / (n^2 e^(t/n^2)) with min margin "
        f"{point_margin:.2e} and delta_hat(T) * T <= {cap:g} with min margin "
        f"{avg_margin:.3f}, all t, T <= 10^4; {elapsed:.1f}s < 10s",
    )


def test_criterion_06_monte_carlo_convergence():
    t0 = time.perf_counter()
    g, space, model = _square_uniform_instance()
    spec = parse_policy("nadap:0.8")
    start = initial_state_preset(g, 2, 2, "adversarial")
    config = SimConfig(
        grid=g, m=2, c=2, T=10_000, runs=1_000, seed=20260817,
        policy=spec, model=model, initial_state=start,
    )
    series = run_ensemble(config)
    sigma_off = abs(series.obj - 0.4) / series.obj_stderr

    tm = build_transition(space, model, PolicySpec("nadap", alpha=0.8))
    res = stationary_distribution(tm)
    curves = exact_error_curves(tm, model, spec, start, 10_000, stationary=res)
    # the exact curve is meaningful only above the double-precision floor it
    # parks at (~3e-16); fit the decay segment, cut three decades above that
    last = int(np.max(np.nonzero(curves.delta > 1e-12)[0]))
    fit = fit_exponential(np.arange(last + 1), curves.delta[: last + 1])
    elapsed = time.perf_counter() - t0
    ok = sigma_off <= 3.0 and fit.r2 >= 0.9 and fit.b > 0 and elapsed < 120.0
    _verdict(
        "06",
        ok,
        f"estimated objective {series.obj:.6f} is {sigma_off:.2f} stderr from "
        f"0.4 (<= 3) over 10^3 runs of 10^4 rounds; exact-curve exponential "
        f"fit R^2 = {fit.r2:.4f} (>= 0.9) on rounds 0..{last}; "
        f"{elapsed:.1f}s < 120s",
    )


def test_criterion_07_structural_guarantees():
    t0 = time.perf_counter()
    rng = stream(727)
    failures = []
    models = 0
    for rows, cols in ((2, 2), (3, 3)):
        g = build_grid(rows, cols)
        n = g.n
        space = StateSpace(g, m=2, c=2)
        for _ in range(10):
            u_star = int(rng.integers(n))
            pairs = {}
            for u in range(n):
                if u != u_star:
                    pairs[(u_star, u)] = Fraction(int(rng.integers(1, 8)))
                    pairs[(u, u_star)] = Fraction(int(rng.integers(1, 8)))
            for u in range(n):
                for v in range(n):
                    if rng.random() < 0.25:
                        pairs[(u, v)] = Fraction(int(rng.integers(1, 8)))
            total = sum(pairs.values())
            scale = Fraction(9, 10) / total
            pairs = {k: v * scale for k, v in pairs.items()}
            model = request_model_from_pairs(g, pairs, weights=1)
            if check_hotspot(model) is None:
                failures.append(("hotspot", rows, cols, u_star))
                continue
            models += 1
            for label, tm in (
                ("nadap", build_transition(space, model, PolicySpec("nadap", alpha=0.8))),
                ("rand", build_transition(space, model, PolicySpec("rand", phi=("N", "E", "S", "W")))),
            ):
                if not (check_irreducible(tm) and check_aperiodic(tm)):
                    failures.append((label, rows, cols, u_star))
    # a perfect two-state swap is irreducible but periodic and must be caught
    swap_space = StateSpace(build_grid(1, 2), m=1, c=1)
    swap = kernel_from_rows(swap_space, [{1: 1.0}, {0: 1.0}], None, False)
    if not check_irreducible(swap) or check_aperiodic(swap):
        failures.append(("period-2 swap escaped detection",))
    elapsed = time.perf_counter() - t0
    ok = models == 20 and not failures and elapsed < 30.0
    _verdict(
        "07",
        ok,
        f"{models} randomized hot-spot models x two constructions all "
        f"irreducible and aperiodic; period-2 swap rejected; failures: "
        f"{failures or 'none'}; {elapsed:.1f}s < 30s",
    )


def test_criterion_08_value_iteration_oracles():
    t0 = time.perf_counter()
    g = build_grid(1, 2)
    inst = MdpInstance(grid=g, m=1, c=1, model=uniform_request_model(g, 0.25, weights=1))
    result = value_iteration(inst, tol=1e-12)
    table_cells = int(np.prod(result.policy.shape))
    best = np.full(result.values.shape, -np.inf)
    enumerated = 0
    for flat in itertools.product(range(inst.n_actions), repeat=table_cells):
        table = np.asarray(flat, dtype=np.int64).reshape(result.policy.shape)
        np.maximum(best, policy_value(inst, table), out=best)
        enumerated += 1
    enum_err = float(np.abs(best - result.values).max())

    sq = MdpInstance(
        grid=build_grid(2, 2), m=1, c=2,
        model=uniform_request_model(build_grid(2, 2), 0.0625, weights=None),
    )
    sq_result = value_iteration(sq, tol=1e-10)
    baselines = [parse_policy("nadap:0.8"), parse_policy("rand:NESW"), parse_policy("greedy")]
    returns = compare_policies(sq, sq_result, baselines, episodes=1_000, periods=200, seed=7)
    margins = {}
    for label, vals in returns.items():
        if label == "optimal":
            continue
        diff = returns["optimal"] - vals
        se = float(diff.std(ddof=1)) / math.sqrt(len(diff))
        margins[label] = float(diff.mean()) + 3.0 * se
    elapsed = time.perf_counter() - t0
    ok = (
        enumerated == 3**10
        and enum_err <= 1e-9
        and all(v >= 0 for v in margins.values())
        and elapsed < 120.0
    )
    _verdict(
        "08",
        ok,
        f"value iteration equals the max over all {enumerated} enumerable "
        f"action tables to {enum_err:.2e} (tol 1e-9); paired mean return gap "
        f"+ 3 sigma vs each baseline: "
        + ", ".join(f"{k} {v:+.4f}" for k, v in sorted(margins.items()))
        + f" (all >= 0); {elapsed:.1f}s < 120s",
    )


def _cell_coords(row: int, col: int) -> tuple[float, float]:
    """Center coordinates of a 21x11 cell inside the default box."""
    b = DEFAULT_BBOX
    lat = b.lat_min + (row + 0.5) * (b.lat_max - b.lat_min) / 21
    lon = b.lon_min + (col + 0.5) * (b.lon_max - b.lon_min) / 11
    return lat, lon


def _trip(car: str, pickup: dt.datetime, orig: tuple[int, int], dest: tuple[int, int]) -> TripRecord:
    plat, plon = _cell_coords(*orig)
    dlat, dlon = _cell_coords(*dest)
    return TripRecord(
        car_id=car,
        pickup_time=pickup,
        dropoff_time=pickup + dt.timedelta(minutes=9),
        pickup_lat=plat,
        pickup_lon=plon,
        dropoff_lat=dlat,
        dropoff_lon=dlon,
    )


def test_criterion_09_ingestion_pipeline(tmp_path):
    t0 = time.perf_counter()
    checks = {}

    # authored 1000-row fixture: deterministic bytes, fully parseable
    fix_a, fix_b = tmp_path / "a.csv", tmp_path / "b.csv"
    rows_a = make_fixture(fix_a, trips=1000, seed=9)
    make_fixture(fix_b, trips=1000, seed=9)
    checks["fixture"] = (
        rows_a == 1000
        and hashlib.sha256(fix_a.read_bytes()).hexdigest()
        == hashlib.sha256(fix_b.read_bytes()).hexdigest()
    )
    parsed = parse_trips(fix_a)
    checks["parse"] = len(parsed.records) == 1000 and parsed.skipped == 0

    # geofence: exactly the trips with both endpoints in the half-open box
    kept = filter_bbox(parsed.records)
    by_hand = [
        r
        for r in records_from_table(parsed.records)
        if DEFAULT_BBOX.contains(r.pickup_lat, r.pickup_lon)
        and DEFAULT_BBOX.contains(r.dropoff_lat, r.dropoff_lon)
    ]
    checks["bbox"] = records_from_table(kept) == by_hand and 0 < len(kept) < 1000

    # binning: the box midpoint lands in cell (10, 5)
    b = DEFAULT_BBOX
    mid = bin_point((b.lat_min + b.lat_max) / 2, (b.lon_min + b.lon_max) / 2)
    checks["binning"] = mid == (10, 5)

    # window boundaries: 07:00:00 opens the morning, 11:00:00 the afternoon
    day = dt.date(2013, 1, 15)
    at = lambda h, mi=0, s=0: dt.datetime.combine(day, dt.time(h, mi, s))
    seg = segment_by_time(
        table_from_records(
            [
                _trip("w1", at(7), (0, 0), (0, 3)),
                _trip("w2", at(11), (0, 0), (0, 3)),
                _trip("w3", at(6, 59, 59), (0, 0), (0, 3)),
            ]
        )
    )
    cars = lambda part: [r.car_id for r in records_from_table(part)] if part else []
    checks["segments"] = (
        cars(seg.parts["morning"].get(day)) == ["w1"]
        and cars(seg.parts["afternoon"].get(day)) == ["w2"]
        and seg.dropped == 1
    )

    # rate estimation: per-slot frequencies, so counts 6 and 3 give ratio 2
    est = estimate_rates([(0, 1)] * 6 + [(2, 3)] * 3, slots=14_400)
    checks["rates"] = (
        est.rescale == 1.0
        and est.model.p[0, 1] == 6 / 14_400
        and est.model.p[2, 3] == 3 / 14_400
        and est.model.p[0, 1] / est.model.p[2, 3] == 2.0
    )

    # replay through the simulator: three authored trips, hand-traced profits
    trips = [
        _trip("c1", at(7, 0, 0), (0, 0), (0, 3)),   # round 0, weight 3, served from cell 0
        _trip("c2", at(7, 0, 5), (5, 5), (5, 6)),   # round 5, weight 1, no driver: lost
        _trip("c3", at(7, 1, 0), (0, 3), (2, 3)),   # round 60, weight 2, served from cell 3
    ]
    trace = build_replay(table_from_records(trips), "morning")
    grid = build_grid(21, 11)
    start = (1,) + (0,) * (grid.n - 1)
    series = run_ensemble(
        SimConfig(
            grid=grid, m=1, c=1, T=trace.rounds, runs=1, seed=0,
            policy=parse_policy("greedy"), trace=trace,
            initial_state=start, estimator="realized",
        )
    )
    profits = series.w_mean
    checks["replay"] = (
        trace.rounds == 14_400
        and list(zip(*(c.tolist() for c in trace.columns))) == [(0, 0, 3, 3.0), (5, 60, 61, 1.0), (60, 3, 25, 2.0)]
        and profits[0] == 3.0
        and profits[5] == 0.0
        and profits[60] == 2.0
        and float(profits.sum()) == 5.0
        and series.obj == 5.0 / 14_400
    )

    elapsed = time.perf_counter() - t0
    failed = [k for k, v in checks.items() if not v]
    ok = not failed and elapsed < 10.0
    _verdict(
        "09",
        ok,
        f"fixture/parse/bbox/binning/segments/rates/replay all exact "
        f"(failed: {failed or 'none'}); {elapsed:.1f}s < 10s",
    )


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_10_manifest_rerun_byte_reproduction(tmp_path):
    seeds_dir = tmp_path / "seed-inputs"
    seeds_dir.mkdir()
    assert main(["fixture", "--trips", "120", "--seed", "21", "--out", str(seeds_dir / "fix")]) == 0
    trips = seeds_dir / "fix" / "trips.csv"
    curve = seeds_dir / "curve.csv"
    with open(curve, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "delta"])
        for t in range(40):
            writer.writerow([t, 2.0 * math.exp(-0.1 * t)])

    base = ["--grid", "2x2", "--drivers", "2", "--capacity", "2",
            "--arrivals", "uniform:0.0625"]
    cases = {
        "exact": ["exact"] + base + ["--policy", "nadap:0.8"],
        "mixing": ["mixing"] + base + ["--policy", "rand:NESW", "--epsilons", "0.25,0.01"],
        "couple": ["couple", "--grid", "2x2", "--drivers", "2", "--capacity", "2"],
        "simulate": ["simulate"] + base + ["--policy", "nadap:0.8",
                                           "--rounds", "40", "--runs", "3", "--seed", "11"],
        "vi": ["vi", "--grid", "2x2", "--drivers", "1", "--capacity", "2",
               "--arrivals", "uniform:0.0625", "--seed", "2", "--periods", "120"],
        "fit": ["fit", "--input", str(curve), "--kind", "exp"],
        "fixture": ["fixture", "--trips", "90", "--seed", "5"],
        "ingest": ["ingest", "--input", str(trips), "--segment", "morning", "--emit", "model"],
    }
    failures = []
    for name, argv in cases.items():
        first = tmp_path / f"{name}-t1"
        if main(argv + ["--threads", "1", "--out", str(first)]) != 0:
            failures.append((name, "first run failed"))
            continue
        manifest = json.loads((first / "manifest.json").read_text())
        rerun = list(manifest["rerun_argv"])
        second = tmp_path / f"{name}-t4"
        rerun[rerun.index("--out") + 1] = str(second)
        rerun[rerun.index("--threads") + 1] = "4"
        if main(rerun) != 0:
            failures.append((name, "rerun failed"))
            continue
        for fname, digest in manifest["outputs"].items():
            if _sha(first / fname) != digest or _sha(second / fname) != digest:
                failures.append((name, fname))
    ok = not failures
    _verdict(
        "10",
        ok,
        f"{len(cases)} subcommands re-run from their manifests reproduce "
        f"every output byte for byte across thread counts 1 and 4 "
        f"(failures: {failures or 'none'})",
    )
