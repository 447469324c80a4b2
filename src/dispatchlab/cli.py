"""Command-line entry point: one binary, eight subcommands, reproducible outputs.

Each subcommand computes a ``Run``; only once it has succeeded does one
runner write its data files plus a ``manifest.json`` into ``--out``:
the resolved configuration, the seed actually used, digests of all inputs
and outputs, and an argv that replays the run exactly.  Numeric CSV cells
use 17 significant digits so byte-level diffs are meaningful across
platforms.  Configuration precedence is flags, then ``--config`` file
(flat ``key=value`` lines, ``#`` comments), then built-in defaults.

``--threads`` (default 1) is accepted and recorded but changes nothing:
one process steps all runs of an ensemble at once and reduces them in run
order, so there is no per-run loop to shard and no output depends on it.
It does not govern the mixing sweep's threads, which
``chain.mixing_analysis`` sizes from the usable CPUs, nor numpy's and
scipy's BLAS threads.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, ingest
from .chain import (
    MIXING_SIZE_LIMIT,
    build_transition,
    check_aperiodic,
    check_irreducible,
    limiting_objective,
    mixing_analysis,
    stationary_distribution,
    uniform_decay_envelope,
)
from .coupling import verify_contraction
from .csvblocks import Columns, quote, read_table, write_table as write_csv
from .errors import DispatchLabError
from .grid import RequestModel, build_grid, distance_weights, pair_matrices, uniform_request_model
from .mdp import (
    DEFAULT_DISCOUNT,
    DEFAULT_STATE_CAP,
    MdpInstance,
    bellman_residual,
    simulate_optimal_episode,
    value_iteration,
)
from .policies import parse_policy
from .rng import stream
from .simulate import (
    SimConfig,
    error_curves,
    fit_exponential,
    fit_inverse,
    initial_state_preset,
    run_ensemble,
)
from .states import StateSpace, format_state, parse_state

DEFAULT_EPSILONS = "0.25,0.01"
WEIGHTS_HELP = "const:X, distance, or file:PATH (default: const:1, or a model file's own weights)"


def g17(x) -> str:
    """Fixed 17-significant-digit rendering, as CSV tables write floats with ``%.17g``."""
    return f"{float(x):.17g}"


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _json_default(value):
    """``json``'s hook for what it cannot encode: numpy numbers and arrays, dates, dataclasses, else ``str``."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dt.date):  # a datetime too
        return value.isoformat()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    return str(value)  # a Fraction, a Path, a numpy bool


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def write_report(outdir: Path, name: str, payload: dict, fmt: str) -> str:
    """Emit a report as JSON or as a flattened key,value CSV."""
    if fmt == "json":
        filename = f"{name}.json"
        write_json(outdir / filename, payload)
        return filename

    def flatten(prefix, value, rows):
        if isinstance(value, dict):
            for k in sorted(value):
                flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
        else:  # a scalar as json reads it back; a list, tuple, array or dataclass as json text
            text = json.dumps(value, default=_json_default)
            leaf = json.loads(text)
            rows.append((prefix, text if isinstance(leaf, (list, dict)) else leaf))

    rows: list = []
    flatten("", payload, rows)
    filename = f"{name}.csv"
    keys = [quote(key) for key, _ in rows]
    values = [quote("" if value is None else str(value)) for _, value in rows]  # csv.writer's cells
    write_csv(outdir / filename, ["key", "value"], Columns("%s,%s", (keys, values)))
    return filename


# ---------------------------------------------------------------------------
# Flag parsing helpers


def parse_grid_spec(text: str) -> tuple[int, int]:
    try:
        rows, cols = text.lower().split("x")
        return int(rows), int(cols)
    except ValueError:
        raise ValueError(f"grid must look like 2x2 or 21x11, got {text!r}") from None


def parse_epsilons(text: str) -> list[float]:
    eps = [float(tok) for tok in text.split(",") if tok.strip()]
    bad = [e for e in eps if not 0 < e < math.inf]
    if bad:
        raise ValueError(f"mixing thresholds must be positive and finite, got {bad}")
    return eps


def parse_bbox_spec(text: str) -> ingest.Bbox:
    parts = [float(tok) for tok in text.split(",")]
    if len(parts) != 4:
        raise ValueError("bbox needs latmin,latmax,lonmin,lonmax")
    return ingest.Bbox(*parts)


def dates_match(spec: str, date: dt.date) -> bool:
    """Date filter: 'all', a comma list, or an inclusive 'first:last' range."""
    if spec == "all":
        return True
    if ":" in spec:
        first, last = (dt.date.fromisoformat(tok) for tok in spec.split(":", 1))
        if last < first:
            raise ValueError(f"empty date range {spec!r}")
        return first <= date <= last
    return date in {dt.date.fromisoformat(tok) for tok in spec.split(",") if tok.strip()}


def resolve_weights(spec: str, grid):
    """Weight flag: const:X, distance, or file:PATH of origin,dest,w rows."""
    if spec == "distance":
        return distance_weights(grid)
    if spec.startswith("const:"):
        return float(spec[len("const:") :])
    if spec.startswith("file:"):
        u, v, w = read_table(spec[len("file:") :], ("origin", "dest", "w"), (np.int64, np.int64, np.float64))
        return pair_matrices(grid, u, v, w)[0]
    raise ValueError(f"unknown weights spec {spec!r}; use const:X, distance, or file:PATH")


def resolve_arrivals(spec: str, grid, weights_spec: str | None):
    """Arrival flag: uniform:p, model:FILE, or replay:FILE.

    Returns (model, trace, input paths).  An unset weight flag (None) means
    const:1 for uniform arrivals and the model file's own weights for
    model:FILE; any value given overrides both.
    """
    if spec.startswith("uniform:"):
        p = float(spec[len("uniform:") :])
        weights = resolve_weights("const:1" if weights_spec is None else weights_spec, grid)
        return uniform_request_model(grid, p, weights=weights), None, []
    if spec.startswith("model:"):
        path = spec[len("model:") :]
        model = RequestModel.from_csv(path, grid)
        if weights_spec is not None:
            model = RequestModel(grid=grid, p=model.p, w=np.broadcast_to(
                np.asarray(resolve_weights(weights_spec, grid), dtype=float), (grid.n, grid.n)
            ).copy())
        return model, None, [path]
    if spec.startswith("replay:"):
        path = spec[len("replay:") :]
        return None, ingest.read_replay(path), [path]
    raise ValueError(f"unknown arrivals spec {spec!r}; use uniform:p, model:FILE, or replay:FILE")


def resolve_instance(options: dict, command: str):
    """Grid, fleet, policy and arrivals of the exact, mixing, simulate and vi commands.

    Returns (grid, m, c, policy, model, trace, inputs); policy is None for
    a command without a --policy flag.  Only simulate may replay a trace.
    """
    has_policy = "policy" in options
    require(options, "grid", "drivers", "capacity", "arrivals", *(("policy",) if has_policy else ()))
    grid = build_grid(*options["grid"])
    policy = parse_policy(options["policy"]) if has_policy else None
    model, trace, inputs = resolve_arrivals(options["arrivals"], grid, options["weights"])
    if trace is not None and command != "simulate":
        raise ValueError(f"the {command} subcommand needs an arrival law, not a replay trace")
    return grid, options["drivers"], options["capacity"], policy, model, trace, inputs


def resolve_init(spec: str, grid, m: int, c: int) -> tuple[int, ...]:
    """Initial placement: a preset name, an inline count vector, or a file of one."""
    if spec in ("adversarial", "spread"):
        return initial_state_preset(grid, m, c, spec)
    if os.path.exists(spec):
        spec = Path(spec).read_text().strip()
    return parse_state(spec)


# ---------------------------------------------------------------------------
# Config resolution: flags > config file > defaults


class SubSpec:
    """One subcommand's flags with types and defaults, for layered resolution."""

    def __init__(self, parser: argparse.ArgumentParser):
        self.parser = parser
        self.options: dict[str, tuple] = {}

    def add(self, flag: str, type=str, default=None, help: str = "", choices=None):
        dest = flag.lstrip("-").replace("-", "_")
        self.parser.add_argument(flag, dest=dest, type=str, default=None, help=help)
        self.options[dest] = (type, default, tuple(choices) if choices else None)


def load_config_file(path) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def resolve_options(ns: argparse.Namespace, spec: SubSpec) -> dict:
    """Merge CLI values over config-file values over defaults, typed."""
    config: dict[str, str] = {}
    if getattr(ns, "config", None):
        config = load_config_file(ns.config)
        unknown = set(config) - set(spec.options)
        if unknown:
            raise ValueError(f"config file sets unknown keys: {sorted(unknown)}")
    out = {}
    for dest, (typ, default, choices) in spec.options.items():
        raw = getattr(ns, dest, None)
        if raw is None:
            raw = config.get(dest)
        value = default if raw is None else typ(raw)  # flags and config values are strings
        if choices and value is not None and value not in choices:
            raise ValueError(f"--{dest.replace('_', '-')} must be one of {choices}, got {value!r}")
        out[dest] = value
    return out


def require(options: dict, *keys: str) -> None:
    missing = [k for k in keys if options.get(k) is None]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise ValueError(f"missing required option(s): {flags}")


def resolve_seed(options: dict) -> int:
    """The run's seed: as configured, or freshly drawn and recorded."""
    if options.get("seed") is None:
        options["seed"] = int.from_bytes(os.urandom(4), "big")
    return int(options["seed"])


def finish_run(
    outdir: Path,
    command: str,
    argv: list[str],
    options: dict,
    outputs: list[str],
    inputs: list[str] | None = None,
    summary: dict | None = None,
) -> None:
    """Write the manifest that makes the run reproducible and auditable."""
    rerun = list(argv)
    if options.get("seed") is not None and "--seed" not in rerun:
        rerun += ["--seed", str(options["seed"])]
    manifest = {
        "command": command,
        "version": __version__,
        "argv": list(argv),
        "rerun_argv": rerun,
        "seed": options.get("seed"),
        "threads": options.get("threads"),
        "config": options,
        "inputs": {str(p): sha256_file(p) for p in (inputs or [])},
        "outputs": {name: sha256_file(outdir / name) for name in sorted(outputs)},
    }
    if summary is not None:
        manifest["summary"] = summary
    write_json(outdir / "manifest.json", manifest)


def make_outdir(options: dict) -> Path:
    outdir = Path(options.get("out") or "out")
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


@dataclasses.dataclass
class Run:
    """What a subcommand computed, written out only once all of it has succeeded.

    ``tables`` maps a CSV name to its header and ``Columns`` body,
    ``files`` maps any other output name to a writer taking its path, and
    ``report`` (None for none) is written as ``report_name`` in the
    ``--format`` asked for.
    """

    line: str
    report: dict | None
    tables: dict = dataclasses.field(default_factory=dict)
    files: dict = dataclasses.field(default_factory=dict)
    inputs: list = dataclasses.field(default_factory=list)
    report_name: str = "report"
    summary: dict | None = None


def write_run(command: str, argv: list[str], options: dict, run: Run) -> int:
    """Write a run's files, report and manifest into ``--out``, then print its line."""
    outdir = make_outdir(options)
    for name, (header, rows) in run.tables.items():
        write_csv(outdir / name, header, rows)
    for name, writer in run.files.items():
        writer(outdir / name)
    outputs = [*run.tables, *run.files]
    if run.report is not None:
        outputs.append(write_report(outdir, run.report_name, run.report, options["format"]))
    finish_run(outdir, command, argv, options, outputs, run.inputs, run.summary)
    print(run.line)
    return 0


# ---------------------------------------------------------------------------
# Subcommand handlers


def add_common(spec: SubSpec) -> None:
    spec.add("--out", type=str, default="out", help="output directory (default: out)")
    spec.add("--format", type=str, default="json", choices=("json", "csv"),
             help="report format: json (default) or key,value csv")
    spec.add("--threads", type=int, default=1,
             help="recorded only: one process steps all runs at once and reduces them in run order; "
                  "the mixing sweep and BLAS size their own threads")
    spec.parser.add_argument("--config", dest="config", default=None,
                             help="flat key=value config file; flags win over it")


def add_instance_flags(spec: SubSpec) -> None:
    spec.add("--grid", type=parse_grid_spec, help="grid as ROWSxCOLS, e.g. 2x2")
    spec.add("--drivers", type=int, help="fleet size m")
    spec.add("--capacity", type=int, help="per-location capacity c")


def add_chain_flags(spec: SubSpec) -> None:
    """Flags of the exact-chain commands, exact and mixing."""
    spec.add("--policy", help="policy spec: nadap:A[:lost], rand:PERM, greedy[:pool]")
    spec.add("--arrivals", help="uniform:p or model:FILE")
    spec.add("--weights", help=WEIGHTS_HELP)
    spec.add("--epsilons", default=DEFAULT_EPSILONS, help="mixing thresholds, comma separated")
    spec.add("--tmax", type=int, default=100_000, help="mixing horizon cap")


def state_cells(space: StateSpace) -> np.ndarray:
    """Each state of the space in rank order as a quoted CSV cell, an object array."""
    return np.array([quote(format_state(x)) for x in space.as_array().tolist()], dtype=object)


def mixing_outputs(options: dict, epsilons: list, tm, pi, n: int, m: int, start_ranks=None) -> tuple:
    """A chain's mixing analysis, its mixing.csv table, and the tau and envelope keys of its report."""
    envelope = uniform_decay_envelope(n, m) if options["arrivals"].startswith("uniform:") else None
    mixing = mixing_analysis(tm, pi, epsilons, options["tmax"],
                             start_ranks=start_ranks, envelope=envelope)
    curve = mixing.d_curve
    table = {"mixing.csv": (["t", "d_t"], Columns("%d,%.17g", (np.arange(len(curve)), curve)))}
    keys = {"tau": {g17(e): t for e, t in sorted(mixing.tau.items())}}
    if mixing.envelope is not None:
        keys["envelope"] = {"C": mixing.envelope[0], "beta": mixing.envelope[1]}
        keys["under_envelope"] = mixing.under_envelope()
    return mixing, table, keys


def cmd_exact(options) -> Run:
    epsilons = parse_epsilons(options["epsilons"])  # refused even where mixing is skipped
    grid, m, c, policy, model, _trace, inputs = resolve_instance(options, "exact")
    space = StateSpace(grid, m, c)
    tm = build_transition(space, model, policy)
    stat = stationary_distribution(tm)
    objective = float(limiting_objective(stat, model, policy))
    irreducible = check_irreducible(tm)
    aperiodic = check_aperiodic(tm)
    origin, dest = np.indices(stat.gamma.shape).reshape(2, -1)
    tables = {
        "stationary.csv": (["state", "pi"], Columns("%s,%.17g", (state_cells(space), stat.pi))),
        "gamma.csv": (["u", "v", "gamma"], Columns("%d,%d,%.17g", (origin, dest, stat.gamma.ravel()))),
    }
    report = {
        "states": space.size,
        "objective": objective,
        "irreducible": irreducible,
        "aperiodic": aperiodic,
        "residual": stat.residual,
        "method": stat.method,
        "iterations": stat.iterations,
        "orbits": tm.orbit_count,
        "policy": policy.label(),
    }
    if space.size <= MIXING_SIZE_LIMIT:
        _mixing, table, keys = mixing_outputs(options, epsilons, tm, stat.pi, grid.n, m)
        tables.update(table)
        report.update(keys)
    else:
        report["mixing"] = f"skipped: {space.size} states exceed the exhaustive limit"
    return Run(
        f"objective={g17(objective)} states={space.size} irreducible={irreducible} aperiodic={aperiodic}",
        report, tables, inputs=inputs,
    )


def cmd_mixing(options) -> Run:
    epsilons = parse_epsilons(options["epsilons"])
    grid, m, c, policy, model, _trace, inputs = resolve_instance(options, "mixing")
    space = StateSpace(grid, m, c)
    tm = build_transition(space, model, policy)
    stat = stationary_distribution(tm)
    start_ranks = None
    if options["starts"] is not None:
        k = int(options["starts"])
        if not (1 <= k <= space.size):
            raise ValueError(f"--starts must lie in [1, {space.size}]")
        seed = resolve_seed(options)
        start_ranks = stream(seed, 7).choice(space.size, size=k, replace=False)
    mixing, table, keys = mixing_outputs(options, epsilons, tm, stat.pi, grid.n, m, start_ranks)
    report = {
        "states": space.size,
        "exhaustive": mixing.exhaustive,
        "start_count": mixing.start_count,
        "orbits": tm.orbit_count,
        "policy": policy.label(),
        **keys,
    }
    taus = ", ".join(f"tau({e})={t}" for e, t in keys["tau"].items())
    return Run(f"states={space.size} {taus}", report, table, inputs=inputs)


def cmd_couple(options) -> Run:
    require(options, "grid", "drivers", "capacity")
    grid = build_grid(*options["grid"])
    eps = options["eps"]
    report = verify_contraction(grid, options["drivers"], options["capacity"], eps=eps)
    q = report.n ** 2  # E[d'] = totals / q and the ratio totals / 2q, each one correctly rounded quotient
    table = (
        ["pair_rank_x", "pair_rank_y", "expected_d_prime", "ratio"],
        Columns("%d,%d,%.17g,%.17g", (report.x, report.y, report.totals / q, report.totals / (2 * q))),
    )
    payload = {
        "n": report.n,
        "m": report.m,
        "c": report.c,
        "p": float(report.p),
        "pairs": report.pair_count,
        "worst_beta": float(report.worst_beta),
        "worst_beta_exact": str(report.worst_beta),
        "target": float(report.target),
        "diameter": report.diameter,
        "eps": eps,
        "tau_bound": report.tau_bound(eps),
    }
    line = (
        f"worst_beta={report.worst_beta} (target {report.target}) "
        f"tau_bound({g17(eps)})={g17(report.tau_bound(eps))} over {report.pair_count} pairs"
    )
    return Run(line, payload, {"coupling.csv": table}, summary=payload)


def cmd_simulate(options) -> Run:
    grid, m, c, policy, model, trace, inputs = resolve_instance(options, "simulate")
    estimator = options["estimator"]
    if estimator is None:
        estimator = "realized" if trace is not None else "conditional"
    T = options["rounds"]
    if T is None:
        if trace is None:
            raise ValueError("missing required option(s): --rounds")
        T = trace.rounds
    seed = resolve_seed(options)
    config = SimConfig(
        grid=grid,
        m=m,
        c=c,
        T=int(T),
        runs=options["runs"],
        seed=seed,
        policy=policy,
        model=model,
        trace=trace,
        initial_state=resolve_init(options["init"], grid, m, c),
        estimator=estimator,
    )
    series = run_ensemble(config)
    target = "tail"
    target_note = "tail mean"
    if model is not None:
        try:
            space = StateSpace(grid, m, c)
            if space.size <= MIXING_SIZE_LIMIT:
                stat = stationary_distribution(build_transition(space, model, policy))
                target = float(limiting_objective(stat, model, policy))
                target_note = "exact stationary objective"
        except DispatchLabError:
            pass
    series = error_curves(series, target=target)
    t_axis = np.arange(len(series.delta))
    pair = "%d,%.17g,%.17g"
    tables = {
        "wt.csv": (["t", "mean", "stderr"], Columns(pair, (t_axis, series.w_mean, series.w_stderr))),
        "obj.csv": (["T", "running_avg"], Columns("%d,%.17g", (t_axis + 1, series.obj_running))),
        "error.csv": (["t", "delta", "delta_hat"], Columns(pair, (t_axis, series.delta, series.delta_hat))),
    }
    fits: dict = {
        "target": series.target,
        "target_kind": series.target_kind,
        "target_note": target_note,
        "objective": series.obj,
        "objective_stderr": series.obj_stderr,
    }
    for key, fit, t, values in (("exponential", fit_exponential, t_axis, series.delta),
                                ("inverse", fit_inverse, t_axis + 1, series.delta_hat)):
        try:
            fits[key] = dataclasses.asdict(fit(t, values))
        except DispatchLabError as exc:
            fits[key] = {"error": str(exc)}
    line = (
        f"objective={g17(series.obj)} stderr={g17(series.obj_stderr)} "
        f"runs={series.runs} rounds={config.T} estimator={series.estimator}"
    )
    return Run(line, fits, tables, inputs=inputs, report_name="fit")


def cmd_vi(options) -> Run:
    grid, m, c, _policy, model, _trace, inputs = resolve_instance(options, "vi")
    instance = MdpInstance(
        grid, m, c, model, discount=options["discount"], cap=options["cap"]
    )
    result = value_iteration(instance, tol=options["tol"])
    seed = resolve_seed(options)
    init = None
    if options["init"] is not None:
        init = resolve_init(options["init"], grid, m, c)
    report = simulate_optimal_episode(
        instance, result, periods=options["periods"], seed=seed, initial_state=init
    )
    states = state_cells(instance.space)
    requests = np.array([*map(str, range(instance.n_requests)), "none"], dtype=object)
    # one row per (state, request), the state-major order of the (states, requests) tables
    keys = (np.repeat(states, len(requests)), np.tile(requests, len(states)))
    tables = {
        "values.csv": (["state", "request", "value"], Columns("%s,%s,%.17g", (*keys, result.values.ravel()))),
        "policy.csv": (["state", "request", "action"], Columns("%s,%s,%d", (*keys, result.policy.ravel()))),
        "heatmap.csv": (
            ["location", "time_covered", "drop_rate", "start_pct"],
            Columns("%d,%.17g,%.17g,%.17g",
                    (np.arange(grid.n), report.time_covered, report.drop_rate, report.start_pct)),
        ),
    }
    payload = {
        "augmented_states": instance.state_count,
        "sweeps": result.sweeps,
        "residual": result.residual,
        "bellman_recheck": bellman_residual(instance, result.values),
        "discount": instance.discount,
        "episode_periods": report.periods,
        "episode_served": report.served,
    }
    line = (
        f"augmented_states={instance.state_count} sweeps={result.sweeps} "
        f"residual={result.residual:.3e} served={report.served}/{report.periods}"
    )
    return Run(line, payload, tables, inputs=inputs, summary=payload)


def cmd_ingest(options) -> Run:
    require(options, "input", "segment", "emit")
    rows, cols = options["grid"]
    bbox = options["bbox"]
    parsed = ingest.parse_trips(options["input"])
    records = ingest.filter_bbox(parsed.records, bbox)
    if options["subsample"] is not None:
        seed = resolve_seed(options)
        records = ingest.subsample_cars(records, int(options["subsample"]), seed)
    segmented = ingest.segment_by_time(records)
    segment = options["segment"]
    parts = segmented.parts[segment]
    dates = sorted(d for d in parts if dates_match(options["dates"], d))
    if not dates:
        raise ValueError(f"no trips fall in the {segment} segment for the requested dates")
    stats = {
        "parsed": len(parsed.records),
        "skipped": parsed.skipped,
        "in_bbox": len(records),
        "outside_segments": segmented.dropped,
        "segment": segment,
        "dates": [d.isoformat() for d in dates],
    }
    if options["emit"] == "model":
        estimate = ingest.estimate_segment_rates(segmented, segment, dates, rows, cols, bbox)
        files = {"model.csv": estimate.model.to_csv}
        stats.update(
            {"requests": estimate.requests, "slots": estimate.slots, "rescale": estimate.rescale}
        )
    else:
        if len(dates) != 1:
            raise ValueError(
                f"a replay trace covers one date; {len(dates)} match (pass --dates)"
            )
        trace = ingest.build_replay(parts[dates[0]], segment, dates[0], rows, cols, bbox)
        files = {"replay.csv": lambda path: ingest.write_replay(path, trace)}
        stats.update({"entries": len(trace), "rounds": trace.rounds})
    line = (
        f"parsed={stats['parsed']} skipped={stats['skipped']} in_bbox={stats['in_bbox']} "
        f"emit={options['emit']} dates={len(dates)}"
    )
    return Run(line, stats, files=files, inputs=[options["input"]], summary=stats)


def cmd_fit(options) -> Run:
    require(options, "input")
    t, values = read_table(options["input"], (options["t_column"], options["value_column"]),
                           (np.float64, np.float64))
    fit = fit_exponential if options["kind"] == "exp" else fit_inverse
    payload = {"kind": options["kind"], **dataclasses.asdict(fit(t, values))}
    line = " ".join(f"{k}={v}" for k, v in payload.items())
    return Run(line, payload, inputs=[options["input"]], report_name="fit", summary=payload)


def cmd_fixture(options) -> Run:
    seed = resolve_seed(options)
    trips, cars = options["trips"], options["cars"]
    if trips < 0:
        raise ValueError(f"--trips must be >= 0, got {trips}")
    if not 1 <= cars <= ingest.FIXTURE_MAX_CARS:
        raise ValueError(f"--cars must lie in [1, {ingest.FIXTURE_MAX_CARS}], got {cars}")
    files = {"trips.csv": lambda path: ingest.make_fixture(path, trips=trips, seed=seed, cars=cars)}
    line = f"wrote {trips} rows to {Path(options['out'] or 'out') / 'trips.csv'}"
    return Run(line, None, files=files, summary={"rows": trips})


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispatchlab",
        description="Exact and simulated analysis of grid rideshare dispatch chains.",
    )
    parser.add_argument("--version", action="version", version=f"dispatchlab {__version__}")
    subparsers = parser.add_subparsers(dest="command", metavar="COMMAND")

    def new_sub(name: str, help: str, handler) -> SubSpec:
        sub = subparsers.add_parser(name, help=help, description=help)
        spec = SubSpec(sub)
        sub.set_defaults(handler=handler, spec=spec)
        return spec

    spec = new_sub("exact", "Stationary distribution, occupancy maps, and limiting objective.", cmd_exact)
    add_instance_flags(spec)
    add_chain_flags(spec)
    add_common(spec)

    spec = new_sub("mixing", "Worst-start distance to stationarity and mixing times.", cmd_mixing)
    add_instance_flags(spec)
    add_chain_flags(spec)
    spec.add("--starts", type=int, help="random start sample size (required above the exhaustive limit)")
    spec.add("--seed", type=int, help="seed for the start sample")
    add_common(spec)

    spec = new_sub("couple", "Exhaustive one-step coupling contraction certificate.", cmd_couple)
    add_instance_flags(spec)
    spec.add("--eps", type=float, default=0.01, help="mixing threshold for the tau bound")
    add_common(spec)

    spec = new_sub("simulate", "Seeded Monte-Carlo convergence experiments.", cmd_simulate)
    add_instance_flags(spec)
    spec.add("--policy", help="policy spec")
    spec.add("--rounds", type=int, help="horizon T (replay default: trace length)")
    spec.add("--runs", type=int, default=100, help="replications")
    spec.add("--seed", type=int, help="master seed (random if omitted, recorded)")
    spec.add("--init", default="adversarial", help="adversarial, spread, counts, or a file")
    spec.add("--arrivals", help="uniform:p, model:FILE, or replay:FILE")
    spec.add("--weights", help=WEIGHTS_HELP)
    spec.add("--estimator", choices=("conditional", "realized"),
             help="profit estimator (default: conditional, replay: realized)")
    add_common(spec)

    spec = new_sub("vi", "Optimal dispatch by value iteration plus an episode heatmap.", cmd_vi)
    add_instance_flags(spec)
    spec.add("--arrivals", help="uniform:p or model:FILE")
    spec.add("--weights", help=WEIGHTS_HELP)
    spec.add("--discount", type=float, default=DEFAULT_DISCOUNT, help="discount factor in (0,1)")
    spec.add("--tol", type=float, default=1e-8, help="sup-norm convergence tolerance")
    spec.add("--cap", type=int, default=DEFAULT_STATE_CAP, help="augmented state cap")
    spec.add("--periods", type=int, default=1000, help="episode length")
    spec.add("--seed", type=int, help="episode seed")
    spec.add("--init", help="episode start: adversarial, spread, counts, or a file")
    add_common(spec)

    spec = new_sub("ingest", "Trip CSV to arrival model or replay trace.", cmd_ingest)
    spec.add("--input", help="trip records CSV")
    spec.add("--bbox", type=parse_bbox_spec, default=ingest.DEFAULT_BBOX,
             help="latmin,latmax,lonmin,lonmax (default: the stock box)")
    spec.add("--grid", type=parse_grid_spec, default=(ingest.DEFAULT_GRID_ROWS, ingest.DEFAULT_GRID_COLS),
             help="binning grid (default 21x11)")
    spec.add("--segment", choices=tuple(ingest.SEGMENTS),
             help="morning, afternoon, or evening")
    spec.add("--dates", default="all",
             help="'all', comma list, or inclusive first:last range")
    spec.add("--subsample", type=int, help="keep trips of this many seeded-random cars")
    spec.add("--seed", type=int, help="subsample seed")
    spec.add("--emit", choices=("model", "replay"), help="output kind")
    add_common(spec)

    spec = new_sub("fit", "Fit a decay law to a stored curve.", cmd_fit)
    spec.add("--input", help="CSV with the curve")
    spec.add("--t-column", default="t", help="time column name (default t)")
    spec.add("--value-column", default="delta", help="value column name (default delta)")
    spec.add("--kind", default="exp", choices=("exp", "inverse"), help="decay law")
    add_common(spec)

    spec = new_sub("fixture", "Deterministic synthetic trip CSV in the stock schema.", cmd_fixture)
    spec.add("--trips", type=int, default=1000, help="row count")
    spec.add("--cars", type=int, default=40, help="distinct car count")
    spec.add("--seed", type=int, help="generator seed (random if omitted, recorded)")
    add_common(spec)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(ns, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        options = resolve_options(ns, ns.spec)
        return write_run(ns.command, argv, options, ns.handler(options))
    except (DispatchLabError, ValueError, OSError) as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
