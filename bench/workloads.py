"""The benchmark's workloads: job lists, their inputs and their correctness checks.

A workload is a fixed list of jobs run one after another by one client.
Most jobs are ``dispatchlab.cli.main(argv)`` calls; the ``ensemble``
workload also calls ``dispatchlab.mdp.compare_policies``, which has no
subcommand.  Every job returns the values its check needs plus a digest
of the files it wrote, so a traced and an untraced pass over the same
seed can be compared byte for byte.

Two profiles exist: ``full`` is the benchmark, ``tiny`` has the same job
structure on small instances and only serves the benchmark's own tests.
Reference values for both live in ``reference.json`` and are produced by
``record_reference.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shlex
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from dispatchlab import cli, grid, mdp, policies

WORKLOADS = ("exact", "ensemble", "city")

# Seed-dependent inputs whose outputs are checked against recorded values
# (the trip fixture and the mixing start sample) draw from one of this many
# reference classes, chosen as ``seed % REFERENCE_CLASSES``.
REFERENCE_CLASSES = 16

POLICIES = ("nadap:0.8", "rand:NESW", "greedy")

# Fixed job parameters.  The full profile holds the benchmark's instances
# (grid, fleet, capacity, arrivals, policy); tiny shrinks instances,
# replications and horizons so the benchmark's own tests run in seconds.
PROFILES = {
    "full": {
        "exact": "--grid 4x4 --drivers 3 --capacity 2 --arrivals uniform:0.00390625",
        "mixing": "--grid 4x4 --drivers 4 --capacity 2 --arrivals uniform:0.00390625"
                  " --policy nadap:0.8 --starts 64",
        "couple": "--grid 3x3 --drivers 3 --capacity 2",
        "vi": "--grid 3x3 --drivers 4 --capacity 2 --arrivals uniform:0.012345679012345678"
              " --weights distance",
        "ensemble": "--grid 2x2 --drivers 2 --capacity 2 --arrivals uniform:0.0625"
                    " --rounds 10000 --runs 25",
        "compare": {"episodes": 100, "periods": 200},
        "fixture": {"trips": 100_000, "cars": 400},
        "replay_runs": 100,
        "city_rounds": 3600,
    },
    "tiny": {
        "exact": "--grid 2x2 --drivers 2 --capacity 2 --arrivals uniform:0.0625",
        "mixing": "--grid 2x2 --drivers 2 --capacity 2 --arrivals uniform:0.0625"
                  " --policy nadap:0.8 --starts 4",
        "couple": "--grid 2x2 --drivers 2 --capacity 2",
        "vi": "--grid 2x2 --drivers 1 --capacity 2 --arrivals uniform:0.0625 --weights distance",
        "ensemble": "--grid 2x2 --drivers 2 --capacity 2 --arrivals uniform:0.0625"
                    " --rounds 2000 --runs 10",
        "compare": {"episodes": 100, "periods": 50},
        "fixture": {"trips": 3000, "cars": 40},
        "replay_runs": 5,
        "city_rounds": 200,
    },
}

SEGMENT = "morning"
REPLAY_DATE = "2013-01-14"
SEGMENT_ROUNDS = 14400
# The paper's uniform rate 1/n^2 on the 21x11 grid (n = 231 cells).
CITY_UNIFORM_RATE = "1.874027848053822e-05"

# Known defects at the parent commit.  The benchmark runs only operations
# that succeed, so a defect's job is not an operation of any workload: each
# defect is probed once per run instead, and the run's notes say whether it
# still reproduces.  Once it no longer does, its job belongs in a workload.
KNOWN_DEFECTS = {
    "uniform 21x11": (
        "uniform_request_model rejects 1/231^2 on 21x11: the sequential probability "
        "sum drifts past PROB_TOL (ROADMAP open item 4)",
        lambda: cli.resolve_arrivals(f"uniform:{CITY_UNIFORM_RATE}", grid.build_grid(21, 11),
                                     "const:1"),
    ),
}


def probe_known_defects() -> list:
    """One note per known defect: whether it still reproduces."""
    notes = []
    for name, (why, probe) in KNOWN_DEFECTS.items():
        try:
            probe()
        except Exception as exc:
            notes.append(f"known defect {name} reproduces: {why} ({type(exc).__name__}: {exc})")
        else:
            notes.append(f"known defect {name} no longer reproduces: its job can join a workload")
    return notes


VI_BELLMAN_MAX = 1e-7
EXACT_REL_TOL = 1e-9
ENSEMBLE_SIGMAS = 4.0
COMPARE_SIGMAS = 3.0


@dataclass
class Outcome:
    """What one job produced: exit code, checkable values and output digest."""

    rc: int
    seconds: float
    values: dict = field(default_factory=dict)
    digest: str = ""
    stderr: str = ""


@dataclass
class Job:
    """One operation of a workload.

    ``metric`` is the end-to-end command metric its time adds to; ``run``
    executes it with output under a directory; ``check`` lists problems
    with an outcome against the references.
    """

    name: str
    metric: str
    run: Callable[[Path], Outcome]
    check: Callable[[Outcome], list]


def reference_class(seed: int) -> int:
    return seed % REFERENCE_CLASSES


def _digest_files(outdir: Path) -> str:
    """Digest of the output files a CLI run lists in its manifest."""
    manifest = json.loads((outdir / "manifest.json").read_text())
    return hashlib.sha256(json.dumps(manifest["outputs"], sort_keys=True).encode()).hexdigest()


def cli_job(name: str, metric: str, argv: str, extract, check) -> Job:
    """A job calling ``dispatchlab.cli.main`` in-process with output under a directory."""

    def run(outdir: Path) -> Outcome:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = cli.main(shlex.split(argv) + ["--out", str(outdir)])
            seconds = time.perf_counter() - t0
        if rc != 0:
            return Outcome(rc, seconds, stderr=err.getvalue().strip())
        return Outcome(rc, seconds, values=extract(outdir), digest=_digest_files(outdir))

    return Job(name, metric, run, check)


def _report(outdir: Path, name: str = "report.json") -> dict:
    return json.loads((outdir / name).read_text())


def _rel_close(a: float, b: float, tol: float = EXACT_REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(b), 1e-300)


def _expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


# ---------------------------------------------------------------------------
# exact: every exact layer, no Monte Carlo


def exact_jobs(profile: str, seed: int, ref: dict, inputs: dict) -> list:
    p = PROFILES[profile]
    cls = str(reference_class(seed))
    jobs = []
    for policy in POLICIES:

        def check(o, policy=policy):
            v, want, problems = o.values, ref["exact"][policy], []
            _expect(problems, v["states"] == want["states"], f"states {v['states']} != {want['states']}")
            _expect(problems, _rel_close(v["objective"], want["objective"]),
                    f"objective {v['objective']!r} != {want['objective']!r}")
            _expect(problems, v["tau"] == want["tau"], f"tau {v['tau']} != {want['tau']}")
            return problems

        jobs.append(cli_job(
            f"exact {policy}", "exact_s", f"exact {p['exact']} --policy {policy}",
            lambda d: {k: _report(d)[k] for k in ("states", "objective", "tau")}, check,
        ))

    def check_mixing(o):
        v, want, problems = o.values, ref["mixing"], []
        _expect(problems, v["states"] == want["states"], f"states {v['states']} != {want['states']}")
        _expect(problems, v["tau"] == want["tau_by_class"][cls],
                f"tau {v['tau']} != {want['tau_by_class'][cls]} (class {cls})")
        return problems

    jobs.append(cli_job(
        "mixing nadap:0.8", "mixing_s", f"mixing {p['mixing']} --seed {cls}",
        lambda d: {k: _report(d)[k] for k in ("states", "tau")}, check_mixing,
    ))

    def check_couple(o):
        v, want, problems = o.values, ref["couple"], []
        _expect(problems, v["worst_beta_exact"] == want["worst_beta_exact"],
                f"worst_beta {v['worst_beta_exact']} != {want['worst_beta_exact']}")
        _expect(problems, v["pairs"] == want["pairs"], f"pairs {v['pairs']} != {want['pairs']}")
        return problems

    jobs.append(cli_job(
        "couple", "couple_s", f"couple {p['couple']}",
        lambda d: {k: _report(d)[k] for k in ("worst_beta_exact", "pairs")}, check_couple,
    ))

    def check_vi(o):
        v, want, problems = o.values, ref["vi"], []
        _expect(problems, v["sweeps"] == want["sweeps"], f"sweeps {v['sweeps']} != {want['sweeps']}")
        _expect(problems, v["augmented_states"] == want["augmented_states"],
                f"augmented_states {v['augmented_states']} != {want['augmented_states']}")
        _expect(problems, v["bellman_recheck"] <= VI_BELLMAN_MAX,
                f"bellman_recheck {v['bellman_recheck']:.3e} > {VI_BELLMAN_MAX:.0e}")
        return problems

    jobs.append(cli_job(
        "vi", "vi_s", f"vi {p['vi']} --seed {seed}",
        lambda d: {k: _report(d)[k] for k in ("sweeps", "augmented_states", "bellman_recheck")},
        check_vi,
    ))
    return jobs


# ---------------------------------------------------------------------------
# ensemble: per-round Python stepping on a 10-placement chain


def _fit(outdir: Path) -> dict:
    fit = _report(outdir, "fit.json")
    with open(outdir / "wt.csv") as fh:
        rounds = sum(1 for _ in fh) - 1
    return {"objective": fit["objective"], "stderr": fit["objective_stderr"],
            "target": fit["target"], "rounds": rounds}


def _compare_job(profile: str, seed: int) -> Job:
    """compare_policies on acceptance criterion 08's instance."""
    p = PROFILES[profile]["compare"]

    def run(_outdir: Path) -> Outcome:
        t0 = time.perf_counter()
        g = grid.build_grid(2, 2)
        model = grid.uniform_request_model(g, 0.0625, weights=grid.distance_weights(g))
        instance = mdp.MdpInstance(grid=g, m=1, c=2, model=model)
        result = mdp.value_iteration(instance, tol=1e-10)
        baselines = [policies.parse_policy(text) for text in POLICIES]
        returns = mdp.compare_policies(
            instance, result, baselines, episodes=p["episodes"], periods=p["periods"], seed=seed
        )
        seconds = time.perf_counter() - t0
        h = hashlib.sha256()
        margins = {}
        for label in sorted(returns):
            h.update(label.encode() + returns[label].tobytes())
            if label != "optimal":
                diff = returns["optimal"] - returns[label]
                se = float(diff.std(ddof=1)) / math.sqrt(len(diff))
                margins[label] = float(diff.mean()) + COMPARE_SIGMAS * se
        return Outcome(0, seconds, values={"margins": margins}, digest=h.hexdigest())

    def check(o):
        margins, problems = o.values["margins"], []
        _expect(problems, len(margins) == len(POLICIES), f"baselines {sorted(margins)}")
        for label, margin in sorted(margins.items()):
            _expect(problems, margin >= 0, f"optimal loses to {label}: margin {margin:+.4f}")
        return problems

    return Job("compare_policies", "compare_s", run, check)


def ensemble_jobs(profile: str, seed: int, ref: dict, inputs: dict) -> list:
    p = PROFILES[profile]
    jobs = []
    for policy in POLICIES:

        def check(o, policy=policy):
            v, exact, problems = o.values, ref["ensemble"][policy], []
            _expect(problems, _rel_close(v["target"], exact),
                    f"exact target {v['target']!r} != {exact!r}")
            _expect(problems, v["stderr"] > 0, f"stderr {v['stderr']}")
            _expect(problems, abs(v["objective"] - exact) <= ENSEMBLE_SIGMAS * v["stderr"],
                    f"objective {v['objective']!r} more than {ENSEMBLE_SIGMAS:g} standard "
                    f"errors ({v['stderr']:.3g}) from {exact!r}")
            return problems

        jobs.append(cli_job(
            f"simulate {policy}", "simulate_s",
            f"simulate {p['ensemble']} --policy {policy} --seed {seed}", _fit, check,
        ))
    jobs.append(_compare_job(profile, seed))
    return jobs


# ---------------------------------------------------------------------------
# city: paper-scale ingest and 21x11 simulation


def fixture_argv(profile: str, seed: int) -> str:
    f = PROFILES[profile]["fixture"]
    return f"fixture --trips {f['trips']} --cars {f['cars']} --seed {reference_class(seed)}"


def check_fixture(seed: int, ref: dict, trips: Path) -> list:
    """The generated trip file must be the recorded one for its class (``ref``: one profile's)."""
    want = ref["city"]["by_class"][str(reference_class(seed))]["fixture_sha256"]
    got = cli.sha256_file(trips)
    return [] if got == want else [f"fixture sha256 {got} != recorded {want}"]


def _ingest_values(outdir: Path) -> dict:
    report = _report(outdir)
    return {k: report.get(k) for k in ("parsed", "skipped", "in_bbox", "requests",
                                       "entries", "rounds")}


def _sane_objective(problems: list, v: dict) -> None:
    _expect(problems, math.isfinite(v["objective"]) and v["objective"] >= 0,
            f"objective {v['objective']!r}")
    _expect(problems, math.isfinite(v["stderr"]) and v["stderr"] >= 0, f"stderr {v['stderr']!r}")


def city_jobs(profile: str, seed: int, ref: dict, inputs: dict) -> list:
    """City jobs; ``inputs`` names the trip file and the pass's ingest output dirs."""
    p = PROFILES[profile]
    rows = p["fixture"]["trips"]
    cls = str(reference_class(seed))
    trips = shlex.quote(str(inputs["trips"]))
    model = shlex.quote(f"model:{inputs['model_dir']}/model.csv")
    replay = shlex.quote(f"replay:{inputs['replay_dir']}/replay.csv")
    T = p["city_rounds"]

    def check_ingest(keys):
        def check(o):
            v, want, problems = o.values, ref["city"]["by_class"][cls], []
            _expect(problems, v["parsed"] == rows, f"parsed {v['parsed']} != {rows} generated rows")
            _expect(problems, v["skipped"] == 0, f"skipped {v['skipped']} rows")
            for k in keys:
                _expect(problems, v[k] == want[k], f"{k} {v[k]} != recorded {want[k]}")
            return problems
        return check

    def check_replay(deterministic):
        def check(o):
            v, want, problems = o.values, ref["city"]["by_class"][cls], []
            _sane_objective(problems, v)
            # read_replay infers the horizon from the last entry, so it may
            # fall short of the segment's length but never exceed it.
            _expect(problems, 0 < v["rounds"] <= SEGMENT_ROUNDS, f"rounds {v['rounds']}")
            if deterministic:
                _expect(problems, _rel_close(v["objective"], want["greedy_replay_objective"]),
                        f"objective {v['objective']!r} != recorded "
                        f"{want['greedy_replay_objective']!r}")
            return problems
        return check

    def check_sim(o):
        v, problems = o.values, []
        _sane_objective(problems, v)
        _expect(problems, v["rounds"] == T, f"rounds {v['rounds']} != {T}")
        return problems

    replay = f"simulate --grid 21x11 --drivers 5000 --capacity 50 --arrivals {replay}"
    city = "simulate --grid 21x11 --drivers 50 --capacity 2 --policy greedy"
    return [
        cli_job("ingest model", "ingest_s",
                f"ingest --input {trips} --segment {SEGMENT} --emit model",
                _ingest_values, check_ingest(("in_bbox", "requests"))),
        cli_job("ingest replay", "ingest_s",
                f"ingest --input {trips} --segment {SEGMENT} --emit replay --dates {REPLAY_DATE}",
                _ingest_values, check_ingest(("in_bbox", "entries", "rounds"))),
        cli_job("simulate replay nadap:0.8", "simulate_s",
                f"{replay} --policy nadap:0.8 --runs {p['replay_runs']} --seed {seed}",
                _fit, check_replay(False)),
        cli_job("simulate replay greedy", "simulate_s",
                f"{replay} --policy greedy --runs 1 --seed {seed}", _fit, check_replay(True)),
        cli_job("simulate model 21x11", "simulate_s",
                f"{city} --arrivals {model} --rounds {T} --runs 1 --seed {seed}",
                _fit, check_sim),
    ]


def build_jobs(workload: str, profile: str, seed: int, ref: dict, inputs: dict) -> list:
    builder = {"exact": exact_jobs, "ensemble": ensemble_jobs, "city": city_jobs}[workload]
    return builder(profile, seed, ref[profile], inputs)


def job_dir(passdir: Path, job: Job) -> Path:
    return passdir / job.name.replace(" ", "_").replace(":", "-")


def city_inputs(passdir: Path, trips: Path) -> dict:
    """Where a pass's city jobs read and write their inputs."""
    return {
        "trips": trips,
        "model_dir": passdir / "ingest_model",
        "replay_dir": passdir / "ingest_replay",
    }
