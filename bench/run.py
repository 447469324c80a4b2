#!/usr/bin/env python3
"""Benchmark for dispatchlab: one workload per run, timed end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload exact|ensemble|city --seed N --seconds S --trace 0|1

Each run is one fresh single-threaded process (BLAS pinned to one thread)
that builds its inputs from ``--seed`` and calls dispatchlab in-process:
one client in a closed loop, one job after another (see workloads.py).

``--trace 0`` repeats the workload's job list until ``--seconds`` have
passed (always at least one full pass) and reports the end-to-end
metrics: ``setup_s`` (median of repeated set-ups), ``wall_s`` (one pass:
the sum of each job's median time) and ``peak_rss_mb``.

``--trace 1`` makes one untraced and one traced pass over the same jobs
and seed, alternating job by job, checks that both wrote identical
outputs, and reports the per-job command times of the untraced pass plus
the per-layer metrics of the traced one (see tracer.py).

Every operation's output is checked; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
fuller record (environment, every operation, notes) and the raw spans go
to ``.bench_out/`` under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set before numpy is first imported, so BLAS starts single-threaded.
BLAS_PIN = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(BLAS_PIN)
sys.path.insert(0, str(SRC))
try:
    import workloads
except ImportError as exc:
    sys.exit(f"error: cannot import dispatchlab from {SRC}: {exc}")
if not Path(workloads.cli.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"error: dispatchlab was imported from {workloads.cli.__file__}, not from {SRC}")

# Each set-up step is repeated this many times per timed run and its median
# reported: the import, and on city the trip fixture (4 s apiece).
IMPORT_REPEATS = 5
FIXTURE_REPEATS = 3

COMMAND_METRICS = ("exact_s", "mixing_s", "couple_s", "vi_s", "simulate_s", "compare_s", "ingest_s")


@dataclass
class Op:
    """One executed operation and its verdict."""

    name: str
    metric: str
    seconds: float
    problems: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    digest: str = ""

    @property
    def ok(self) -> bool:
        return not self.problems


def parse_args(argv):
    ap = argparse.ArgumentParser(description="dispatchlab benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="how long a timed run measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=("full", "tiny"), default="full",
                    help="tiny: small instances, for the benchmark's own tests")
    ap.add_argument("--reference", type=Path, default=BENCH / "reference.json",
                    help="recorded reference values")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_job(job, passdir: Path) -> Op:
    """Execute one job, time it, and check its outcome; never raises."""
    t0 = time.perf_counter()
    try:
        outcome = job.run(workloads.job_dir(passdir, job))
    except Exception:
        return Op(job.name, job.metric, time.perf_counter() - t0,
                  [traceback.format_exc(limit=4).strip()])
    op = Op(job.name, job.metric, outcome.seconds, values=outcome.values, digest=outcome.digest)
    if outcome.rc != 0:
        op.problems.append(f"exit code {outcome.rc}: {outcome.stderr}")
        return op
    try:
        op.problems.extend(job.check(outcome))
    except Exception:
        op.problems.append(traceback.format_exc(limit=4).strip())
    return op


def run_loop(jobs, passdir: Path, seconds: float) -> list:
    """Closed loop: jobs back to back until ``seconds`` pass, at least one full pass."""
    ops = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(jobs) or time.perf_counter() < deadline:
        ops.append(run_job(jobs[i % len(jobs)], passdir))
        i += 1
    return ops


def time_imports(repeats: int) -> list:
    """Seconds to start a fresh interpreter and import the CLI, ``repeats`` times."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import dispatchlab.cli"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def city_setup(args, ref, setupdir: Path, repeats: int):
    """Generate the trip fixture ``repeats`` times; keep the first copy."""
    from dispatchlab import cli

    argv = workloads.fixture_argv(args.profile, args.seed).split()
    ops, trips = [], setupdir / "fixture0" / "trips.csv"
    for i in range(repeats):
        outdir = setupdir / f"fixture{i}"
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv + ["--out", str(outdir)])
        op = Op("fixture", "setup_s", time.perf_counter() - t0)
        if rc != 0:
            op.problems.append(f"fixture exit code {rc}")
        else:
            op.problems.extend(
                workloads.check_fixture(args.seed, ref[args.profile], outdir / "trips.csv"))
        ops.append(op)
        if i:
            shutil.rmtree(outdir, ignore_errors=True)
    return trips, ops


def make_jobs(args, ref, passdir: Path, trips: Path | None):
    inputs = workloads.city_inputs(passdir, trips) if trips is not None else {}
    return workloads.build_jobs(args.workload, args.profile, args.seed, ref, inputs)


def job_medians(ops) -> dict:
    """Median seconds of each job name, in first-run order."""
    samples: dict = {}
    for op in ops:
        samples.setdefault(op.name, []).append(op.seconds)
    return {name: statistics.median(s) for name, s in samples.items()}


def command_times(ops) -> dict:
    """Per-command seconds of one pass: each job's median, summed by command."""
    metric_of = {op.name: op.metric for op in ops}
    out = dict.fromkeys(COMMAND_METRICS, 0.0)
    for name, seconds in job_medians(ops).items():
        out[metric_of[name]] += seconds
    return out


def environment(args) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_pin": {k: os.environ.get(k) for k in BLAS_PIN},
        "workload": args.workload,
        "seed": args.seed,
        "reference_class": workloads.reference_class(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "profile": args.profile,
    }


def notes_for(args, ops) -> list:
    """Known defects the run shows rather than hides."""
    notes = workloads.probe_known_defects() if args.workload == "city" else []
    for op in ops:
        rounds = op.values.get("rounds")
        if op.name.startswith("simulate replay") and rounds not in (None, workloads.SEGMENT_ROUNDS):
            notes.append(f"{op.name}: read_replay inferred {rounds} rounds, the "
                         f"{workloads.SEGMENT} segment has {workloads.SEGMENT_ROUNDS}")
    return sorted(set(notes))


def run_name(args) -> str:
    profile = "" if args.profile == "full" else f"{args.profile}-"
    return f"{profile}{args.workload}-seed{args.seed}"


def timed_run(args, ref, workdir: Path):
    imports = time_imports(IMPORT_REPEATS)
    setup_ops, trips = [], None
    if args.workload == "city":
        trips, setup_ops = city_setup(args, ref, workdir / "setup", FIXTURE_REPEATS)
    setup_s = statistics.median(imports)
    if setup_ops:
        setup_s += statistics.median(op.seconds for op in setup_ops)
    ops = run_loop(make_jobs(args, ref, workdir / "run", trips), workdir / "run", args.seconds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(job_medians(ops).values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"import_s": imports, "job_median_s": job_medians(ops)}
    return setup_ops + ops, metrics, extra


def traced_run(args, ref, workdir: Path):
    import tracer

    trips, setup_ops = None, []
    if args.workload == "city":
        trips, setup_ops = city_setup(args, ref, workdir / "setup", 1)
    # Untraced and traced runs of each job alternate, so both see the same
    # machine speed and trace.overhead_s is not swamped by drift.
    plain_dir, traced_dir = workdir / "plain", workdir / "traced"
    rec, plain, traced = tracer.Tracing(), [], []
    for plain_job, traced_job in zip(make_jobs(args, ref, plain_dir, trips),
                                     make_jobs(args, ref, traced_dir, trips)):
        a = run_job(plain_job, plain_dir)
        with rec:
            b = run_job(traced_job, traced_dir)
        if a.ok and b.ok and a.digest != b.digest:
            b.problems.append(f"traced output digest {b.digest[:12]} != untraced {a.digest[:12]}")
        plain.append(a)
        traced.append(b)
    layers = rec.reduce()
    rec.save(OUT / f"spans-{run_name(args)}.npz")
    ops = setup_ops + plain + traced
    plain_wall = sum(op.seconds for op in plain)
    traced_wall = sum(op.seconds for op in traced)
    metrics = {name: (value, "s") for name, value in command_times(plain).items()}
    metrics["ops"] = (len(ops), "count")
    metrics["ops_failed"] = (sum(not op.ok for op in ops), "count")
    metrics.update({name: (value, tracer.LAYER_METRICS[name]) for name, value in layers.items()})
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    extra = {"absent_targets": rec.absent}
    if rec.absent:
        print(f"trace: absent targets report no spans: {', '.join(rec.absent)}", file=sys.stderr)
    return ops, metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    ref = json.loads(args.reference.read_text())
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        run = traced_run if args.trace else timed_run
        ops, metrics, extra = run(args, ref, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for op in ops:
        for problem in op.problems:
            print(f"FAILED {op.name}: {problem}", file=sys.stderr)
    failed = sum(not op.ok for op in ops)
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "environment": environment(args),
        "result": result,
        "notes": notes_for(args, ops),
        "ops": [{"name": op.name, "seconds": op.seconds, "problems": op.problems} for op in ops],
        **extra,
    }
    (OUT / f"result-{run_name(args)}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    for note in record["notes"]:
        print(f"note: {note}", file=sys.stderr)
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
