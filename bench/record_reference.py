#!/usr/bin/env python3
"""Record the reference values the benchmark checks outputs against.

Run from the repository root, on a commit whose outputs are trusted:

    python3 bench/record_reference.py [--profile full|tiny ...] [--out bench/reference.json]

It runs each workload's checked jobs once per reference class (see
workloads.REFERENCE_CLASSES) where the inputs depend on the seed, and once
where they do not, and writes the observed values.  Existing profiles in
the output file that are not re-recorded are kept.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import workloads  # noqa: E402
from dispatchlab import cli  # noqa: E402


def run(job, workdir: Path) -> dict:
    outcome = job.run(workloads.job_dir(workdir, job))
    if outcome.rc != 0:
        raise SystemExit(f"{job.name} failed while recording: {outcome.stderr}")
    return outcome.values


def record_profile(profile: str, workdir: Path) -> dict:
    classes = range(workloads.REFERENCE_CLASSES)
    ref: dict = {}
    jobs = {j.name: j for j in workloads.exact_jobs(profile, 0, ref, {})}
    ref["exact"] = {p: run(jobs[f"exact {p}"], workdir) for p in workloads.POLICIES}
    couple = run(jobs["couple"], workdir)
    ref["couple"] = {k: couple[k] for k in ("worst_beta_exact", "pairs")}
    vi = run(jobs["vi"], workdir)
    ref["vi"] = {k: vi[k] for k in ("sweeps", "augmented_states")}
    taus, states = {}, None
    for cls in classes:
        job = next(j for j in workloads.exact_jobs(profile, cls, ref, {}) if j.name.startswith("mixing"))
        values = run(job, workdir)
        taus[str(cls)], states = values["tau"], values["states"]
    ref["mixing"] = {"states": states, "tau_by_class": taus}

    jobs = {j.name: j for j in workloads.ensemble_jobs(profile, 0, ref, {})}
    ref["ensemble"] = {p: run(jobs[f"simulate {p}"], workdir)["target"] for p in workloads.POLICIES}

    by_class = {}
    for cls in classes:
        fixture = workdir / "fixture"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(workloads.fixture_argv(profile, cls).split() + ["--out", str(fixture)])
        if rc != 0:
            raise SystemExit(f"fixture failed while recording class {cls}")
        trips = fixture / "trips.csv"
        inputs = workloads.city_inputs(workdir, trips)
        jobs = {j.name: j for j in workloads.city_jobs(profile, cls, ref, inputs)}
        model = run(jobs["ingest model"], workdir)
        replay = run(jobs["ingest replay"], workdir)
        greedy = run(jobs["simulate replay greedy"], workdir)
        by_class[str(cls)] = {
            "fixture_sha256": cli.sha256_file(trips),
            "in_bbox": model["in_bbox"],
            "requests": model["requests"],
            "entries": replay["entries"],
            "rounds": replay["rounds"],
            "greedy_replay_objective": greedy["objective"],
        }
        print(f"{profile}: class {cls} recorded", file=sys.stderr)
    ref["city"] = {"by_class": by_class}
    return ref


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--profile", action="append", choices=tuple(workloads.PROFILES))
    ap.add_argument("--out", type=Path, default=BENCH / "reference.json")
    args = ap.parse_args(argv)
    reference = json.loads(args.out.read_text()) if args.out.exists() else {}
    workdir = ROOT / ".bench_out" / f"record-{os.getpid()}"
    try:
        for profile in args.profile or list(workloads.PROFILES):
            reference[profile] = record_profile(profile, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    args.out.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
