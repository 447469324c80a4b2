#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread of each metric.

Run from the repository root:

    python3 bench/repeat.py --workload city --seeds 1-10 [--json FILE]

Timed runs (``--trace 0``, ``run_seconds`` from BENCHMARK.json) are made
one after another, each in its own process.  For every
metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) as a share
of the median, next to the bound BENCHMARK.json fixes for that metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(runs: list, bounds: dict) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": bounds.get(name),
            "values": values,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10")
    ap.add_argument("--json", type=Path, help="also write the summary here")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)
    summary = summarise(runs, bounds)
    for name, s in summary.items():
        bound = "" if s["bound"] is None else f"  bound {s['bound']:.2f}"
        print(f"{name:32s} median {s['median']:.6g} {s['unit']:5s} q1 {s['q1']:.6g} "
              f"q3 {s['q3']:.6g} spread {s['spread']:.2%}{bound}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                         "seconds": seconds,
                                         "correct": [r["correct"] for r in runs],
                                         "attempted": [r["attempted"] for r in runs],
                                         "failed": [r["failed"] for r in runs],
                                         "metrics": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
