"""Time and size the exact chain builder past the bench's 4x4 chains.

Each case runs in a fresh Python process, so its peak RSS is its own:

- 5x5, m=4, greedy (19,850 states)
- 5x5, m=5, greedy (110,630 states)
- 5x5, m=5, nadap:0.8 (110,630 states, solved on its 14,153 orbits)

Every case builds the kernel, runs the structure checks
(``check_irreducible`` and ``check_aperiodic``) on it, solves for its
stationary distribution, and reads ``gamma_map`` off pi, as ``exact`` does
for gamma.csv.  Arrivals are uniform, p = 1/n^2 on every ordered pair with
weight 1, and c = 2.  Each case prints one JSON line: states, kernel
entries (nnz), build, checks, solve and gamma seconds, ``ru_maxrss`` in MB
at the end of the case, the tracemalloc peaks of the build, the checks,
the solve and the gamma map in MB, with the kernel's size at 16 bytes an
entry for scale, the solve's method and power steps, and the first 16 hex
digits of the sha256 of pi's bytes, so two versions' answers can be
compared.

    PYTHONPATH=src python tools/exact_scale.py            # every case
    PYTHONPATH=src python tools/exact_scale.py --case greedy-19850
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc

CASES = {
    "greedy-19850": (4, "greedy"),
    "greedy-110630": (5, "greedy"),
    "nadap-110630": (5, "nadap:0.8"),
}


def measured(call, *args):
    """``call(*args)``, its seconds and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        result = call(*args)
        seconds = time.perf_counter() - t0
        return result, seconds, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_case(name: str) -> dict:
    from dispatchlab.chain import (build_transition, check_aperiodic, check_irreducible, gamma_map,
                                   stationary_distribution)
    from dispatchlab.grid import build_grid, uniform_request_model
    from dispatchlab.policies import parse_policy
    from dispatchlab.states import StateSpace
    from scipy.sparse import csgraph  # noqa: F401  (loaded here, so the checks' time and peak leave out its import)

    m, label = CASES[name]
    grid = build_grid(5, 5)
    model = uniform_request_model(grid, 1.0 / grid.n**2, weights=1.0)
    policy = parse_policy(label)
    space = StateSpace(grid, m, 2)
    tm, build_s, build_peak = measured(build_transition, space, model, policy)
    checks, checks_s, checks_peak = measured(lambda: (check_irreducible(tm), check_aperiodic(tm)))
    res, solve_s, solve_peak = measured(stationary_distribution, tm)
    _gamma, gamma_s, gamma_peak = measured(gamma_map, space, res.pi)
    return {
        "case": name,
        "states": space.size,
        "nnz": len(tm.data),
        "build_s": round(build_s, 3),
        "build_tracemalloc_peak_mb": round(build_peak / 2**20, 1),
        "kernel_mb_at_16_bytes": round(16 * len(tm.data) / 2**20, 1),
        "checks": checks,
        "checks_s": round(checks_s, 3),
        "checks_tracemalloc_peak_mb": round(checks_peak / 2**20, 1),
        "solve_s": round(solve_s, 3),
        "solve_tracemalloc_peak_mb": round(solve_peak / 2**20, 1),
        "gamma_s": round(gamma_s, 3),
        "gamma_tracemalloc_peak_mb": round(gamma_peak / 2**20, 1),
        "method": res.method,
        "iterations": res.iterations,
        "pi_sha256": hashlib.sha256(res.pi.tobytes()).hexdigest()[:16],
        "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", choices=sorted(CASES), help="run one case in this process")
    args = ap.parse_args()
    if args.case:
        print(json.dumps(run_case(args.case)), flush=True)
        return
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name in CASES:
        subprocess.run([sys.executable, __file__, "--case", name], env=env, check=True)


if __name__ == "__main__":
    main()
