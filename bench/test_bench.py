"""The benchmark's own tests, on the tiny profile.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str) -> dict:
    """Run the benchmark on the tiny profile and return its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--profile", "tiny", "--seconds", "0.01", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def scratch():
    path = ROOT / ".bench_out" / f"test-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _metric_spec(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_timed(workload):
    result = bench("--workload", workload, "--seed", "5", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _metric_spec("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    result = bench("--workload", workload, "--seed", "6", "--trace", "1")
    # correct also requires the traced and untraced passes to write identical outputs
    assert result["correct"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _metric_spec("per_layer")
    assert metrics["ops"] == result["attempted"]
    assert metrics["ops_failed"] == result["failed"]
    self_times = sum(metrics[name] for name, unit in tracer.LAYER_METRICS.items() if unit == "s")
    assert 0 < self_times <= metrics["trace.wall_s"]


def test_corrupted_reference_fails(scratch):
    reference = json.loads((BENCH / "reference.json").read_text())
    reference["tiny"]["vi"]["sweeps"] += 1
    corrupted = scratch / "reference.json"
    corrupted.write_text(json.dumps(reference))
    result = bench("--workload", "exact", "--seed", "5", "--reference", str(corrupted))
    assert result["failed"] >= 1
    assert result["correct"] is False


def test_absent_target_is_reported_not_fatal():
    targets = tracer.TARGETS + (("mdp.vi", "dispatchlab.mdp", "no_such_function"),
                                ("mdp.vi", "dispatchlab.no_such_module", "value_iteration"))
    with tracer.Tracing(targets) as rec:
        pass
    assert rec.absent == ["dispatchlab.mdp.no_such_function",
                          "dispatchlab.no_such_module.value_iteration"]
    assert set(rec.reduce()) == set(tracer.LAYER_METRICS)


def test_known_defects_are_probed_not_run():
    notes = workloads.probe_known_defects()
    assert len(notes) == len(workloads.KNOWN_DEFECTS)
    assert all(note.startswith("known defect ") for note in notes)


def test_per_element_helpers_are_never_wrapped():
    with pytest.raises(ValueError):
        with tracer.Tracing((("states.space", "dispatchlab.states:StateSpace", "rank"),)):
            pass


def test_tracing_restores_every_binding():
    from dispatchlab import chain, cli

    before = (cli.build_transition_nadap, chain.build_transition_nadap, chain.TransitionMatrix.to_csr)
    with tracer.Tracing():
        assert cli.build_transition_nadap is not before[0]
        assert cli.build_transition_nadap is chain.build_transition_nadap
    assert (cli.build_transition_nadap, chain.build_transition_nadap,
            chain.TransitionMatrix.to_csr) == before


def test_benchmark_spec_matches_workloads():
    assert WORKLOADS == list(workloads.WORKLOADS)
    per_layer = _metric_spec("per_layer")
    for name, unit in tracer.LAYER_METRICS.items():
        assert per_layer[name] == unit
