"""Outside-in tracing of dispatchlab for the benchmark's per-layer metrics.

``Tracing`` replaces each entry point listed in ``TARGETS`` with a wrapper
that records a span (wrapped name, start, end, parent span) around the
call, in every ``dispatchlab`` module namespace that binds the function,
and restores the originals on exit.  Counts are taken at the same call
boundaries.  Spans stay in memory until the traced pass ends; ``reduce``
then turns them into per-layer self times (a span's duration minus the
durations of its direct children), counts and rates.

Nothing in the program is changed on disk: the spans are the benchmark's
own, and they are the reference later in-program tracing is checked
against.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (layer, owner, attribute): owner is a module, or "module:Class" for a
# method.  A layer's metrics sum over every target mapped to it.
TARGETS = (
    ("grid.model", "dispatchlab.grid", "uniform_request_model"),
    ("grid.model", "dispatchlab.grid:RequestModel", "from_csv"),
    ("states.space", "dispatchlab.states:StateSpace", "__init__"),
    ("states.neighbor_pairs", "dispatchlab.states", "neighbor_pairs"),
    ("policies.esp", "dispatchlab.policies", "expected_step_profit"),
    ("policies.dispatch", "dispatchlab.policies", "dispatch"),
    ("chain.build_nadap", "dispatchlab.chain", "build_transition_nadap"),
    ("chain.build_rand", "dispatchlab.chain", "build_transition_rand"),
    ("chain.build_from_policy", "dispatchlab.chain", "build_transition_from_policy"),
    ("chain.to_csr", "dispatchlab.chain:TransitionMatrix", "to_csr"),
    ("chain.to_dense", "dispatchlab.chain:TransitionMatrix", "to_dense"),
    ("chain.stationary", "dispatchlab.chain", "stationary_distribution"),
    ("chain.structure", "dispatchlab.chain", "check_irreducible"),
    ("chain.structure", "dispatchlab.chain", "check_aperiodic"),
    ("chain.mixing", "dispatchlab.chain", "mixing_analysis"),
    ("chain.objective", "dispatchlab.chain", "limiting_objective"),
    ("coupling.verify", "dispatchlab.coupling", "verify_contraction"),
    ("simulate.ensemble", "dispatchlab.simulate", "run_ensemble"),
    ("simulate.fit", "dispatchlab.simulate", "error_curves"),
    ("simulate.fit", "dispatchlab.simulate", "fit_exponential"),
    ("simulate.fit", "dispatchlab.simulate", "fit_inverse"),
    ("mdp.vi", "dispatchlab.mdp", "value_iteration"),
    ("mdp.bellman", "dispatchlab.mdp", "bellman_residual"),
    ("mdp.episode", "dispatchlab.mdp", "simulate_policy_episode"),
    ("mdp.compare", "dispatchlab.mdp", "compare_policies"),
    ("ingest.parse", "dispatchlab.ingest", "parse_trips"),
    ("ingest.filter", "dispatchlab.ingest", "filter_bbox"),
    ("ingest.segment", "dispatchlab.ingest", "segment_by_time"),
    ("ingest.estimate", "dispatchlab.ingest", "estimate_rates"),
    ("ingest.replay_build", "dispatchlab.ingest", "build_replay"),
    ("ingest.replay_read", "dispatchlab.ingest", "read_replay"),
    ("rng.stream", "dispatchlab.rng", "stream"),
    ("cli.write", "dispatchlab.cli", "write_csv"),
    ("cli.write", "dispatchlab.cli", "write_report"),
    ("cli.write", "dispatchlab.grid:RequestModel", "to_csv"),
    ("cli.write", "dispatchlab.ingest", "write_replay"),
    ("cli.manifest", "dispatchlab.cli", "finish_run"),
    ("cli", "dispatchlab.cli", "main"),
)

# Per-element helpers run millions of times inside the layers above; a
# span around each would measure the tracer, not the program.
NEVER_WRAPPED = frozenset({
    "can_serve", "move", "rank", "unrank", "move_rank", "check_counts",
    "bin_point", "bin_to_grid", "apply_request", "pair_distance",
})

# Per-layer metrics in the order they are reported, with units.  Layer
# times are self times; rates divide by the layer's inclusive time.
LAYER_METRICS = {
    "grid.model_s": "s",
    "states.space_s": "s",
    "states.count": "count",
    "states.neighbor_pairs_s": "s",
    "states.neighbor_pairs.calls": "count",
    "states.pairs": "count",
    "policies.esp_s": "s",
    "policies.esp.calls": "count",
    "policies.esp_hit_rate": "ratio",
    "policies.dispatch_s": "s",
    "policies.dispatch.calls": "count",
    "chain.build_nadap_s": "s",
    "chain.build_rand_s": "s",
    "chain.build_from_policy_s": "s",
    "chain.build_states_per_s": "1/s",
    "chain.nnz": "count",
    "chain.to_csr.calls": "count",
    "chain.to_csr_s": "s",
    "chain.to_dense_s": "s",
    "chain.stationary_s": "s",
    "chain.stationary_true_residual": "l1",
    "chain.structure_s": "s",
    "chain.mixing_s": "s",
    "chain.mixing_steps": "count",
    "chain.objective_s": "s",
    "coupling.verify_s": "s",
    "coupling.pairs": "count",
    "coupling.pairs_per_s": "1/s",
    "simulate.ensemble_s": "s",
    "simulate.rounds": "count",
    "simulate.rounds_per_s": "1/s",
    "simulate.fit_s": "s",
    "mdp.vi_s": "s",
    "mdp.vi_sweeps": "count",
    "mdp.bellman_s": "s",
    "mdp.episode_s": "s",
    "mdp.episode_periods_per_s": "1/s",
    "mdp.compare_s": "s",
    "ingest.parse_s": "s",
    "ingest.rows": "count",
    "ingest.rows_per_s": "1/s",
    "ingest.filter_s": "s",
    "ingest.segment_s": "s",
    "ingest.estimate_s": "s",
    "ingest.replay_build_s": "s",
    "ingest.replay_read_s": "s",
    "rng.streams": "count",
    "rng.stream_s": "s",
    "cli.self_s": "s",
    "cli.write_s": "s",
    "cli.manifest_s": "s",
}

BUILDERS = ("chain.build_nadap", "chain.build_rand", "chain.build_from_policy")


def _after_space(rec, result, args, kwargs):
    rec.counts["states.count"] += args[0].size


def _after_pairs(rec, result, args, kwargs):
    rec.counts["states.pairs"] += len(result)


def _after_build(rec, result, args, kwargs):
    rec.counts["chain.states_built"] += result.size
    rec.kernels.append(result)


def _after_stationary(rec, result, args, kwargs):
    rec.solves.append((args[0] if args else kwargs["tm"], result.pi))


def _after_mixing(rec, result, args, kwargs):
    rec.counts["chain.mixing_steps"] += len(result.d_curve) - 1


def _after_couple(rec, result, args, kwargs):
    rec.counts["coupling.pairs"] += result.pair_count


def _after_ensemble(rec, result, args, kwargs):
    config = args[0] if args else kwargs["config"]
    rec.counts["simulate.rounds"] += config.runs * config.T
    if config.model is not None and config.estimator == "conditional":
        rec.counts["simulate.conditional_rounds"] += config.runs * config.T


def _after_vi(rec, result, args, kwargs):
    rec.counts["mdp.vi_sweeps"] += result.sweeps


def _after_episode(rec, result, args, kwargs):
    rec.counts["mdp.episode_periods"] += result[0].periods


def _after_parse(rec, result, args, kwargs):
    rec.counts["ingest.rows"] += len(result.records)


AFTER = {
    "StateSpace.__init__": _after_space,
    "neighbor_pairs": _after_pairs,
    "build_transition_nadap": _after_build,
    "build_transition_rand": _after_build,
    "build_transition_from_policy": _after_build,
    "stationary_distribution": _after_stationary,
    "mixing_analysis": _after_mixing,
    "verify_contraction": _after_couple,
    "run_ensemble": _after_ensemble,
    "value_iteration": _after_vi,
    "simulate_policy_episode": _after_episode,
    "parse_trips": _after_parse,
}


class Tracing:
    """Context manager: wrap the targets, record spans, restore on exit.

    It may be entered several times; spans and counts accumulate.
    ``absent`` lists targets that no longer exist; their layers simply
    record nothing, so a refactor that renames a function never fails the
    run.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.labels: list[str] = []
        self.layer_of: list[str] = []
        self.target = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict = defaultdict(float)
        self.kernels: list = []
        self.solves: list = []
        self.absent: list[str] = []
        self._tids: dict = {}
        self._patches: list = []

    def __enter__(self):
        for layer, owner, attr in self.targets:
            if attr in NEVER_WRAPPED:
                raise ValueError(f"{attr} is a per-element helper and is never wrapped")
            self._wrap(layer, owner, attr)
        return self

    def __exit__(self, *exc):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()
        return False

    def _wrap(self, layer: str, owner: str, attr: str) -> None:
        module_name, _, class_name = owner.partition(":")
        try:
            module = importlib.import_module(module_name)
            holder = getattr(module, class_name) if class_name else module
            raw = holder.__dict__[attr] if class_name else getattr(holder, attr)
        except (ImportError, AttributeError, KeyError):
            if f"{owner}.{attr}" not in self.absent:
                self.absent.append(f"{owner}.{attr}")
            return
        label = f"{class_name}.{attr}" if class_name else attr
        tid = self._tids.get((owner, attr))
        if tid is None:
            tid = self._tids[owner, attr] = len(self.labels)
            self.labels.append(label)
            self.layer_of.append(layer)
        if class_name:
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrapper = self._wrapper(tid, fn, AFTER.get(label))
            self._patches.append((holder, attr, raw))
            setattr(holder, attr, classmethod(wrapper) if is_classmethod else wrapper)
            return
        wrapper = self._wrapper(tid, raw, AFTER.get(label))
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "dispatchlab" or name.startswith("dispatchlab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    self._patches.append((mod, key, raw))
                    setattr(mod, key, wrapper)

    def _wrapper(self, tid: int, fn, after):
        rec = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(rec.start)
            rec.target.append(tid)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.start.append(clock())
            rec.end.append(0.0)
            rec.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = clock()
                rec.stack.pop()
            if after is not None:
                after(rec, result, args, kwargs)
            return result

        return wrapper

    def save(self, path) -> None:
        """Write the raw spans (npz) for offline inspection."""
        np.savez_compressed(
            path,
            labels=np.array(self.labels),
            layers=np.array(self.layer_of),
            target=np.frombuffer(self.target, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def reduce(self) -> dict:
        """Per-layer self times, counts and rates, keyed as in LAYER_METRICS."""
        target = np.frombuffer(self.target, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        own = dur.copy()
        nested = parent >= 0
        np.add.at(own, parent[nested], -dur[nested])
        layer_ids = {layer: i for i, layer in enumerate(dict.fromkeys(self.layer_of))}
        target_layer = np.array([layer_ids[l] for l in self.layer_of], dtype=np.int32)
        span_layer = target_layer[target]
        parent_layer = np.full(len(target), -1, dtype=np.int32)
        parent_layer[nested] = span_layer[parent[nested]]

        def self_s(layer):
            return float(own[span_layer == layer_ids[layer]].sum()) if layer in layer_ids else 0.0

        def inclusive_s(layer):
            # outermost spans of the layer only, so nested calls count once
            if layer not in layer_ids:
                return 0.0
            lid = layer_ids[layer]
            return float(dur[(span_layer == lid) & (parent_layer != lid)].sum())

        def calls(layer):
            return float((span_layer == layer_ids[layer]).sum()) if layer in layer_ids else 0.0

        def rate(count, layer):
            t = inclusive_s(layer)
            return count / t if t > 0 else 0.0

        c = self.counts
        misses = 0.0
        if "policies.esp" in layer_ids and "simulate.ensemble" in layer_ids:
            esp = span_layer == layer_ids["policies.esp"]
            misses = float((esp & (parent_layer == layer_ids["simulate.ensemble"])).sum())
        conditional = c["simulate.conditional_rounds"]
        residual = 0.0
        for tm, pi in self.solves:
            P = type(tm).to_csr(tm)
            residual = max(residual, float(np.abs(pi @ P - pi).sum()))
        build_time = sum(inclusive_s(b) for b in BUILDERS)
        metrics = {
            "grid.model_s": self_s("grid.model"),
            "states.space_s": self_s("states.space"),
            "states.count": c["states.count"],
            "states.neighbor_pairs_s": self_s("states.neighbor_pairs"),
            "states.neighbor_pairs.calls": calls("states.neighbor_pairs"),
            "states.pairs": c["states.pairs"],
            "policies.esp_s": self_s("policies.esp"),
            "policies.esp.calls": calls("policies.esp"),
            "policies.esp_hit_rate": 1.0 - misses / conditional if conditional else 0.0,
            "policies.dispatch_s": self_s("policies.dispatch"),
            "policies.dispatch.calls": calls("policies.dispatch"),
            "chain.build_nadap_s": self_s("chain.build_nadap"),
            "chain.build_rand_s": self_s("chain.build_rand"),
            "chain.build_from_policy_s": self_s("chain.build_from_policy"),
            "chain.build_states_per_s": c["chain.states_built"] / build_time if build_time else 0.0,
            "chain.nnz": float(sum(sum(len(row) for row in tm.rows) for tm in self.kernels)),
            "chain.to_csr.calls": calls("chain.to_csr"),
            "chain.to_csr_s": self_s("chain.to_csr"),
            "chain.to_dense_s": self_s("chain.to_dense"),
            "chain.stationary_s": self_s("chain.stationary"),
            "chain.stationary_true_residual": residual,
            "chain.structure_s": self_s("chain.structure"),
            "chain.mixing_s": self_s("chain.mixing"),
            "chain.mixing_steps": c["chain.mixing_steps"],
            "chain.objective_s": self_s("chain.objective"),
            "coupling.verify_s": self_s("coupling.verify"),
            "coupling.pairs": c["coupling.pairs"],
            "coupling.pairs_per_s": rate(c["coupling.pairs"], "coupling.verify"),
            "simulate.ensemble_s": self_s("simulate.ensemble"),
            "simulate.rounds": c["simulate.rounds"],
            "simulate.rounds_per_s": rate(c["simulate.rounds"], "simulate.ensemble"),
            "simulate.fit_s": self_s("simulate.fit"),
            "mdp.vi_s": self_s("mdp.vi"),
            "mdp.vi_sweeps": c["mdp.vi_sweeps"],
            "mdp.bellman_s": self_s("mdp.bellman"),
            "mdp.episode_s": self_s("mdp.episode"),
            "mdp.episode_periods_per_s": rate(c["mdp.episode_periods"], "mdp.episode"),
            "mdp.compare_s": self_s("mdp.compare"),
            "ingest.parse_s": self_s("ingest.parse"),
            "ingest.rows": c["ingest.rows"],
            "ingest.rows_per_s": rate(c["ingest.rows"], "ingest.parse"),
            "ingest.filter_s": self_s("ingest.filter"),
            "ingest.segment_s": self_s("ingest.segment"),
            "ingest.estimate_s": self_s("ingest.estimate"),
            "ingest.replay_build_s": self_s("ingest.replay_build"),
            "ingest.replay_read_s": self_s("ingest.replay_read"),
            "rng.streams": calls("rng.stream"),
            "rng.stream_s": self_s("rng.stream"),
            "cli.self_s": self_s("cli"),
            "cli.write_s": self_s("cli.write"),
            "cli.manifest_s": self_s("cli.manifest"),
        }
        if list(metrics) != list(LAYER_METRICS):
            raise RuntimeError("reduce() and LAYER_METRICS list different metrics")
        return metrics
