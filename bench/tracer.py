"""Span tracing of ecopull's layers, applied from outside the package.

The traced run replaces public functions of each ecopull module with timing
wrappers. ``from .x import y`` copies the binding into every importing
module, so a function is replaced at every module global that holds it, not
only where it is defined. Methods are replaced on their class.

Spans stay in memory as ``(op, parent, name, start, end)`` tuples, where
``op`` numbers the CLI call that caused the span and ``parent`` is the index
of the enclosing span (-1 for a root). They are written out once, after the
run. A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.op = -1
        self._stack: list = []
        self._patches: list = []

    def wrap(self, name, fn, count=None):
        """``fn`` recording one span per call; ``count(tracer, args, kwargs, result)``
        adds counters from the call's arguments and result."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self.op, parent, name, start, end)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def patch_function(self, module, attr, name, count=None):
        """Replace ``module.attr`` at every ``ecopull`` module global bound to it."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ecopull"
                                   or mod_name.startswith("ecopull.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._patches.append((mod, key, original))

    def patch_method(self, cls, attr, name):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original))
        self._patches.append((cls, attr, original))

    def restore(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def totals(self):
        """Per span name: call count, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for index, (_, _, name, start, end) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_time[index]
        return calls, total, own

    def write(self, path: Path):
        with open(path, "w", encoding="utf-8") as handle:
            for index, (op, parent, name, start, end) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "op": op,
                                         "parent": parent, "name": name,
                                         "start": start, "end": end}) + "\n")


def _count_rounds(tracer, args, kwargs, result):
    tracer.counters["sim.rounds"] += result.rounds


def _count_chain(tracer, args, kwargs, result):
    import ecopull.analytic
    bound = inspect.signature(ecopull.analytic.run_chain).bind(*args, **kwargs)
    bound.apply_defaults()
    steps = bound.arguments["samples"] + bound.arguments["burn_in"]
    tracer.counters["analytic.steps"] += steps
    tracer.counters["analytic.accepted"] += result.acceptance_rate * steps


def _count_grid(tracer, args, kwargs, result):
    tracer.counters["experiments.grid_points"] += len(result.grid)


def install(tracer: Tracer) -> None:
    """Wrap the public functions whose spans the per-layer metrics read."""
    import ecopull.analytic
    import ecopull.baselines
    import ecopull.cli
    import ecopull.config
    import ecopull.energy
    import ecopull.experiments
    import ecopull.sim

    functions = [
        (ecopull.cli, "load_config", "cli.load_config", None),
        (ecopull.cli, "apply_overrides", "cli.apply_overrides", None),
        (ecopull.cli, "render_csv", "cli.render_csv", None),
        (ecopull.sim, "simulate", "sim.simulate", _count_rounds),
        (ecopull.analytic, "run_chain", "analytic.run_chain", _count_chain),
        (ecopull.analytic, "sifi_affine", "analytic.sifi_affine", None),
        (ecopull.energy, "p_th", "energy.p_th", None),
        (ecopull.energy, "quad_interval", "energy.quad_interval", None),
        (ecopull.energy, "expected_total_energy",
         "energy.expected_total_energy", None),
        (ecopull.experiments, "optimize", "experiments.optimize", _count_grid),
        (ecopull.baselines, "baseline_energy", "baselines.baseline_energy", None),
        (ecopull.baselines, "tinyairnet_energy", "baselines.tinyairnet_energy",
         None),
        (ecopull.baselines, "energy_saving_ratio",
         "baselines.energy_saving_ratio", None),
    ]
    for module, attr, name, count in functions:
        tracer.patch_function(module, attr, name, count)
    tracer.patch_method(ecopull.config.ScenarioConfig, "__init__",
                        "config.construct")
    tracer.patch_method(ecopull.config.TruthDistribution, "validate",
                        "config.validate")


ROOT_SPAN = "cli.main"


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict:
    """Per-layer metrics, per traced CLI call unless the name says otherwise.

    A layer that does no work in the workload reports 0.
    """
    calls, total, own = tracer.totals()
    ops = calls[ROOT_SPAN]
    counters = tracer.counters
    rounds = counters["sim.rounds"]
    steps = counters["analytic.steps"]
    chains = calls["analytic.run_chain"]
    grid_points = counters["experiments.grid_points"]
    layer_self = sum(value for name, value in own.items() if name != ROOT_SPAN)
    return {
        "cli.config_s": (total["cli.load_config"]
                         + total["cli.apply_overrides"]) / ops,
        "cli.render_s": total["cli.render_csv"] / ops,
        "config.construct_calls": calls["config.construct"] / ops,
        "config.construct_self_s": own["config.construct"] / ops,
        "config.validate_calls": calls["config.validate"] / ops,
        "config.validate_s": total["config.validate"] / ops,
        "sim.rounds": rounds / ops,
        "sim.simulate_s": total["sim.simulate"] / ops,
        "sim.round_us": total["sim.simulate"] / rounds * 1e6 if rounds else 0.0,
        "analytic.chain_calls": chains / ops,
        "analytic.chain_steps": steps / ops,
        "analytic.chain_s": total["analytic.run_chain"] / ops,
        "analytic.step_ns": (total["analytic.run_chain"] / steps * 1e9
                             if steps else 0.0),
        "analytic.acceptance_rate": (counters["analytic.accepted"] / steps
                                     if steps else 0.0),
        "analytic.sifi_affine_calls": calls["analytic.sifi_affine"] / ops,
        "analytic.sifi_affine_self_s": own["analytic.sifi_affine"] / ops,
        "energy.p_th_calls": calls["energy.p_th"] / ops,
        "energy.p_th_s": total["energy.p_th"] / ops,
        "energy.quad_calls": calls["energy.quad_interval"] / ops,
        "energy.quad_s": total["energy.quad_interval"] / ops,
        "energy.expected_energy_calls": (calls["energy.expected_total_energy"]
                                         / ops),
        "energy.expected_energy_self_s": (own["energy.expected_total_energy"]
                                          / ops),
        "experiments.optimize_calls": calls["experiments.optimize"] / ops,
        "experiments.grid_points": grid_points / ops,
        "experiments.optimize_self_s": own["experiments.optimize"] / ops,
        "experiments.chain_reuse_ratio": (1.0 - chains / grid_points
                                          if grid_points else 0.0),
        "baselines.s": sum(value for name, value in own.items()
                           if name.startswith("baselines.")) / ops,
        "trace.overhead_ratio": overhead_ratio,
        "trace.attributed_ratio": layer_self / total[ROOT_SPAN],
    }
