"""The benchmark's hooks into the package still hold.

``bench/run.py --trace 1`` wraps package functions by name and binds
``run_chain``'s ``samples`` and ``burn_in`` by name; ``bench/workloads.py``
imports package names and runs the chain with ``hastings=True``. A change
that deletes or renames one of them fails here, in well under a second,
instead of in a benchmark run. The tests only read ``bench/``.
"""

import importlib.util
import sys
from pathlib import Path

import ecopull.analytic
from ecopull import load_config

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_the_package_and_restores_it(monkeypatch):
    tracing = load_bench_module(monkeypatch, "tracer")
    original = ecopull.analytic.run_chain
    tracer = tracing.Tracer()
    tracer.op = 0
    tracing.install(tracer)
    try:
        cfg = load_config({"device_count": 3, "images_per_device": 4})
        ecopull.analytic.mcmc_expected_sifi(cfg, 50, 0, burn_in=5,
                                            hastings=True)
    finally:
        tracer.restore()
    assert ecopull.analytic.run_chain is original
    calls, _, _ = tracer.totals()
    assert calls["analytic.run_chain"] == 1
    assert tracer.counters["analytic.steps"] == 55


def test_workloads_import(monkeypatch):
    workloads = load_bench_module(monkeypatch, "workloads")
    assert workloads.mcmc_expected_sifi is ecopull.analytic.mcmc_expected_sifi
