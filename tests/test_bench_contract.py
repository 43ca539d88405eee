"""The benchmark's hooks into the package still hold.

``bench/run.py --trace 1`` wraps package functions by name and binds
``run_chain``'s ``samples`` and ``burn_in`` by name; ``bench/workloads.py``
imports package names and runs the chain with ``hastings=True``. A change
that deletes or renames one of them fails here, in well under a second,
instead of in a benchmark run. A command that held a library function
where the tracer cannot patch it would report a zero layer time, which
``bench/run.py --smoke`` does not catch; the traced CLI calls here do.
The tests only read ``bench/``.
"""

import importlib.util
import sys
from pathlib import Path

import ecopull.analytic
from ecopull import load_config
from ecopull.cli import main

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


def test_traced_cli_calls_reach_every_layer(monkeypatch, tmp_path, capsys):
    tracing = load_bench_module(monkeypatch, "tracer")
    tracer = tracing.Tracer()
    traced_main = tracer.wrap("cli.main", main)
    tracing.install(tracer)
    try:
        for argv in (["simulate", "--rounds", "2", "--set", "device_count=2",
                      "--set", "images_per_device=3"],
                     ["compare", "--n-grid", "5"]):
            tracer.op += 1
            assert traced_main(argv + ["--out", str(tmp_path)]) == 0, argv
    finally:
        tracer.restore()
    capsys.readouterr()
    calls, _, _ = tracer.totals()
    assert calls["cli.main"] == 2
    for name in ("sim.simulate", "cli.load_config", "cli.render_csv",
                 "experiments.optimize", "energy.p_th"):
        assert calls[name] >= 1, name
    assert tracer.counters["sim.rounds"] == 2
