"""The package namespace resolves each exported name on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ecopull

# each exported name's home, the module that defines it
HOMES = {
    "ecopull.analytic": ["ChainResult", "expected_sifi_exact",
                         "mcmc_expected_sifi", "p_delta", "run_chain",
                         "sifi_affine"],
    "ecopull.baselines": ["baseline_energy", "energy_saving_ratio",
                          "tinyairnet_energy"],
    "ecopull.config": ["BetaTruth", "ConfigError", "HardwareProfile",
                       "ImageGeometry", "ModelCost", "PNG_BPP",
                       "RadioProfile", "ScenarioConfig", "TruthDistribution",
                       "UniformTruth", "apply_overrides", "dump_config",
                       "load_config", "packet_bits", "save_config",
                       "slots_for_rate"],
    "ecopull.energy": ["communication_energy", "computation_energy",
                       "expected_total_energy", "fixed_overhead_energy",
                       "model_load_total", "p_th",
                       "per_relevant_image_energy"],
    "ecopull.experiments": ["CompareRow", "GridPoint", "OptimizationResult",
                            "SweepRow", "compare_schemes",
                            "default_rate_grid", "default_vth_grid",
                            "optimize", "sweep_sifi_vs_rate"],
    "ecopull._tabular": ["render_csv"],
    "ecopull.hardware": ["InferenceBreakdown", "e_dram_access", "e_muac",
                         "inference_breakdown", "inference_energy",
                         "model_load_energy"],
    "ecopull.sifi": ["FIDELITY_BASE", "fidelity_distance"],
    "ecopull.sim": ["RoundOutcome", "RoundStats", "SimAggregate", "run_round",
                    "simulate"],
}
EXPORTED = sorted(name for names in HOMES.values() for name in names)


def test_all_lists_the_55_exported_names():
    assert len(EXPORTED) == 55
    assert sorted(ecopull.__all__) == EXPORTED


def test_each_name_is_its_module_object():
    for module, names in HOMES.items():
        home = importlib.import_module(module)
        for name in names:
            assert getattr(ecopull, name) is getattr(home, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from ecopull import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == EXPORTED
    assert namespace["simulate"] is ecopull.simulate


def test_dir_lists_every_name():
    assert set(EXPORTED) <= set(dir(ecopull))
    assert "__version__" in dir(ecopull)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ecopull.no_such_name
    assert not hasattr(ecopull, "no_such_name")


def test_a_name_reads_its_module_binding(monkeypatch):
    # nothing is cached in the package, so a patched module is seen
    import ecopull.energy

    def patched(*args):
        return 0.5

    monkeypatch.setattr(ecopull.energy, "p_th", patched)
    assert ecopull.p_th is patched


def test_import_alone_loads_no_submodule():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p]))
    code = ("import sys\n"
            "import ecopull\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('ecopull')))\n")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert done.stdout.strip() == "['ecopull']"
