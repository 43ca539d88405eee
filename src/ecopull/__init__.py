"""Energy and retrieval-quality toolkit for TinyML-filtered IoT image pulls.

Devices score stored images against a semantic query with an on-board
behavior model, compress the relevant ones with a tiny generative encoder,
and contend for uplink slots; the toolkit simulates the protocol, evaluates
the expected retrieval score exactly or by Metropolis sampling, models the
device energy budget, and reproduces the parameter sweeps and baseline
comparisons.

The exported names resolve on first use (PEP 562): ``import ecopull``
loads no submodule, and ``ecopull.simulate`` imports ``ecopull.sim`` and
returns the very object that module defines. A submodule is an attribute
once it is imported (``import ecopull.sim``). A short run, such as one
``ecopull`` command, so compiles only the modules it calls.
"""

import importlib

__version__ = "0.1.0"

# the submodule that defines each exported name
_EXPORTS = {
    "analytic": ("ChainResult", "expected_sifi_exact", "mcmc_expected_sifi",
                 "omega_nonempty_probability", "p_delta", "run_chain",
                 "sifi_affine"),
    "baselines": ("baseline_energy", "energy_saving_ratio",
                  "tinyairnet_energy"),
    "config": ("BetaTruth", "ConfigError", "HardwareProfile", "ImageGeometry",
               "ModelCost", "PNG_BPP", "RadioProfile", "ScenarioConfig",
               "TruthDistribution", "UniformTruth", "apply_overrides",
               "dump_config", "load_config", "packet_bits", "save_config",
               "slots_for_rate"),
    "energy": ("communication_energy", "computation_energy",
               "expected_total_energy", "fixed_overhead_energy",
               "model_load_total", "p_th", "per_relevant_image_energy"),
    "experiments": ("CompareRow", "GridPoint", "OptimizationResult",
                    "SweepRow", "compare_schemes", "default_rate_grid",
                    "default_vth_grid", "optimize", "sweep_sifi_vs_rate"),
    "_tabular": ("render_csv",),
    "hardware": ("InferenceBreakdown", "e_dram_access", "e_muac",
                 "inference_breakdown", "inference_energy",
                 "model_load_energy"),
    "sifi": ("FIDELITY_BASE", "fidelity_distance"),
    "sim": ("RoundOutcome", "RoundStats", "SimAggregate", "run_round",
            "simulate"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # nothing is cached here, so a name always reads its module's binding
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
