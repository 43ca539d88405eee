"""Energy and retrieval-quality toolkit for TinyML-filtered IoT image pulls.

Devices score stored images against a semantic query with an on-board
behavior model, compress the relevant ones with a tiny generative encoder,
and contend for uplink slots; the toolkit simulates the protocol, evaluates
the expected retrieval score exactly or by Metropolis sampling, models the
device energy budget, and reproduces the parameter sweeps and baseline
comparisons.
"""

from .analytic import (ChainResult, expected_sifi_exact, mcmc_expected_sifi,
                       omega_nonempty_probability, p_delta, run_chain,
                       sifi_affine)
from .baselines import baseline_energy, energy_saving_ratio, tinyairnet_energy
from .config import (BetaTruth, ConfigError, HardwareProfile, ImageGeometry,
                     ModelCost, PNG_BPP, RadioProfile, ScenarioConfig,
                     TruthDistribution, UniformTruth, apply_overrides,
                     dump_config, load_config, packet_bits, save_config,
                     slots_for_rate)
from .energy import (communication_energy, computation_energy,
                     expected_total_energy, fixed_overhead_energy,
                     gaussian_tail, model_load_total, p_th,
                     per_relevant_image_energy)
from .experiments import (CompareRow, GridPoint, OptimizationResult,
                          SweepRow, compare_schemes, default_rate_grid,
                          default_vth_grid, optimize, render_csv,
                          sweep_sifi_vs_rate)
from .hardware import (InferenceBreakdown, e_dram_access, e_muac,
                       inference_breakdown, inference_energy,
                       model_load_energy)
from .sifi import FIDELITY_BASE, fidelity_distance
from .sim import RoundOutcome, RoundStats, SimAggregate, run_round, simulate

__version__ = "0.1.0"
