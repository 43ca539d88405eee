"""Energy models of the two comparison schemes and the saving ratio.

The plain scheme sends every image PNG-compressed in reserved, collision-free
slots and runs no ML at all. The filter-only scheme receives and runs the
behavior model, then sends PNG-compressed images for the expected fraction
that clears the threshold; collisions do not change its energy because
attempted transmissions are what cost power. Each reconstructed term can be
toggled off for sensitivity checks, and the active assumptions are printed
next to any comparison output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import PNG_BPP, ScenarioConfig
from .energy import p_th
from .hardware import inference_energy, model_load_energy

__all__ = [
    "BaselineAssumptions",
    "png_packet_bits",
    "baseline_energy",
    "tinyairnet_energy",
    "energy_saving_ratio",
]


@dataclass(frozen=True)
class BaselineAssumptions:
    """Term toggles for the reconstructed comparison schemes."""

    png_rate: float = PNG_BPP          # bits per pixel of the PNG uplink
    baseline_query_rx: bool = False    # plain scheme also receives the query
    filter_inference: bool = True      # filter scheme scores all N images
    filter_model_load: bool = True     # filter scheme stages weights in SRAM
    filter_model_rx: bool = True       # filter scheme receives the model
    filter_query_rx: bool = True       # filter scheme receives the query

    def describe(self) -> list[str]:
        return [f"{name}={getattr(self, name)}" for name in
                ("png_rate", "baseline_query_rx", "filter_inference",
                 "filter_model_load", "filter_model_rx", "filter_query_rx")]


def png_packet_bits(cfg: ScenarioConfig,
                    assumptions: BaselineAssumptions) -> float:
    return assumptions.png_rate * cfg.image.pixels


def baseline_energy(cfg: ScenarioConfig,
                    assumptions: BaselineAssumptions | None = None) -> float:
    """Per-device energy of the no-ML scheme: N PNG uplinks, nothing else."""
    assumptions = assumptions or BaselineAssumptions()
    energy = (cfg.images_per_device * cfg.radio.tx_power
              * png_packet_bits(cfg, assumptions) / cfg.radio.rate)
    if assumptions.baseline_query_rx:
        energy += (cfg.radio.rx_power * cfg.query_length
                   * cfg.behavior_hw.sram_bits / cfg.radio.rate)
    return energy


def tinyairnet_energy(cfg: ScenarioConfig,
                      assumptions: BaselineAssumptions | None = None) -> float:
    """Expected per-device energy of the filter-only scheme."""
    assumptions = assumptions or BaselineAssumptions()
    energy = 0.0
    if assumptions.filter_inference:
        energy += cfg.images_per_device * inference_energy(
            cfg.behavior_hw, cfg.behavior_model, cfg.image)
    if assumptions.filter_model_load:
        energy += model_load_energy(cfg.behavior_hw, cfg.behavior_model)
    rx_bits = 0.0
    if assumptions.filter_model_rx:
        rx_bits += cfg.behavior_model.size * cfg.behavior_model.tx_bits
    if assumptions.filter_query_rx:
        rx_bits += cfg.query_length * cfg.behavior_hw.sram_bits
    energy += cfg.radio.rx_power * rx_bits / cfg.radio.rate
    pass_probability = p_th(cfg.relevance_threshold, cfg.model_noise,
                            cfg.truth_distribution)
    energy += (cfg.images_per_device * pass_probability * cfg.radio.tx_power
               * png_packet_bits(cfg, assumptions) / cfg.radio.rate)
    return energy


def energy_saving_ratio(scheme_energy: float, baseline: float) -> float:
    """Scheme energy over baseline energy; below 1 means the scheme saves."""
    if baseline <= 0:
        raise ValueError(f"baseline energy {baseline} must be > 0")
    return scheme_energy / baseline
