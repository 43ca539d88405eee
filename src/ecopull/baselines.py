"""Energy models of the two comparison schemes and the saving ratio.

The plain scheme sends every image PNG-compressed in reserved, collision-free
slots and runs no ML at all. The filter-only scheme receives the query and
the behavior model, stages and runs the model, then sends PNG-compressed
the images that clear the threshold, one per frame as an EcoPull device
does, so at most ``fixed_frames`` of them; collisions do not change its
energy because attempted transmissions are what cost power.
"""

from __future__ import annotations

from .config import PNG_BPP, ScenarioConfig, packet_bits
from .energy import _mean_sent, communication_energy, p_th
from .hardware import inference_energy, model_load_energy

__all__ = [
    "baseline_energy",
    "tinyairnet_energy",
    "energy_saving_ratio",
]


def baseline_energy(cfg: ScenarioConfig) -> float:
    """Per-device energy of the no-ML scheme: N PNG uplinks, nothing else."""
    return (cfg.images_per_device * cfg.radio.tx_power
            * packet_bits(cfg, PNG_BPP) / cfg.radio.rate)


def tinyairnet_energy(cfg: ScenarioConfig) -> float:
    """Expected per-device energy of the filter-only scheme."""
    energy = (cfg.images_per_device
              * inference_energy(cfg.behavior_hw, cfg.behavior_model,
                                 cfg.image)
              + model_load_energy(cfg.behavior_hw, cfg.behavior_model))
    # receiving the behavior model and the query, as an EcoPull device does
    energy += communication_energy(cfg, 0)
    pass_probability = p_th(cfg.relevance_threshold, cfg.model_noise,
                            cfg.truth_distribution)
    capped = _mean_sent(cfg, (pass_probability,))
    sent = (cfg.images_per_device * pass_probability if capped is None
            else capped[0])
    energy += (sent * cfg.radio.tx_power * packet_bits(cfg, PNG_BPP)
               / cfg.radio.rate)
    return energy


def energy_saving_ratio(scheme_energy: float, baseline: float) -> float:
    """Scheme energy over baseline energy; below 1 means the scheme saves."""
    if baseline <= 0:
        raise ValueError(f"baseline energy {baseline} must be > 0")
    return scheme_energy / baseline
