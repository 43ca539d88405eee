"""Energy models of the two comparison schemes and the saving ratio.

The plain scheme sends every image PNG-compressed in reserved, collision-free
slots and runs no ML at all. The filter-only scheme receives the query and
the behavior model, stages and runs the model, then sends PNG-compressed
the images that clear the threshold, one per frame as an EcoPull device
does, so at most ``ScenarioConfig.max_frames`` of them; collisions do not
change its energy, as attempted transmissions are what cost power. Both
price a PNG image with EcoPull's ``energy._uplink_energy`` at ``PNG_BPP``.
"""

from __future__ import annotations

from .config import PNG_BPP, ScenarioConfig
from .energy import _mean_sent, _uplink_energy, communication_energy, p_th
from .hardware import inference_energy, model_load_energy

__all__ = [
    "baseline_energy",
    "tinyairnet_energy",
    "energy_saving_ratio",
]


def baseline_energy(cfg: ScenarioConfig) -> float:
    """Per-device energy of the no-ML scheme: N PNG uplinks, nothing else."""
    return cfg.images_per_device * _uplink_energy(cfg, PNG_BPP)


def tinyairnet_energy(cfg: ScenarioConfig) -> float:
    """Expected per-device energy of the filter-only scheme: an EcoPull
    device's without the compressor, sending ``E[min(c, F)]`` PNG images."""
    pass_probability = p_th(cfg.relevance_threshold, cfg.model_noise,
                            cfg.truth_distribution)
    sent = float(_mean_sent(cfg, (pass_probability,))[0])
    return (cfg.images_per_device
            * inference_energy(cfg.behavior_hw, cfg.behavior_model, cfg.image)
            + model_load_energy(cfg.behavior_hw, cfg.behavior_model)
            + communication_energy(cfg, 0)
            + sent * _uplink_energy(cfg, PNG_BPP))


def energy_saving_ratio(scheme_energy: float, baseline: float) -> float:
    """Scheme energy over baseline energy; below 1 means the scheme saves."""
    if not baseline > 0:
        raise ValueError(f"baseline energy {baseline} must be > 0")
    return scheme_energy / baseline
