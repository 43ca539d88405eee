"""Per-device energy accounting and the relevance-probability machinery.

A device always scores all N stored images with the behavior model, then
compresses and transmits the S images that passed the relevance threshold.
The fixed per-query overhead (behavior-model reception, query reception,
weight loading, scoring) is independent of S; every relevant image adds one
compressor inference plus one packet transmission.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import _binomial
from ._quadpack import QuadratureError, quad
from .config import ScenarioConfig, TruthDistribution, packet_bits
from .hardware import inference_energy, model_load_energy

__all__ = [
    "QuadratureError",
    "gaussian_tail",
    "quad_interval",
    "computation_energy",
    "communication_energy",
    "model_load_total",
    "fixed_overhead_energy",
    "per_relevant_image_energy",
    "p_th",
    "expected_total_energy",
    "expected_energy_over_rates",
]


QUAD_ABS_TOL = 1e-9


_erfc = np.frompyfunc(math.erfc, 1, 1)


def gaussian_tail(x):
    """Standard normal upper-tail probability Q(x)."""
    z = np.asarray(x, dtype=float) / math.sqrt(2.0)
    return 0.5 * np.asarray(_erfc(z), dtype=float)


def quad_interval(func, lo: float, hi: float,
                  abs_tol: float = QUAD_ABS_TOL, points=None) -> float:
    """Adaptive quadrature of ``func`` over [lo, hi] to ``abs_tol``.

    ``func`` is called on arrays of nodes. ``points`` marks interior
    breakpoints (sharp features); values outside the open interval are
    dropped. The rule is QUADPACK's (``_quadpack``) at scipy's ``quad``
    default relative tolerance. Non-convergence, or an error estimate
    above ten times ``max(abs_tol, 1e-12 * |value|)`` even at zero
    relative tolerance, raises QuadratureError.
    """
    interior = None
    if points is not None:
        interior = [p for p in points if lo < p < hi] or None
    value, abserr = quad(func, lo, hi, abs_tol, points=interior)
    if abserr > max(abs_tol, 1e-12 * abs(value)) * 10:
        # the relative tolerance stopped the subdivision above this bound
        value, abserr = quad(func, lo, hi, abs_tol, epsrel=0.0,
                             points=interior)
    if abserr > max(abs_tol, 1e-12 * abs(value)) * 10:
        raise QuadratureError(
            f"quadrature error estimate {abserr:.3e} exceeds tolerance")
    return value


def model_load_total(cfg: ScenarioConfig) -> float:
    """One-time energy to stage both models' weights in SRAM, in joules.

    Each model is charged at its own chip: the behavior model on
    ``behavior_hw``, the compressor on ``compressor_hw``.
    """
    return (model_load_energy(cfg.behavior_hw, cfg.behavior_model)
            + model_load_energy(cfg.compressor_hw, cfg.compressor_model))


def computation_energy(cfg: ScenarioConfig, relevant_count: int) -> float:
    """Compute-side energy for one query: N scorings, S compressions, loads."""
    n = cfg.images_per_device
    if not 0 <= relevant_count <= n:
        raise ValueError(
            f"relevant_count={relevant_count} outside [0, {n}]")
    score = n * inference_energy(cfg.behavior_hw, cfg.behavior_model, cfg.image)
    compress = relevant_count * inference_energy(cfg.compressor_hw,
                                                 cfg.compressor_model, cfg.image)
    return score + compress + model_load_total(cfg)


def communication_energy(cfg: ScenarioConfig, relevant_count: int) -> float:
    """Radio energy: behavior model + query reception, S packet uplinks."""
    if relevant_count < 0:
        raise ValueError(f"relevant_count={relevant_count} must be >= 0")
    rx_bits = (cfg.behavior_model.size * cfg.behavior_model.tx_bits
               + cfg.query_length * cfg.behavior_hw.sram_bits)
    tx_bits = relevant_count * packet_bits(cfg)
    return (cfg.radio.rx_power * rx_bits
            + cfg.radio.tx_power * tx_bits) / cfg.radio.rate


def fixed_overhead_energy(cfg: ScenarioConfig) -> float:
    """Energy spent regardless of how many images pass the filter."""
    return computation_energy(cfg, 0) + communication_energy(cfg, 0)


def _compression_energy(cfg: ScenarioConfig) -> float:
    return inference_energy(cfg.compressor_hw, cfg.compressor_model, cfg.image)


def _uplink_energy(cfg: ScenarioConfig,
                   rate: Optional[float] = None) -> float:
    # one packet at ``rate`` (default: the configured compression rate)
    return cfg.radio.tx_power * packet_bits(cfg, rate) / cfg.radio.rate


def per_relevant_image_energy(cfg: ScenarioConfig) -> float:
    """Marginal energy of one relevant image: compression plus transmission."""
    return _compression_energy(cfg) + _uplink_energy(cfg)


def p_th(relevance_threshold: float, model_noise: float,
         truth: TruthDistribution) -> float:
    """Probability that an image's noisy score clears the device threshold.

    Integrates ``Q((V_th - beta) / sigma)`` against the true-similarity
    density by adaptive quadrature (absolute tolerance 1e-9). The threshold
    is passed as a breakpoint so near-degenerate noise keeps converging.
    """
    if not 0.0 <= relevance_threshold <= 1.0:
        raise ValueError(
            f"relevance_threshold={relevance_threshold} outside [0, 1]")
    if model_noise <= 0:
        raise ValueError(f"model_noise={model_noise} must be > 0")
    return _filtered_mass(relevance_threshold, model_noise, truth, 0.0)


@lru_cache(maxsize=4096)
def _filtered_mass(relevance_threshold: float, model_noise: float,
                   truth: TruthDistribution, lower: float) -> float:
    """Mass of true similarities in [lower, 1] whose noisy score clears the
    threshold: ``p_th`` at ``lower = 0``, and at the truth threshold the
    joint mass of being actually relevant and passing the filter."""
    # a grid search asks for the same threshold once per rate and library
    # size; truth distributions are frozen, so they can key the cache
    def integrand(beta):
        return (gaussian_tail((relevance_threshold - beta) / model_noise)
                * truth.density(beta))

    return quad_interval(integrand, lower, 1.0,
                         points=[relevance_threshold])


def _capped_mean(images_per_device: int, pass_probability: float,
                 frames: int) -> float:
    # E[min(c, F)] for c ~ Bin(N, p), as F - sum_{c<F} (F - c) P(c): only
    # loads below the cap send fewer than F images
    if frames >= images_per_device:
        return images_per_device * pass_probability
    pmf = _binomial.pmf(images_per_device, pass_probability)[:frames]
    return frames - float(np.dot(frames - np.arange(frames), pmf))


def expected_energy_over_rates(cfg: ScenarioConfig,
                               rates: Sequence[float]) -> list[float]:
    """Closed-form expected per-device energy of ``cfg`` at each rate.

    The pass probability, the fixed overhead and the compression energy
    are computed once; only the uplink packet depends on the rate. Each
    value is bitwise :func:`expected_total_energy` of ``cfg`` at that
    rate.

    A device compresses all ``c ~ Bin(N, p_th)`` of its passed images but,
    under ``fixed_frames`` ``F``, sends one per frame, ``min(c, F)`` in
    all, as the simulator does.
    """
    pth = p_th(cfg.relevance_threshold, cfg.model_noise, cfg.truth_distribution)
    overhead = fixed_overhead_energy(cfg)
    compress = _compression_energy(cfg)
    n = cfg.images_per_device
    if cfg.fixed_frames is None:
        return [n * pth * (compress + _uplink_energy(cfg, rate)) + overhead
                for rate in rates]
    sent = _capped_mean(n, pth, cfg.fixed_frames)
    return [n * pth * compress + sent * _uplink_energy(cfg, rate) + overhead
            for rate in rates]


def expected_total_energy(cfg: ScenarioConfig) -> float:
    """Expected per-device energy for one query, in joules.

    The one-rate case of :func:`expected_energy_over_rates`. The energy is
    affine in the compressed count ``c`` and the sent count ``min(c, F)``,
    so its mean is that affine form at their means.
    """
    return expected_energy_over_rates(cfg, (cfg.compression_rate,))[0]
