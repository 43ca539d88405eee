"""Per-device energy accounting and the relevance-probability machinery.

A device always scores all N stored images with the behavior model, then
compresses the c images that passed the relevance threshold and sends
s = min(c, F) of them under a frame cap F. Its energy has one evaluator:
:func:`computation_energy` (scoring and weight loading, plus c
compressions) and :func:`communication_energy` (model and query
reception, plus s uplinks). The simulator charges each device these, and
the expected energy is the same form at the means of c and s.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import _binomial
from .config import ScenarioConfig, TruthDistribution, _betainc, packet_bits
from .hardware import inference_energy, model_load_energy

__all__ = [
    "computation_energy",
    "communication_energy",
    "model_load_total",
    "fixed_overhead_energy",
    "per_relevant_image_energy",
    "p_th",
    "expected_total_energy",
    "expected_energy_grid",
]


@lru_cache(maxsize=4)
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    # every caller shares the cached arrays
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


_QUAD_ORDER = 16   # Gauss-Legendre nodes per panel of quad_interval
_GRADING = 0.25     # length ratio of successive panels toward a graded end


def quad_interval(func, lo: float, hi: float, panel: float,
                  graded: tuple[int, int] = (0, 0)) -> float:
    """Integral of ``func`` over [lo, hi] on fixed Gauss-Legendre panels.

    ``func`` is called once, on the array of all nodes. The interval is
    cut into equal panels no longer than ``panel``. ``graded = (k_lo,
    k_hi)`` splits the end panel at ``lo`` into ``k_lo + 1`` panels whose
    lengths shrink by ``_GRADING`` toward ``lo``, and likewise at ``hi``:
    the rule for an integrand that is not smooth at or just beyond an end.
    """
    if not lo < hi:
        return 0.0
    count = max(math.ceil((hi - lo) / panel), 1 + (min(graded) > 0))
    step = (hi - lo) / count
    below = lo + step * _GRADING ** np.arange(graded[0], 0, -1)
    above = hi - step * _GRADING ** np.arange(1, graded[1] + 1)
    edges = np.concatenate([[lo], below, lo + step * np.arange(1, count),
                            above, [hi]])
    nodes, weights = _gauss_rule(_QUAD_ORDER)
    spans = np.diff(edges)[:, None]
    points = (edges[:-1, None] + spans * nodes).ravel()
    return float(np.dot((spans * weights).ravel(), func(points)))


def model_load_total(cfg: ScenarioConfig) -> float:
    """One-time energy to stage both models' weights in SRAM, in joules.

    Each model is charged at its own chip: the behavior model on
    ``behavior_hw``, the compressor on ``compressor_hw``.
    """
    return (model_load_energy(cfg.behavior_hw, cfg.behavior_model)
            + model_load_energy(cfg.compressor_hw, cfg.compressor_model))


def computation_energy(cfg: ScenarioConfig, relevant_count: float) -> float:
    """Compute-side energy for one query: N scorings, both weight loads and
    one compression per relevant image; ``relevant_count`` may be a mean."""
    n = cfg.images_per_device
    if not 0 <= relevant_count <= n:
        raise ValueError(
            f"relevant_count={relevant_count} outside [0, {n}]")
    score = n * inference_energy(cfg.behavior_hw, cfg.behavior_model, cfg.image)
    return (score + model_load_total(cfg)
            + relevant_count * _compression_energy(cfg))


def communication_energy(cfg: ScenarioConfig, sent_count: float) -> float:
    """Radio energy: model and query reception and one packet uplink per
    sent image; ``sent_count``, ``min(c, F)`` under a cap, may be a mean."""
    if not sent_count >= 0:
        raise ValueError(f"sent_count={sent_count} must be >= 0")
    rx_bits = (cfg.behavior_model.size * cfg.behavior_model.tx_bits
               + cfg.query_length * cfg.behavior_hw.sram_bits)
    return (cfg.radio.rx_power * rx_bits / cfg.radio.rate
            + sent_count * _uplink_energy(cfg))


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

    The mass ``E[Q((V_th - beta) / sigma)]`` over the true similarity
    ``beta``; see :func:`_filtered_mass` for how it is evaluated.
    """
    if not 0.0 <= relevance_threshold <= 1.0:
        raise ValueError(
            f"relevance_threshold={relevance_threshold} outside [0, 1]")
    if not 0 < model_noise < math.inf:
        raise ValueError(f"model_noise={model_noise} must be finite and > 0")
    return _filtered_mass(relevance_threshold, model_noise, truth, 0.0)


_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# the Gaussian beyond this many standard deviations carries Q(9) = 1.1e-19
_NOISE_REACH = 9.0
# Gauss-Legendre panels of the Beta path span at most this many standard
# deviations of the noise, and of the truth
_NOISE_PANEL = 3.0
_TRUTH_PANEL = 2.0
# toward an end where the CDF goes as x^e, ceil(16 / (e + 1)) graded
# levels leave an innermost panel holding 4^-16 (2e-10) of the end panel's
# x^e mass, which its 16-node rule still gets to about 1e-3
_GRADED_DEPTH = 16.0


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _normal_partial_mean(z: float) -> float:
    # G(z) = z Phi(z) + phi(z), the antiderivative of Phi
    return z * _normal_cdf(z) + _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def _graded_levels(exponent: float) -> int:
    # the CDF is x^e times a smooth function at an end, itself smooth
    # for an integer e
    if float(exponent).is_integer():
        return 0
    return math.ceil(_GRADED_DEPTH / (exponent + 1.0))


def _beta_filtered_mass(threshold: float, noise: float, alpha: float,
                        beta: float, lower: float) -> float:
    # by parts, with S = 1 - F the truth's upper tail:
    # Phi((lower - V)/s) S(lower) + (1/s) int_lower^1 S(b) phi((b - V)/s) db.
    # The integral runs in z = (b - V)/s over |z| <= 9, and b and 1 - b are
    # formed from the offset s*z so that neither loses digits to V.
    z_lo = max((lower - threshold) / noise, -_NOISE_REACH)
    z_hi = min((1.0 - threshold) / noise, _NOISE_REACH)
    spread = math.sqrt(alpha * beta / ((alpha + beta + 1.0)
                                       * (alpha + beta) ** 2))
    panel = min(_NOISE_PANEL, _TRUTH_PANEL * spread / noise)
    reach = min(panel, z_hi - z_lo) * noise
    # an end within one panel of 0 or 1 is graded toward that end
    graded = (
        _graded_levels(alpha) if threshold + noise * z_lo < reach else 0,
        _graded_levels(beta) if 1.0 - threshold - noise * z_hi < reach else 0)

    def integrand(z):
        offset = noise * z
        _, tail = _betainc(alpha, beta, threshold + offset,
                           1.0 - threshold - offset)
        return tail * np.exp(-0.5 * z * z)

    _, tail = _betainc(alpha, beta, lower, 1.0 - lower)
    return (_normal_cdf((lower - threshold) / noise) * float(tail)
            + _INV_SQRT_2PI * quad_interval(integrand, z_lo, z_hi, panel,
                                            graded))


@lru_cache(maxsize=4096)
def _filtered_mass(relevance_threshold: float, model_noise: float,
                   truth: TruthDistribution, lower: float) -> float:
    """Mass of true similarities in [lower, 1] whose noisy score clears the
    threshold: ``p_th`` at ``lower = 0``, and at the truth threshold the
    joint mass of being actually relevant and passing the filter.

    The mass is ``int_lower^1 Phi((beta - V)/s) dF(beta)``, and the truth's
    ``kind`` picks how it is evaluated. For a uniform truth it is closed:
    ``s [G((1 - V)/s) - G((lower - V)/s)]`` with ``G(z) = z Phi(z) +
    phi(z)``. For a Beta truth it is taken by parts, so that the integrand
    is the bounded upper tail ``1 - F`` against the Gaussian density, on
    fixed Gauss-Legendre panels over ``V +- 9 s``, graded toward an end at
    0 or 1 where ``F`` is not smooth (:func:`quad_interval`). Both agree
    with a 30-digit reference to 1e-12 absolute.
    """
    # a grid search asks for the same threshold once per rate and library
    # size; truth distributions are frozen, so they can key the cache, and
    # a numpy threshold shares the equal float's key: return floats
    if truth.kind == "uniform":
        return float(model_noise * (
            _normal_partial_mean((1.0 - relevance_threshold) / model_noise)
            - _normal_partial_mean((lower - relevance_threshold)
                                   / model_noise)))
    if truth.kind == "beta":
        return float(_beta_filtered_mass(relevance_threshold, model_noise,
                                         truth.alpha, truth.beta, lower))
    raise ValueError(f"no filtered mass for truth kind {truth.kind!r}")


def _mean_sent(cfg: ScenarioConfig, pass_probabilities: Sequence[float],
               log_law: Optional[np.ndarray] = None) -> np.ndarray:
    """Mean count of images a device sends, one per pass probability.

    Of its ``c ~ Bin(N, p)`` passed images a device sends one per frame,
    ``min(c, F)`` in all over ``F = cfg.max_frames`` frames, as the
    simulator does. At ``F = N`` the mean is ``N p``. Under a cap it
    is ``F - sum_{c<F} (F - c) P(c)``: only loads below the cap send fewer
    than F images. ``log_law`` holds ``saddle_logpmf(N,
    pass_probabilities)`` when the caller has it; otherwise a cap below N
    computes it, once for all rows.
    """
    n, frames = cfg.images_per_device, cfg.max_frames
    if frames == n:
        return n * np.array(pass_probabilities, dtype=float)
    if log_law is None:
        log_law = _binomial.saddle_logpmf(n, pass_probabilities)
    shortfall = frames - np.arange(frames)
    return np.array([frames - float(np.dot(shortfall, np.exp(row[:frames])))
                     for row in log_law])


def expected_energy_grid(cfg: ScenarioConfig,
                         pass_probabilities: Sequence[float],
                         rates: Sequence[float],
                         log_law: Optional[np.ndarray] = None
                         ) -> list[list[float]]:
    """Closed-form expected per-device energy of ``cfg``: one row per pass
    probability (``p_th`` of a threshold) and one column per rate.

    A device compresses all ``c ~ Bin(N, p_th)`` of its passed images and
    sends ``min(c, F)`` of them under a cap ``F``. The energy is affine in
    both counts, so its mean is the device energy's form at ``E[c] = N
    p_th`` and ``E[min(c, F)]`` (:func:`_mean_sent`, ``log_law`` as there),
    summed in the same order; each value is bitwise
    :func:`expected_total_energy` of ``cfg`` at that threshold and rate.
    """
    loads = cfg.images_per_device * np.array(pass_probabilities, dtype=float)
    computation = computation_energy(cfg, 0) + loads * _compression_energy(cfg)
    uplinks = np.array([_uplink_energy(cfg, rate) for rate in rates])
    sent = _mean_sent(cfg, pass_probabilities, log_law)
    communication = (communication_energy(cfg, 0)
                     + np.multiply.outer(sent, uplinks))
    return (computation[:, None] + communication).tolist()


def expected_total_energy(cfg: ScenarioConfig) -> float:
    """Expected per-device energy for one query, in joules.

    The one-point case of :func:`expected_energy_grid`. The energy is
    affine in the compressed count ``c`` and the sent count ``min(c, F)``,
    so its mean is that affine form at their means.
    """
    pth = p_th(cfg.relevance_threshold, cfg.model_noise, cfg.truth_distribution)
    return expected_energy_grid(cfg, (pth,), (cfg.compression_rate,))[0][0]
