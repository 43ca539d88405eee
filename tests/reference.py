"""Reference evaluators that the tests check the package against.

They enumerate what the package computes in closed form or samples: the
compositions of K devices into the load bins 0..N with their multinomial
probabilities, and the expected device energy as a sum over a device's
relevant-image count. The filtered mass is taken at 30 digits in mpmath.
"""

import math
from typing import Iterator, Optional, Sequence

import mpmath
import numpy as np
from scipy.stats import binom

from ecopull import communication_energy, computation_energy, p_th
from ecopull._binomial import saddle_logpmf


def compositions(total: int, bins: int) -> Iterator[tuple[int, ...]]:
    """All orderings of ``total`` identical devices into ``bins`` bins."""
    if bins < 1:
        raise ValueError(f"bins={bins} must be >= 1")
    if bins == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, bins - 1):
            yield (head,) + rest


def realization_pmf(psi: Sequence[int], images_per_device: int,
                    device_count: int, pass_probability: float) -> float:
    """Multinomial probability of one composition; 0 if the bins miss K.

    The bin probabilities are the chain's binomial law, ``saddle_logpmf``;
    the sum runs in log space so large factorials and tiny bin
    probabilities never overflow.
    """
    if len(psi) != images_per_device + 1:
        raise ValueError(
            f"realization has {len(psi)} bins, expected "
            f"{images_per_device + 1}")
    if sum(psi) != device_count:
        return 0.0
    log_rel = saddle_logpmf(images_per_device, pass_probability)
    total = math.lgamma(device_count + 1)
    for nu, q in enumerate(psi):
        if q == 0:
            continue
        if log_rel[nu] == -math.inf:
            return 0.0
        total += q * log_rel[nu] - math.lgamma(q + 1)
    return math.exp(total)


def expected_energy_by_count(cfg) -> float:
    """Expected per-device energy as ``sum_c P(c) E(c)``.

    ``c ~ Bin(N, p_th)`` images pass the filter and are all compressed;
    under ``fixed_frames`` ``F`` a device sends ``min(c, F)`` of them.
    """
    pth = p_th(cfg.relevance_threshold, cfg.model_noise,
               cfg.truth_distribution)
    images = cfg.images_per_device
    cap = images if cfg.fixed_frames is None else cfg.fixed_frames
    energies = [computation_energy(cfg, c)
                + communication_energy(cfg, min(c, cap))
                for c in range(images + 1)]
    weights = binom.pmf(np.arange(images + 1), images, pth)
    return float(np.dot(weights, energies))


def filtered_mass_reference(threshold: float, noise: float,
                            shape: Optional[tuple[float, float]],
                            lower: float) -> mpmath.mpf:
    """``int_lower^1 Phi((beta - V)/s) dF(beta)`` at 30 digits, by parts.

    ``shape`` is a Beta truth's ``(alpha, beta)``, None the uniform truth.
    The form is ``Phi((lower - V)/s) S(lower) + (1/s) int_lower^1 S(beta)
    phi((beta - V)/s) dbeta`` with the upper tail ``S = 1 - F`` from
    ``mpmath.betainc(..., regularized=True)``: its integrand is bounded,
    while the density form's is not at a Beta shape below 1 (taken the same
    way it is off by up to 1.2e-7 at Beta(0.7, 0.2)). Tanh-sinh quadrature
    runs over ``V +- 12 s`` split every three standard deviations; the
    Gaussian beyond holds less than 1e-32.
    """
    with mpmath.workdps(30):
        v, s, lo = (mpmath.mpf(threshold), mpmath.mpf(noise),
                    mpmath.mpf(lower))
        if shape is None:
            def upper(x):
                return 1 - x
        else:
            a, b = mpmath.mpf(shape[0]), mpmath.mpf(shape[1])

            def upper(x):
                return mpmath.betainc(a, b, x, 1, regularized=True)

        mass = mpmath.ncdf((lo - v) / s) * upper(lo)
        left, right = max(lo, v - 12 * s), min(mpmath.mpf(1), v + 12 * s)
        if left < right:
            cuts = [v + k * s for k in range(-9, 10, 3)]
            points = [left] + [c for c in cuts if left < c < right] + [right]
            mass += mpmath.quad(lambda x: upper(x) * mpmath.npdf((x - v) / s),
                                points) / s
        return mass
