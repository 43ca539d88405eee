"""Binomial probabilities over the whole support, on numpy alone.

Neither ``scipy.stats`` nor ``scipy.special`` is imported with this
module: together they cost more than the rest of the package's import.
Each function returns the values for every load ``k = 0..n`` at once.

:func:`saddle_logpmf` is Loader's saddle-point method (C. Loader, "Fast and
Accurate Computation of Binomial Probabilities", 2000; R's ``dbinom``) in
log form, and :func:`pmf` is its ``exp``: within 1e-14 of the exact value
where that exceeds 1e-6 (within 2e-13 down to 1e-278), where the
log-gamma form ``scipy.stats.binom.logpmf`` evaluates loses ~1e-12 to
cancellation at large ``n``; it underflows only where the probability
itself does, and the log form stays finite there. Both the closed form
and the Metropolis chain read this one law.
"""

from __future__ import annotations

import math

import numpy as np

# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n/e)^n) for n = 0..15 (0 unused);
# larger n use the Stirling series in _stirlerr
_STIRLERR = np.array([
    0.0,
    0.08106146679532725821967026,
    0.04134069595540929409382208,
    0.02767792568499833914878929,
    0.02079067210376509311152277,
    0.01664469118982119216319487,
    0.01387612882307074799874573,
    0.01189670994589177009505572,
    0.01041126526197209649747857,
    0.009255462182712732917728637,
    0.008330563433362871256469319,
    0.007573675487951840794972024,
    0.006942840107209529865664153,
    0.006408994188004207068439631,
    0.005951370112758847735624416,
    0.005554733551962801371038690,
])
_S0 = 1.0 / 12.0
_S1 = 1.0 / 360.0
_S2 = 1.0 / 1260.0
_S3 = 1.0 / 1680.0
_S4 = 1.0 / 1188.0
_LOG_2PI = math.log(2.0 * math.pi)
# the deviance series below runs where |v| < 0.1; the terms it drops are
# below 2^-56 of its leading one
_SERIES_CUT = 0.1
_SERIES_EPS = 2.0 ** -56


def _stirlerr(n: int) -> np.ndarray:
    """Error of Stirling's formula for log(x!) at x = 1..n."""
    x = np.arange(16, n + 1, dtype=float)
    xx = x * x
    series = (_S0 - (_S1 - (_S2 - (_S3 - _S4 / xx) / xx) / xx) / xx) / x
    return np.concatenate((_STIRLERR[1:n + 1], series))


def _bd0(x: np.ndarray, mean: float) -> np.ndarray:
    """Deviance ``x log(x/mean) + mean - x`` for ``x, mean > 0``.

    Near ``x = mean`` the direct form cancels; there it is the series
    ``(x - mean) v + 2 x sum_j v^(2j+1) / (2j+1)`` in
    ``v = (x - mean) / (x + mean)``, summed by Horner's rule.
    """
    diff = x - mean
    direct = x * np.log(x / mean) - diff
    v = diff / (x + mean)
    near = np.abs(v) < _SERIES_CUT
    if not near.any():
        return direct
    v2 = v * v
    largest = float(v2[near].max())
    terms = 1
    while largest ** terms > _SERIES_EPS:
        terms += 1
    acc = 1.0 / (2 * terms + 1)
    for j in range(terms - 1, 0, -1):
        acc = 1.0 / (2 * j + 1) + v2 * acc
    series = diff * v + 2.0 * x * v * (v2 * acc)
    return np.where(near, series, direct)


def saddle_logpmf(n: int, p: float) -> np.ndarray:
    """``log P(Bin(n, p) = k)`` for ``k = 0..n`` by Loader's saddle-point
    method; ``-inf`` only where the probability is exactly zero."""
    q = 1.0 - p
    log_p = np.full(n + 1, -math.inf)
    if n == 0 or p == 0.0:
        log_p[0] = 0.0
        return log_p
    if q == 0.0:
        log_p[n] = 0.0
        return log_p
    up = np.arange(1, n + 1, dtype=float)
    # dev_p[k-1] = bd0(k, np) and dev_q[k] = bd0(n-k, nq), for k = 1..n and
    # k = 0..n-1: the end points' terms come with the interior's
    dev_p = _bd0(up, n * p)
    dev_q = _bd0(up[::-1], n * q)
    log_p[0] = -dev_q[0] - n * p if p < 0.1 else n * math.log(q)
    log_p[n] = -dev_p[-1] - n * q if q < 0.1 else n * math.log(p)
    if n > 1:
        x = up[:-1]
        stirlerr = _stirlerr(n)
        inner = stirlerr[:-1]
        # stirlerr(n - x) is stirlerr(x) reversed
        lc = (stirlerr[-1] - inner - inner[::-1]
              - dev_p[:-1] - dev_q[1:])
        lf = _LOG_2PI + np.log(x * (n - x) / n)
        log_p[1:n] = lc - 0.5 * lf
    return log_p


def pmf(n: int, p: float) -> np.ndarray:
    """``P(Bin(n, p) = k)`` for ``k = 0..n`` by Loader's saddle-point method."""
    return np.exp(saddle_logpmf(n, p))
