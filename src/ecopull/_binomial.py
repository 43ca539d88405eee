"""Binomial probabilities over the whole support, on numpy alone.

Neither ``scipy.stats`` nor ``scipy.special`` is imported with this
module: together they cost more than the rest of the package's import.
:func:`saddle_logpmf` returns the values for every load ``k = 0..n`` at
once, and for an array of ``p`` one such row per ``p``: a grid over
thresholds reads one law with a row per pass probability. Each row is
bitwise the call with its ``p`` alone, whatever the other rows hold.

It is Loader's saddle-point method (C. Loader, "Fast and Accurate
Computation of Binomial Probabilities", 2000; R's ``dbinom``) in log
form. Its ``exp`` is within 1e-14 of the exact value where that exceeds
1e-6 (within 2e-13 down to 1e-278), where the log-gamma form
``scipy.stats.binom.logpmf`` evaluates loses ~1e-12 to cancellation at
large ``n``; it underflows only where the probability itself does, and
the log form stays finite there. Both the closed form and the Metropolis
chain read this one law.
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
# the deviance series below runs where |v| < 0.1, on every row to the
# least number of terms t with 0.1^(2t) <= 2^-56: the terms it drops are
# below 2^-56 of its leading one
_SERIES_CUT = 0.1
_SERIES_TERMS = 9


def _stirlerr(n: int) -> np.ndarray:
    """Error of Stirling's formula for log(x!) at x = 1..n."""
    x = np.arange(16, n + 1, dtype=float)
    xx = x * x
    series = (_S0 - (_S1 - (_S2 - (_S3 - _S4 / xx) / xx) / xx) / xx) / x
    return np.concatenate((_STIRLERR[1:n + 1], series))


def _bd0(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Deviance ``x log(x/mean) + mean - x`` for ``x, mean > 0``: one row
    per entry of the column ``mean``.

    Near ``x = mean`` the direct form cancels; there it is the series
    ``(x - mean) v + 2 x sum_j v^(2j+1) / (2j+1)`` in
    ``v = (x - mean) / (x + mean)``, summed by Horner's rule to
    ``_SERIES_TERMS`` terms on every row, so no row depends on the others.
    """
    diff = x - mean
    direct = x * np.log(x / mean) - diff
    v = diff / (x + mean)
    near = np.abs(v) < _SERIES_CUT
    if not near.any():
        return direct
    v2 = v * v
    # sum_{j<terms} v^(2j) / (2j+3), the series' factor after its first term
    acc = 1.0 / (2 * _SERIES_TERMS + 1)
    for j in range(_SERIES_TERMS - 1, 0, -1):
        acc = 1.0 / (2 * j + 1) + v2 * acc
    series = diff * v + 2.0 * x * v * (v2 * acc)
    return np.where(near, series, direct)


# rows of the law are computed this many entries at a time, which bounds
# the temporaries at any library size
_LAW_BLOCK = 1 << 16


def saddle_logpmf(n: int, p) -> np.ndarray:
    """``log P(Bin(n, p) = k)`` for ``k = 0..n`` by Loader's saddle-point
    method; ``-inf`` only where the probability is exactly zero.

    ``p`` may be a 1-D array: the result then has one row per entry, and
    each row is bitwise the call with that entry alone.
    """
    probabilities = np.asarray(p, dtype=float)
    rows = probabilities.reshape(-1)
    log_p = np.empty((len(rows), n + 1))
    block = max(1, _LAW_BLOCK // (n + 1))
    for start in range(0, len(rows), block):
        _fill_logpmf(n, rows[start:start + block],
                     log_p[start:start + block])
    return log_p if probabilities.ndim else log_p[0]


def _fill_logpmf(n: int, rows: np.ndarray, log_p: np.ndarray) -> None:
    # one row of the law per entry of rows, into log_p
    # no trial, or a sure outcome: all the mass on one load
    sure = (rows == 0.0) | (rows == 1.0) if n else np.ones(len(rows), bool)
    count = np.count_nonzero(sure)
    if count < len(rows):
        # a sure row is computed at p = 1/2, then overwritten
        _fill_regular(n, np.where(sure, 0.5, rows) if count else rows, log_p)
    if count:
        sure = np.flatnonzero(sure)
        log_p[sure] = -math.inf
        log_p[sure, np.where(rows[sure] == 1.0, n, 0)] = 0.0


def _fill_regular(n: int, p: np.ndarray, log_p: np.ndarray) -> None:
    # the law for n >= 1 and every p in (0, 1)
    q = 1.0 - p
    up = np.arange(1, n + 1, dtype=float)
    # dev_p[:, k-1] = bd0(k, np) and dev_q[:, k] = bd0(n-k, nq), for
    # k = 1..n and k = 0..n-1: the end points' terms come with the interior's
    mean_p, mean_q = n * p, n * q
    dev_p = _bd0(up, mean_p[:, None])
    dev_q = _bd0(up[::-1], mean_q[:, None])
    log_p[:, 0] = np.where(p < 0.1, -dev_q[:, 0] - mean_p, n * _log(q))
    log_p[:, n] = np.where(q < 0.1, -dev_p[:, -1] - mean_q, n * _log(p))
    if n > 1:
        x = up[:-1]
        stirlerr = _stirlerr(n)
        inner = stirlerr[:-1]
        # stirlerr(n - x) is stirlerr(x) reversed
        lc = (stirlerr[-1] - inner - inner[::-1]
              - dev_p[:, :-1] - dev_q[:, 1:])
        lf = _LOG_2PI + np.log(x * (n - x) / n)
        log_p[:, 1:n] = lc - 0.5 * lf


def _log(values: np.ndarray) -> np.ndarray:
    # math.log, not np.log: np.log's vector path differs from the C
    # library's log in the last bit on some inputs and hosts
    return np.fromiter(map(math.log, values.tolist()), float, len(values))
