"""Expected retrieval score: a closed form and Metropolis sampling.

Each device's load (the number of its N images that pass the filter) is
Binomial(N, p_th), independently across the K devices; the loads' histogram
is a composition ``psi = (q_0, ..., q_N)`` of K devices into N+1 bins. A
round scores ``1 - gamma + (gamma - k_d) * D / Omega`` (1 when
``Omega = 0``), where ``Omega`` counts the actually-relevant images and
``D`` the delivered ones, so the expected score is
``offset + (gamma - k_d) * E[f]`` with ``f = D / Omega * 1{Omega > 0}``.

Given a composition, ``f`` has the exact mean

    f(psi) = alpha_r * G(R) * sum_nu W_nu * b^(W_nu - 1),

where ``W_nu`` devices are active in frame ``nu``, ``b = 1 - 1/L``,
``R = sum_nu W_nu`` images pass the filter, ``alpha_r`` and ``alpha_n`` are
the probabilities that a passed and a filtered-out image is actually
relevant, and ``G(R) = E[1 / (1 + Bin(R-1, alpha_r) + Bin(KN-R, alpha_n))]``
weighs a delivered image by the number of actually-relevant images it
shares the round with. A frame cap ``F`` (``fixed_frames``) keeps only
the frames ``nu <= F`` in the sum; ``R`` and ``G`` stay, as ``Omega``
counts the images left unsent too. ``f`` lies in [0, 1], and with one
device (nothing collides) and no cap the score reduces to
``offset + slope`` of :func:`sifi_affine`.

:func:`expected_sifi_exact` averages ``f`` over the load distribution in
closed form. Tag one passed image and write ``1/(1+x) = int_0^1 t^x dt``;
with ``s = 1 - t``, ``x_r = 1 - alpha_r s``, ``x_n = 1 - alpha_n s`` and
``P = Bin(N, p_th)``,

    E[f] = K alpha_r int_0^1 sum_{c>=1} P(c) x_r^(c-1) x_n^(N-c)
                             * sum_{nu=1..c} M_nu(s)^(K-1) ds,

    M_nu = A - S_nu / L,  S_nu = sum_{c'>=nu} P(c') x_r^c' x_n^(N-c'),
    A = S_0.

``M_nu`` is the mean factor one other device contributes to an image the
tagged device sends in frame ``nu``. Swapping the two sums, a frame
``nu`` counts every load ``c >= nu``, and those loads sum to
``S_nu / x_r``:

    E[f] = K alpha_r int_0^1 (1 / x_r) sum_{nu=1..N} S_nu M_nu(s)^(K-1) ds.

Each quadrature node costs O(N). Under a frame cap ``F`` the sum runs
over ``nu <= F``; ``M_nu`` stays, since another device is active in a
frame ``nu <= F`` iff its load is at least ``nu``.

:func:`run_chain` samples compositions with a Metropolis chain whose
proposal moves one device between two bins. The chain applies the Hastings
correction for the proposal's asymmetry (the eligible-bin count changes as
bins empty or fill), so its stationary law is the multinomial;
``hastings=False`` gives the paper's plain probability ratio, whose
stationary law is not.

Both evaluators read one binomial law, ``_binomial.saddle_logpmf``, and
one evaluator of the score's terms, :class:`ScoreRows`, on the filtered
masses of ``energy``; the package loads no scipy. :class:`ScoreRows`
scores a grid of thresholds one row at a time, each row reading its own
row of one law batched over the thresholds' pass probabilities.
:func:`expected_sifi_over_rates`, :func:`score_terms` (the chain's) and
:func:`sifi_affine` are its one-row and one-point cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._binomial import saddle_logpmf
from .config import ScenarioConfig
from .energy import _filtered_mass, _gauss_rule, p_th
from .sifi import fidelity_distance

__all__ = [
    "p_delta",
    "omega_nonempty_probability",
    "sifi_affine",
    "score_terms",
    "expected_sifi_exact",
    "expected_sifi_over_rates",
    "ScoreRows",
    "mcmc_expected_sifi",
    "ChainResult",
    "run_chain",
]


def p_delta(truth_threshold: float, truth) -> float:
    """Probability one image is actually relevant (upper tail of truth)."""
    if not 0.0 <= truth_threshold <= 1.0:
        raise ValueError(f"truth_threshold={truth_threshold} outside [0, 1]")
    return float(1.0 - truth.cdf(truth_threshold))


def omega_nonempty_probability(cfg: ScenarioConfig) -> float:
    """Probability at least one of the K*N images is actually relevant."""
    return ScoreRows(cfg, ()).p_omega


# --- exact per-round delivered fraction -------------------------------------

# G(R) = int_0^1 (1 - alpha_r s)^(R-1) (1 - alpha_n s)^(KN-R) ds by a
# 64-node Gauss-Legendre rule. The integrand is a polynomial of degree
# KN-1 (exact for KN <= 128) that decays like exp(-lam s), lam the mean of
# the Bin + Bin count; past s = 50/lam it is below e^-50, so the rule runs
# over [0, min(1, 50/lam)], where it is smooth, at any KN.
_DECAY_SPAN = 50.0
_LOAD_BLOCK = 64  # G is evaluated for this many consecutive loads at once

# The closed form's integrand g(s) = (1/x_r) sum_nu S_nu M_nu^(K-1) is
# bounded through M_nu <= A = (1 - p_delta s)^N and
# sum_nu S_nu / x_r = N p_th (1 - p_delta s)^(N-1):
#   g(s) <= N p_th (1 - p_delta s)^(KN-1) <= N p_th exp(-lam s),
# lam = (KN-1) p_delta the mean number of other actually-relevant images.
# So the part of E[f] = K alpha_r int g past s* = 48/lam is at most
# (K N p_th alpha_r / lam) exp(-lam s*) <= 2 exp(-48) < 3e-21 for KN >= 2,
# since p_th alpha_r <= p_delta. The rule runs over [0, min(1, s*)] on panels
# [0, h], [h, 2h], [2h, 4h], ... with h = 8/lam, the last one cut at s*.
# On these panels 12 nodes integrate exp(-lam s) with a truncation error
# of 8e-18, below double rounding; 11 leave 1e-15 and 10 leave 1e-13.
_FIRST_PANEL = 8.0
_TAIL_CUT = 48.0
_PANEL_ORDER = 12  # Gauss-Legendre nodes per panel
# the slot counts' stacked (count, node, frame) arrays hold at most this
# many entries, unless one count's (node, frame) array alone holds more
_STACK_BLOCK = 1 << 18


def _panel_rule(lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, min(1, 48/lam)] from geometric panels (see
    above)."""
    stop = _TAIL_CUT / lam if lam > _TAIL_CUT else 1.0
    edge = _FIRST_PANEL / lam if lam > _FIRST_PANEL else 1.0
    edges = [0.0]
    while edge < stop:
        edges.append(edge)
        edge *= 2.0
    edges.append(stop)
    nodes, weights = _gauss_rule(_PANEL_ORDER)
    start = np.array(edges[:-1])[:, None]
    span = np.diff(edges)[:, None]
    return (start + span * nodes).ravel(), (span * weights).ravel()


def _mean_fractions(device_count: int, images_per_device: int,
                    slot_counts: Sequence[int], pass_probability: float,
                    alpha_r: float, alpha_n: float,
                    frames: Optional[int] = None,
                    log_law: Optional[np.ndarray] = None) -> dict[int, float]:
    """E[f] over the load distribution for each slot count, by the closed
    form (module docstring), with the tagged device's frames capped at
    ``frames`` when given.

    One row per quadrature node. ``y = P(c) x_r^c x_n^(N-c)`` is
    exponentiated once, shifted by its row maximum and divided by its row
    total ``A``, so its prefix and suffix sums are plain ``cumsum``s in
    [0, 1]; the scale ``A^K / x_r`` goes back in at the end. Only
    ``M_nu`` and the sum over frames depend on the slot count, so
    everything else is computed once for all of ``slot_counts``, and the
    slot counts are stacked along a leading axis, ``_STACK_BLOCK`` entries
    at a time. ``log_law`` is ``saddle_logpmf(N, pass_probability)`` when
    the caller has it.
    """
    images = images_per_device
    pdelta = pass_probability * alpha_r + (1.0 - pass_probability) * alpha_n
    s, weights = _panel_rule((device_count * images - 1) * pdelta)
    s = s[:, None]
    loads = np.arange(images + 1)
    log_xr = np.log1p(-alpha_r * s)
    log_xn = np.log1p(-alpha_n * s)
    # log P(c) in the saddle-point form: within 1e-14 in the bulk, which
    # the power K-1 below amplifies, and finite in the tails where pmf
    # underflows
    if log_law is None:
        log_law = saddle_logpmf(images, pass_probability)
    # log of P(c) x_r^c x_n^(N-c), exponentiated in place
    y = log_law + loads * log_xr + (images - loads) * log_xn
    top = y.max(axis=1, keepdims=True)
    y -= top
    np.exp(y, out=y)
    total = y.sum(axis=1, keepdims=True)
    y /= total
    # a cap F drops the frames past F and nothing else (module docstring)
    horizon = images if frames is None else min(frames, images)
    # S_nu / A and sum_{c<nu} y_c / A for nu = 1..F: M_nu / A is
    # below + b * above, two nonnegative parts, so nothing cancels, not
    # even at b = 0 (one slot)
    above = np.cumsum(y[:, :0:-1], axis=1)[:, ::-1][:, :horizon]
    below = np.cumsum(y[:, :horizon], axis=1)
    del y  # at large N each (node, load) array is tens of MB
    # log(A^K / x_r)
    scale = device_count * (top + np.log(total)) - log_xr
    with np.errstate(divide="ignore"):
        log_above = np.log(above)
    slot_counts = list(slot_counts)
    block = max(1, _STACK_BLOCK // log_above.size)
    fractions = {}
    for start in range(0, len(slot_counts), block):
        counts = slot_counts[start:start + block]
        with np.errstate(divide="ignore"):
            # log S_nu M_nu^(K-1), up to the scale, one slot count per
            # leading index, built in place in one stacked array
            if device_count > 1:
                keep = np.array([1.0 - 1.0 / slots for slots in counts])
                terms = keep[:, None, None] * above
                terms += below
                np.log(terms, out=terms)
                terms *= device_count - 1
                terms += log_above
            else:  # one device: S_nu alone
                terms = log_above[None].copy()
            peak = terms.max(axis=2, keepdims=True)
            peak[peak == -math.inf] = 0.0  # a row of zeros stays zero
            terms -= peak
            np.exp(terms, out=terms)
            log_sum = np.log(terms.sum(axis=2, keepdims=True))
            integrand = np.exp(scale + peak + log_sum)[..., 0]
        if device_count == 1:  # nothing collides: one row serves every count
            integrand = integrand.repeat(len(counts), axis=0)
        for slots, row in zip(counts, integrand):
            fractions[slots] = device_count * alpha_r * float(row @ weights)
    return fractions


class _FractionTable:
    """The delivered fraction f(psi) of one scenario, G filled lazily.

    ``weight[w] = w * b^(w-1)`` is the expected number of deliveries of a
    frame with ``w`` active devices. ``g[R]`` is filled a block of loads at
    a time on first use, so a chain pays only for the loads it visits and
    no table of size (KN)^2 is ever built.
    """

    def __init__(self, device_count: int, images_per_device: int, slots: int,
                 alpha_r: float, alpha_n: float):
        base = 1.0 - 1.0 / slots
        self.weight = [0.0] + [w * base ** (w - 1)
                               for w in range(1, device_count + 1)]
        self.images = device_count * images_per_device
        self.alpha_r = alpha_r
        self.alpha_n = alpha_n
        self.g: list = [0.0] + [None] * self.images  # load 0 delivers nothing

    def fill(self, load: int) -> float:
        """Evaluate G on the block of loads holding ``load``; return G(load)."""
        start = max(1, load - load % _LOAD_BLOCK)
        stop = min(self.images, start + _LOAD_BLOCK - 1)
        nodes, weights = _gauss_rule(64)
        loads = np.arange(start, stop + 1, dtype=float)[:, None]
        lam = (loads - 1.0) * self.alpha_r + (self.images - loads) * self.alpha_n
        span = _DECAY_SPAN / np.maximum(lam, _DECAY_SPAN)
        s = span * nodes
        log_h = ((loads - 1.0) * np.log1p(-self.alpha_r * s)
                 + (self.images - loads) * np.log1p(-self.alpha_n * s))
        values = span[:, 0] * (np.exp(log_h) @ weights)
        self.g[start:stop + 1] = values.tolist()
        return self.g[load]


def _frame_deliveries(counts: Sequence[int], occupied: list[int],
                      active: int, weight: list[float], horizon: int) -> float:
    """sum_nu W_nu * b^(W_nu - 1) over the frames nu <= horizon of a
    composition.

    ``occupied`` holds the nonzero bins in any order; ``active`` devices
    hold at least one image.
    """
    total = 0.0
    prev = 0
    for nu in sorted(occupied):
        if nu == 0:
            continue
        if nu >= horizon:
            return total + (horizon - prev) * weight[active]
        total += (nu - prev) * weight[active]
        active -= counts[nu]
        prev = nu
    return total


class ScoreRows:
    """Expected scores of one scenario over a grid of thresholds and
    rates, taken one threshold row at a time; the one evaluator of the
    score's terms.

    The closed form (module docstring), with each piece computed at the
    level where it varies: ``pdelta``, ``p_omega = P(Omega > 0)`` and the
    ``offset`` once for the scenario, the ``gains`` ``gamma - k_d(r)`` and
    the ``slots`` once per rate, and per row only :meth:`alphas` and the
    closed form's quadrature and sums over loads, once per distinct slot
    count of the row. The relevance threshold of ``cfg`` itself is not
    read. Each value is bitwise :func:`expected_sifi_exact` of ``cfg`` at
    that threshold and rate. ``cfg.fixed_frames`` caps the frames of every
    device. A zero actually-relevant tail gives ``p_omega = 0`` and
    ``alpha_r = 0``, so every score is the offset, 1.
    """

    def __init__(self, cfg: ScenarioConfig, rates: Sequence[float]):
        self.cfg = cfg
        self.pdelta = p_delta(cfg.truth_threshold, cfg.truth_distribution)
        images = cfg.device_count * cfg.images_per_device
        self.p_omega = 1.0 - (1.0 - self.pdelta) ** images
        # the score of a round that delivers nothing
        self.offset = self.p_omega * (1.0 - cfg.penalty) + (1.0 - self.p_omega)
        self.gains = [cfg.penalty - fidelity_distance(rate) for rate in rates]
        self.slots = [cfg.frame_slots(rate) for rate in rates]

    def detected_mass(self, relevance_threshold: float) -> float:
        """P(actually relevant and passing the filter at the threshold)."""
        cfg = self.cfg
        return _filtered_mass(relevance_threshold, cfg.model_noise,
                              cfg.truth_distribution, cfg.truth_threshold)

    def alphas(self, relevance_threshold: float,
               pass_probability: float) -> tuple[float, float]:
        """``(alpha_r, alpha_n)``: P(actually relevant | passed the filter)
        and P(actually relevant | filtered out), ``p_th`` being
        ``pass_probability``."""
        detect = self.detected_mass(relevance_threshold)
        alpha_r = detect / pass_probability if pass_probability > 0.0 else 0.0
        alpha_n = ((self.pdelta - detect) / (1.0 - pass_probability)
                   if pass_probability < 1.0 else 0.0)
        # rounding in the masses must not push either probability out of [0, 1]
        return min(max(alpha_r, 0.0), 1.0), min(max(alpha_n, 0.0), 1.0)

    def row(self, relevance_threshold: float, pass_probability: float,
            columns: Sequence[int],
            log_law: Optional[np.ndarray] = None) -> list[float]:
        """Scores at ``relevance_threshold``, whose ``p_th`` is
        ``pass_probability``, for the rates at ``columns``; ``log_law`` is
        ``saddle_logpmf(N, pass_probability)`` when the caller has it."""
        cfg = self.cfg
        alpha_r, alpha_n = self.alphas(relevance_threshold, pass_probability)
        gains = [self.gains[j] for j in columns]
        slots = [self.slots[j] for j in columns]
        scored = sorted({count for count, gain in zip(slots, gains)
                         if gain * alpha_r != 0.0})
        fractions = (_mean_fractions(cfg.device_count, cfg.images_per_device,
                                     scored, pass_probability, alpha_r,
                                     alpha_n, cfg.fixed_frames, log_law)
                     if scored else {})
        return [self.offset if gain * alpha_r == 0.0
                else self.offset + gain * fractions[count]
                for gain, count in zip(gains, slots)]


def sifi_affine(cfg: ScenarioConfig) -> tuple[float, float]:
    """Coefficients (offset, slope) of the collision-free expected score.

    ``offset + slope`` is the expected score when every queued image is
    delivered, as with one device; ``offset`` is the score of a round that
    delivers nothing. A frame cap below N leaves images unsent, so it is
    rejected. A zero actually-relevant tail collapses to the constant 1.
    """
    frames, images = cfg.fixed_frames, cfg.images_per_device
    if frames is not None and frames < images:
        raise ValueError(f"fixed_frames={frames} < N={images} leaves images "
                         f"unsent")
    terms = ScoreRows(cfg, (cfg.compression_rate,))
    if terms.pdelta <= 0.0:  # the slope is 0/0
        return terms.offset, 0.0
    detect = terms.detected_mass(cfg.relevance_threshold)
    return (terms.offset,
            terms.p_omega * terms.gains[0] * detect / terms.pdelta)


def score_terms(cfg: ScenarioConfig,
                pass_probability: float) -> tuple[float, float, float, float]:
    """Coefficients (offset, gain, alpha_r, alpha_n) of the expected score.

    The score is ``offset + gain * E_psi[f(psi)]`` with ``gain = gamma -
    k_d``; with ``pass_probability`` (``p_th``), the alphas of
    :class:`ScoreRows` fix the delivered fraction ``f``. A zero
    actually-relevant tail gives ``(1, gain, 0, 0)``: ``f`` is 0.
    """
    terms = ScoreRows(cfg, (cfg.compression_rate,))
    return (terms.offset, terms.gains[0],
            *terms.alphas(cfg.relevance_threshold, pass_probability))


def expected_sifi_over_rates(cfg: ScenarioConfig,
                             rates: Sequence[float]) -> list[float]:
    """Expected score of ``cfg`` at each compression rate of ``rates``: the
    one-row case of :class:`ScoreRows`."""
    pth = p_th(cfg.relevance_threshold, cfg.model_noise,
               cfg.truth_distribution)
    return ScoreRows(cfg, rates).row(cfg.relevance_threshold, pth,
                                     range(len(rates)))


def expected_sifi_exact(cfg: ScenarioConfig) -> float:
    """Expected score from the closed form for E[f] (module docstring).

    The one-rate case of :func:`expected_sifi_over_rates`.
    """
    return expected_sifi_over_rates(cfg, (cfg.compression_rate,))[0]


# --- Metropolis chain over compositions -------------------------------------


@dataclass(frozen=True)
class ChainResult:
    """A chain's estimate of the expected score, with its diagnostics.

    ``mean_success`` and ``success_trace`` hold the delivered fraction
    ``f`` of the visited states; ``estimate`` is ``offset + gain *
    mean_success``.
    """

    estimate: float
    samples: int
    mean_success: float
    acceptance_rate: float
    invalid_states: int
    checked_states: int
    state_counts: Optional[dict]
    success_trace: Optional[np.ndarray]


def _initial_state(device_count: int, log_rel: Sequence[float]) -> list[int]:
    # the multinomial mean K * p, rounded by largest remainder: the chain
    # starts in its typical set, so no burn-in is needed to forget the start
    top = max(log_rel)
    weights = [math.exp(v - top) for v in log_rel]
    total = sum(weights)
    quotas = [device_count * w / total for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(quotas)),
                          key=lambda b: counts[b] - quotas[b])
    for b in by_remainder[:device_count - sum(counts)]:
        counts[b] += 1
    return counts


def run_chain(log_rel: Sequence[float], device_count: int, slots: int,
              samples: int, seed: int, *,
              terms: tuple[float, float, float, float],
              burn_in: int = 0, hastings: bool = True, state_stride: int = 0,
              keep_trace: bool = False, check_every: int = 1000,
              frames: Optional[int] = None) -> ChainResult:
    """Run the one-device-move Metropolis chain over compositions.

    ``log_rel`` holds the log bin probabilities (length N+1) and ``terms``
    the four values ``(offset, gain, alpha_r, alpha_n)`` of
    :func:`score_terms`: the chain averages the delivered fraction over its
    visited states and maps the mean to the score. Each step
    decrements a uniformly chosen occupied bin, increments a uniformly
    chosen other bin, and accepts when a fresh uniform draw does not exceed
    the probability ratio (with the proposal correction when ``hastings``).
    The chain starts at the multinomial mean rounded to whole devices.
    Moves between two zero-probability states are always taken, letting a
    chain started outside the support random-walk into it.

    ``state_stride`` > 0 records every stride-th post-update state;
    ``check_every`` >= 1 revalidates the full state at that period.
    ``frames`` caps the frames a device sends in, as ``fixed_frames``.
    """
    if samples < 1:
        raise ValueError(f"samples={samples} must be >= 1")
    if burn_in < 0:
        raise ValueError(f"burn_in={burn_in} must be >= 0")
    if seed < 0:
        raise ValueError(f"seed={seed} must be >= 0")
    n_bins = len(log_rel)
    log_rel = [float(v) for v in log_rel]
    offset, gain, alpha_r, alpha_n = terms
    table = _FractionTable(device_count, n_bins - 1, slots, alpha_r, alpha_n)
    horizon = n_bins - 1 if frames is None else frames
    weight = table.weight
    g_values = table.g
    counts = _initial_state(device_count, log_rel)
    occupied = [b for b in range(n_bins) if counts[b] > 0]
    position = {b: i for i, b in enumerate(occupied)}
    load = sum(nu * q for nu, q in enumerate(counts))
    # logs[i] = log(i) for every count and occupied-bin total a step meets
    logs = [0.0] + [math.log(i) for i in range(1, device_count + 1)]

    def state_fraction() -> float:
        g = g_values[load]
        if g is None:
            g = table.fill(load)
        return alpha_r * g * _frame_deliveries(
            counts, occupied, device_count - counts[0], weight, horizon)

    rng = np.random.default_rng(seed)
    total_steps = burn_in + samples
    accepted = 0
    fraction_sum = 0.0
    current = state_fraction()
    state_counts: Optional[dict] = {} if state_stride > 0 else None
    trace = np.empty(samples) if keep_trace else None
    invalid = 0
    checked = 0
    others = n_bins - 1

    block = 4096
    cursor = block
    for step in range(total_steps):
        if cursor == block:
            drawn = rng.random((block, 3))
            u_from = drawn[:, 0].tolist()
            u_to = drawn[:, 1].tolist()
            with np.errstate(divide="ignore"):
                log_accept = np.log(drawn[:, 2]).tolist()
            cursor = 0
        n_occupied = len(occupied)
        source = occupied[int(u_from[cursor] * n_occupied)]
        target = int(u_to[cursor] * others)
        if target >= source:
            target += 1
        counts_source = counts[source]
        counts_target = counts[target]

        ratio = (log_rel[target] - log_rel[source]
                 + logs[counts_source] - logs[counts_target + 1])
        if hastings:
            after = n_occupied
            if counts_source == 1:
                after -= 1
            if counts_target == 0:
                after += 1
            ratio += logs[n_occupied] - logs[after]

        # a NaN ratio means both states lie outside the support: keep wandering
        if ratio != ratio or log_accept[cursor] <= ratio:
            accepted += 1
            counts[source] = counts_source - 1
            assert counts_source >= 1
            if counts_source == 1:
                index = position.pop(source)
                last = occupied[-1]
                occupied[index] = last
                position[last] = index
                occupied.pop()
            counts[target] = counts_target + 1
            if counts_target == 0:
                position[target] = len(occupied)
                occupied.append(target)
            load += target - source
            current = state_fraction()
        cursor += 1

        if check_every >= 1 and step % check_every == 0:
            checked += 1
            if sum(counts) != device_count or min(counts) < 0:
                invalid += 1

        if step < burn_in:
            continue
        sample_index = step - burn_in
        fraction_sum += current
        if trace is not None:
            trace[sample_index] = current
        if state_counts is not None and sample_index % state_stride == 0:
            key = tuple(counts)
            state_counts[key] = state_counts.get(key, 0) + 1

    mean_success = fraction_sum / samples
    return ChainResult(
        estimate=offset + gain * mean_success,
        samples=samples,
        mean_success=mean_success,
        acceptance_rate=accepted / total_steps,
        invalid_states=invalid,
        checked_states=checked,
        state_counts=state_counts,
        success_trace=trace,
    )


def mcmc_expected_sifi(cfg: ScenarioConfig, samples: int, seed: int,
                       burn_in: int = 0, hastings: bool = True,
                       state_stride: int = 0, keep_trace: bool = False,
                       check_every: int = 1000) -> ChainResult:
    """Metropolis estimate of the expected score, with diagnostics."""
    pth = p_th(cfg.relevance_threshold, cfg.model_noise,
               cfg.truth_distribution)
    return run_chain(saddle_logpmf(cfg.images_per_device, pth),
                     cfg.device_count, cfg.frame_slots(), samples, seed,
                     terms=score_terms(cfg, pth), burn_in=burn_in,
                     hastings=hastings, state_stride=state_stride,
                     keep_trace=keep_trace, check_every=check_every,
                     frames=cfg.fixed_frames)

