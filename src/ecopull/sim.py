"""Monte Carlo simulator of one pull round over the slotted random-access channel.

Round structure: every device scores its N images against the query, queues
the ones whose noisy score clears the threshold, then drains the queue one
image per frame, picking a uniformly random queued image and a uniformly
random slot out of L. A transmission survives only if it is alone in its
slot; collided images are dropped (no retransmission). By default frames
run until every queue is empty; ``fixed_frames`` caps the horizon instead,
leaving unattempted images undelivered.

Scores are compared to the threshold unclamped, keeping the simulation on
the same probability model as the Q-function analysis.

Rounds are simulated in blocks. Each round still draws from its own
generator, in the order of a one-round call; everything after the draws
runs once per block, so a block's rounds equal one-round calls bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .config import ScenarioConfig
from .energy import (_compression_energy, _uplink_energy,
                     communication_energy, computation_energy)
from .sifi import fidelity_distance

__all__ = [
    "RoundOutcome",
    "RoundStats",
    "SimAggregate",
    "run_round",
    "simulate",
]

SeedLike = Union[int, Sequence[int]]

# Rounds simulated together: a block holds at most this many images
# (rounds x devices x images), and a larger round runs alone. Smaller
# blocks pay more per-block numpy calls; larger ones hold more memory and
# fall out of cache.
_BLOCK_ELEMENTS = 2 ** 14


@dataclass(frozen=True, eq=False)
class RoundOutcome:
    """Arrays of one simulated round, indexed ``[device, image]`` or ``[device]``.

    ``relevant`` marks images whose observed score cleared the device
    threshold, ``actual`` those whose true similarity cleared the server
    threshold, ``delivered`` those sent alone in their slot.
    """

    true_similarity: np.ndarray      # (K, N)
    observed_similarity: np.ndarray  # (K, N)
    relevant: np.ndarray             # (K, N) bool
    actual: np.ndarray               # (K, N) bool
    delivered: np.ndarray            # (K, N) bool
    relevant_counts: np.ndarray      # (K,)
    computation: np.ndarray          # (K,) J
    communication: np.ndarray        # (K,) J
    frames_used: int
    sifi: float

    @property
    def delivered_count(self) -> int:
        return int(self.delivered.sum())

    @property
    def actual_relevant_count(self) -> int:
        return int(self.actual.sum())


@dataclass(frozen=True)
class RoundStats:
    """Lightweight per-round numbers for CSV emission."""

    index: int
    sifi: float
    mean_device_energy: float
    delivered: int
    actual_relevant: int
    frames: int


@dataclass(frozen=True)
class SimAggregate:
    """Round-averaged results of a simulation run."""

    rounds: int
    mean_sifi: float
    sifi_stderr: float
    mean_total_energy: float
    total_energy_stderr: float
    mean_delivered: float
    mean_actual_relevant: float
    mean_frames: float
    rounds_detail: Optional[list[RoundStats]] = None


class _Context:
    """Per-config constants hoisted out of the round loop."""

    def __init__(self, cfg: ScenarioConfig):
        self.devices = cfg.device_count
        self.images = cfg.images_per_device
        self.vth = cfg.relevance_threshold
        self.delta = cfg.truth_threshold
        self.sigma = cfg.model_noise
        self.slots = cfg.frame_slots()
        self.fixed_frames = cfg.fixed_frames
        self.kd = fidelity_distance(cfg.compression_rate)
        self.gamma = cfg.penalty
        self.truth = cfg.truth_distribution
        self.comp_fixed = computation_energy(cfg, 0)
        self.comp_per_relevant = _compression_energy(cfg)
        self.comm_fixed = communication_energy(cfg, 0)
        self.comm_per_tx = _uplink_energy(cfg)


def _row_starts(shape: tuple) -> np.ndarray:
    """Flat index of the first element of every last-axis row of ``shape``,
    shaped to broadcast against per-row indices."""
    width = shape[-1]
    return np.arange(0, math.prod(shape), width).reshape(*shape[:-1], 1)


def _queue_order(keys: np.ndarray, relevant: np.ndarray,
                 head: int) -> np.ndarray:
    """First ``head`` images of every queue, in the order they are sent.

    A device sends its relevant images in increasing order of ``keys``,
    the lower image index first on an exact tie, as a stable sort would.
    Irrelevant keys are set to 2.0 in place, above every key drawn in
    ``[0, 1)``, so each row sorts its queue first. One unstable sort serves
    every block whose queues hold no tie in or at the edge of the head; a
    block with one is sorted again stably.
    """
    np.maximum(keys, 2.0 * ~relevant, out=keys)
    order = np.argsort(keys, axis=-1)
    ranked = keys.take(order[..., :head + 1] + _row_starts(keys.shape))
    if np.any((ranked[..., 1:] == ranked[..., :-1]) & (ranked[..., 1:] < 2.0)):
        order = np.argsort(keys, axis=-1, kind="stable")
    return order[..., :head]


def _alone(slots: np.ndarray, active: np.ndarray, slot_count: int) -> np.ndarray:
    """Flat indices into ``slots[round, device, frame]`` of the active
    transmissions that are the only one in their (round, frame, slot) cell.

    The active transmissions' codes ``cell << bits | device`` are sorted,
    so a transmission is alone when neither sorted neighbour has its cell.
    Memory grows with the transmissions, not with the slot count; the codes
    stay below ``2 * rounds * frames * devices * L``.
    """
    rounds, devices, frames = slots.shape
    bits = max(devices - 1, 1).bit_length()
    cell_base = (np.arange(rounds)[:, None, None] * frames
                 + np.arange(frames)) * slot_count
    codes = ((slots + cell_base) << bits) | np.arange(devices)[:, None]
    codes = np.sort(codes[active])
    cells = codes >> bits
    repeat = cells[1:] == cells[:-1]
    lone = np.ones(len(codes), dtype=bool)
    lone[1:] = ~repeat
    lone[:-1] &= ~repeat
    codes = codes[lone]
    cell_row = (codes >> bits) // slot_count          # round * F + frame
    senders = codes & ((1 << bits) - 1)
    return ((cell_row // frames * devices + senders) * frames
            + cell_row % frames)


@dataclass(frozen=True, eq=False)
class _Rounds:
    """Arrays of a block of rounds: ``RoundOutcome``'s with a leading round axis,
    plus each round's counts and mean device energy."""

    true_similarity: np.ndarray      # (B, K, N)
    observed_similarity: np.ndarray  # (B, K, N)
    relevant: np.ndarray             # (B, K, N) bool
    actual: np.ndarray               # (B, K, N) bool
    delivered: np.ndarray            # (B, K, N) bool
    relevant_counts: np.ndarray      # (B, K)
    computation: np.ndarray          # (B, K) J
    communication: np.ndarray        # (B, K) J
    frames: np.ndarray               # (B,)
    sifi: np.ndarray                 # (B,)
    mean_energy: np.ndarray          # (B,) J
    delivered_counts: np.ndarray     # (B,)
    actual_counts: np.ndarray        # (B,)


def _run_rounds(ctx: _Context, seeds: Sequence[SeedLike]) -> _Rounds:
    """Simulate one round per seed, round ``b`` on ``default_rng(seeds[b])``.

    Each round draws, in order, the true similarities, the score noise, the
    queue-order keys and then, once its horizon is known, one slot per
    device and frame. Everything after the draws runs once for the block.
    """
    rounds = len(seeds)
    shape = (ctx.devices, ctx.images)
    beta = np.empty((rounds, *shape))
    observed = np.empty((rounds, *shape))
    keys = np.empty((rounds, *shape))
    generators = []
    for b, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        beta[b] = ctx.truth.sample(rng, shape)
        observed[b] = rng.normal(0.0, ctx.sigma, shape)
        rng.random(out=keys[b])
        generators.append(rng)
    observed += beta
    relevant = observed >= ctx.vth
    rel_counts = np.count_nonzero(relevant, axis=2)

    horizons = rel_counts.max(axis=1)
    if ctx.fixed_frames is not None:
        np.minimum(horizons, ctx.fixed_frames, out=horizons)
    attempted = np.minimum(rel_counts, horizons[:, None])
    head = int(horizons.max())

    delivered = np.zeros_like(relevant)
    if head > 0:
        slots = np.zeros((rounds, ctx.devices, head), dtype=np.int64)
        for b, (rng, horizon) in enumerate(zip(generators,
                                               horizons.tolist())):
            if horizon > 0:
                slots[b, :, :horizon] = rng.integers(
                    0, ctx.slots, size=(ctx.devices, horizon))
        active = np.arange(head) < attempted[..., None]
        sent = _queue_order(keys, relevant, head) + _row_starts(keys.shape)
        delivered.reshape(-1)[sent.take(_alone(slots, active, ctx.slots))] = True

    actual = beta >= ctx.delta
    omega = np.count_nonzero(actual, axis=(1, 2))
    hits = np.count_nonzero(delivered & actual, axis=(1, 2))
    loss = (ctx.kd * hits + ctx.gamma * (omega - hits)) / np.maximum(omega, 1)
    computation = ctx.comp_fixed + rel_counts * ctx.comp_per_relevant
    communication = ctx.comm_fixed + attempted * ctx.comm_per_tx
    return _Rounds(
        true_similarity=beta,
        observed_similarity=observed,
        relevant=relevant,
        actual=actual,
        delivered=delivered,
        relevant_counts=rel_counts,
        computation=computation,
        communication=communication,
        frames=horizons,
        sifi=np.where(omega > 0, 1.0 - loss, 1.0),
        mean_energy=np.mean(computation + communication, axis=1),
        delivered_counts=np.count_nonzero(delivered, axis=(1, 2)),
        actual_counts=omega,
    )


def run_round(cfg: ScenarioConfig, seed: SeedLike) -> RoundOutcome:
    """Simulate one round on ``default_rng(seed)``."""
    out = _run_rounds(_Context(cfg), [seed])
    return RoundOutcome(
        true_similarity=out.true_similarity[0],
        observed_similarity=out.observed_similarity[0],
        relevant=out.relevant[0],
        actual=out.actual[0],
        delivered=out.delivered[0],
        relevant_counts=out.relevant_counts[0],
        computation=out.computation[0],
        communication=out.communication[0],
        frames_used=int(out.frames[0]),
        sifi=float(out.sifi[0]),
    )


def simulate(cfg: ScenarioConfig, rounds: int, seed: int,
             keep_rounds: bool = False) -> SimAggregate:
    """Average many independent rounds.

    Round ``i`` is ``run_round(cfg, (seed, i))``: the same kernel on a
    generator seeded by ``(seed, i)``, so ``rounds=1`` reproduces
    ``run_round(cfg, (seed, 0))`` exactly. Rounds are simulated in blocks
    of at most ``_BLOCK_ELEMENTS`` images, and accumulated in round order,
    keeping aggregates bitwise stable.
    """
    if rounds < 1:
        raise ValueError(f"rounds={rounds} must be >= 1")
    if seed < 0:
        raise ValueError(f"seed={seed} must be >= 0")
    ctx = _Context(cfg)
    block = max(1, _BLOCK_ELEMENTS // (ctx.devices * ctx.images))
    sifi_sum = 0.0
    sifi_sq = 0.0
    energy_sum = 0.0
    energy_sq = 0.0
    delivered_sum = 0
    omega_sum = 0
    frames_sum = 0
    detail: Optional[list[RoundStats]] = [] if keep_rounds else None
    for start in range(0, rounds, block):
        indices = range(start, min(start + block, rounds))
        out = _run_rounds(ctx, [(seed, index) for index in indices])
        sifis = out.sifi.tolist()
        energies = out.mean_energy.tolist()
        for sifi, energy in zip(sifis, energies):
            sifi_sum += sifi
            sifi_sq += sifi * sifi
            energy_sum += energy
            energy_sq += energy * energy
        delivered_sum += int(out.delivered_counts.sum())
        omega_sum += int(out.actual_counts.sum())
        frames_sum += int(out.frames.sum())
        if detail is not None:
            detail.extend(map(RoundStats, indices, sifis, energies,
                              out.delivered_counts.tolist(),
                              out.actual_counts.tolist(),
                              out.frames.tolist()))
    mean_sifi = sifi_sum / rounds
    mean_energy = energy_sum / rounds
    return SimAggregate(
        rounds=rounds,
        mean_sifi=mean_sifi,
        sifi_stderr=_stderr(sifi_sum, sifi_sq, rounds),
        mean_total_energy=mean_energy,
        total_energy_stderr=_stderr(energy_sum, energy_sq, rounds),
        mean_delivered=delivered_sum / rounds,
        mean_actual_relevant=omega_sum / rounds,
        mean_frames=frames_sum / rounds,
        rounds_detail=detail,
    )


def _stderr(total: float, total_sq: float, n: int) -> float:
    if n < 2:
        return 0.0
    var = (total_sq - total * total / n) / (n - 1)
    return float(np.sqrt(max(var, 0.0)) / np.sqrt(n))
