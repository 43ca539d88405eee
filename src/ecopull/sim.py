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
"""

from __future__ import annotations

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


def _run_round_core(ctx: _Context, rng: np.random.Generator) -> RoundOutcome:
    beta = np.asarray(ctx.truth.sample(rng, (ctx.devices, ctx.images)),
                      dtype=float)
    observed = beta + rng.normal(0.0, ctx.sigma, (ctx.devices, ctx.images))
    relevant = observed >= ctx.vth
    rel_counts = relevant.sum(axis=1)
    order_keys = rng.random((ctx.devices, ctx.images))

    drain = int(rel_counts.max(initial=0))
    horizon = drain
    if ctx.fixed_frames is not None:
        horizon = min(drain, ctx.fixed_frames)
    attempted = np.minimum(rel_counts, horizon)

    delivered = np.zeros_like(relevant)
    if horizon > 0:
        slots = rng.integers(0, ctx.slots, size=(ctx.devices, horizon))
        active = np.arange(horizon)[None, :] < attempted[:, None]
        keys = slots + ctx.slots * np.arange(horizon)[None, :]
        occupancy = np.bincount(keys[active], minlength=ctx.slots * horizon)
        alone = active & (occupancy[keys] == 1)
        for dev in range(ctx.devices):
            sent = int(attempted[dev])
            if sent == 0:
                continue
            queue = np.flatnonzero(relevant[dev])
            order = np.argsort(order_keys[dev, queue], kind="stable")
            chosen = queue[order[:sent]]
            delivered[dev, chosen] = alone[dev, :sent]

    actual = beta >= ctx.delta
    omega = int(actual.sum())
    delivered_actual = int(np.count_nonzero(delivered & actual))
    if omega == 0:
        sifi = 1.0
    else:
        sifi = 1.0 - (ctx.kd * delivered_actual
                      + ctx.gamma * (omega - delivered_actual)) / omega

    return RoundOutcome(
        true_similarity=beta,
        observed_similarity=observed,
        relevant=relevant,
        actual=actual,
        delivered=delivered,
        relevant_counts=rel_counts,
        computation=ctx.comp_fixed + rel_counts * ctx.comp_per_relevant,
        communication=ctx.comm_fixed + attempted * ctx.comm_per_tx,
        frames_used=horizon,
        sifi=sifi,
    )


def run_round(cfg: ScenarioConfig, seed: SeedLike) -> RoundOutcome:
    """Simulate one round on ``default_rng(seed)``."""
    return _run_round_core(_Context(cfg), np.random.default_rng(seed))


def simulate(cfg: ScenarioConfig, rounds: int, seed: int,
             keep_rounds: bool = False) -> SimAggregate:
    """Average many independent rounds.

    Round ``i`` is ``run_round(cfg, (seed, i))``: the same kernel on a
    generator seeded by ``(seed, i)``, so ``rounds=1`` reproduces
    ``run_round(cfg, (seed, 0))`` exactly. Accumulation is in round order,
    keeping aggregates bitwise stable.
    """
    if rounds < 1:
        raise ValueError(f"rounds={rounds} must be >= 1")
    ctx = _Context(cfg)
    sifi_sum = 0.0
    sifi_sq = 0.0
    energy_sum = 0.0
    energy_sq = 0.0
    delivered_sum = 0
    omega_sum = 0
    frames_sum = 0
    detail: Optional[list[RoundStats]] = [] if keep_rounds else None
    for index in range(rounds):
        rng = np.random.default_rng((seed, index))
        out = _run_round_core(ctx, rng)
        mean_energy = float(np.mean(out.computation + out.communication))
        sifi_sum += out.sifi
        sifi_sq += out.sifi * out.sifi
        energy_sum += mean_energy
        energy_sq += mean_energy * mean_energy
        delivered_sum += out.delivered_count
        omega_sum += out.actual_relevant_count
        frames_sum += out.frames_used
        if detail is not None:
            detail.append(RoundStats(index=index, sifi=out.sifi,
                                     mean_device_energy=mean_energy,
                                     delivered=out.delivered_count,
                                     actual_relevant=out.actual_relevant_count,
                                     frames=out.frames_used))
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
