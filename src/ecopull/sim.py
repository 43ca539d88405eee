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
A device's queue order is the order of its images' ``random()`` keys;
the keys are drawn as the raw 64-bit words ``random()`` would map to
doubles, and queued by one integer sort of codes that pack each key's
drawn bits with its image index (see ``_queue_order``).

Each thread running a ``simulate`` call's blocks keeps one set of
round-sized arrays (``_RoundBuffers``) for the whole call and runs every
block on leading views of it, so its rounds do not each allocate, and
fault in, their own draw, sort and slot arrays. The set is freed when the
call returns; ``run_round`` makes a set of its own, so its outcome
aliases nothing.

A round of at least ``_MIN_THREADED_ROUND`` images is a block of its
own, and most of its time is numpy work that releases the GIL. When the
process may use two CPUs, ``simulate`` runs such rounds on the calling
thread and one worker thread, each taking the next unstarted round. Each
reduces its round to the per-round values ``simulate`` keeps, and the
caller accumulates them in round order, so the outputs keep their bits.

Round ``i`` of ``simulate`` draws exactly what ``default_rng((seed, i))``
would. ``default_rng`` hashes the pair with ``SeedSequence`` and seeds
PCG64 from four 64-bit words. For a block of at least
``_MIN_HASHED_BLOCK`` rounds, ``simulate`` computes that hash in uint32
numpy for the whole block, finishes PCG64's seeding in Python ints and
sets the state of one reused generator per round. A round takes its
queue keys and raw 64-bit draws enough for its longest possible horizon
in one ``random_raw`` call; its slots are Lemire's multiply-shift
(D. Lemire, "Fast Random Integer Generation in an Interval", ACM TOMACS
2019) on their 32-bit halves, low half first, as ``Generator.integers``
maps them. A round with a used draw that numpy might reject runs again
on ``default_rng``; so do whole blocks when the seed is not one 32-bit
word or ``L >= 2**32``, smaller blocks, and ``run_round``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .config import ScenarioConfig, UniformTruth
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

# Blocks of at least this many rounds seed them without SeedSequence.
# Hashing a block's seeds costs a fixed ~50 numpy calls, more than one
# SeedSequence, and mapping slots in numpy loses to integers() at large
# K * horizon, so smaller blocks (and run_round) use default_rng.
_MIN_HASHED_BLOCK = 16

# Rounds of at least this many images run two at a time, on the calling
# thread and one worker thread, when the process may use two CPUs. On a
# 2-core host smaller rounds lost up to 17% (K * N = 9000 to 12000) to the
# threads' contention for the GIL, and every shape tried from here up
# gained 4% to 39%. Timed again once rounds reused their buffers and
# stopped faulting pages in (10-round calls, alternating, three runs of
# 30-40 pairs per shape): K * N = 9000 to 14000 was slower or level on
# two threads in 13 of 17 shape runs, by up to 59%, and faster in the other
# 4, by up to 19%; 16000 to 20000 was faster in all 9, by 0.6% to 18%.
_MIN_THREADED_ROUND = 2 ** 14

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
        # the longest horizon a round can have
        self.max_frames = (self.images if self.fixed_frames is None
                           else min(self.images, self.fixed_frames))
        # raw 64-bit words holding a round's slot draws at that horizon,
        # two 32-bit draws to a word
        self.slot_words = (self.devices * self.max_frames + 1) // 2
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


# Generator.random() maps a raw 64-bit word to (raw >> 11) * 2**-53, so
# the low _IMAGE_BITS bits of a queue key never order it: up to
# _PACKED_IMAGES images, a key's image index fits in their place.
_IMAGE_BITS = 11
_PACKED_IMAGES = 1 << _IMAGE_BITS
_IMAGE_MASK = np.uint64(_PACKED_IMAGES - 1)


def _queue_order(keys: np.ndarray, relevant: np.ndarray,
                 head: int) -> np.ndarray:
    """First ``head`` images of every queue, in the order they are sent.

    ``keys`` holds each image's raw 64-bit queue draw, and is overwritten.
    A device sends its relevant images in increasing order of
    ``raw >> 11``, the order of the ``random()`` values those words make,
    the lower image index first on an exact tie, as a stable sort would.

    Up to ``_PACKED_IMAGES`` images per device, each key becomes the code
    ``raw & ~0x7FF | image`` and each irrelevant one ``2**64 - 1``, above
    every relevant code but one that decodes alike; one in-place sort then
    leaves every queue, in order, in the low bits of its row's first codes.
    Equal draws order by image index, so no tie needs a second sort.
    Larger libraries take a stable ``argsort`` of ``raw >> 11``.
    """
    # 0 for a relevant image, 2**64 - 1 (the difference wraps) for the
    # others: an OR with it is a masked store without a branch per image
    last = np.subtract(relevant, np.uint64(1), dtype=np.uint64)
    if keys.shape[-1] <= _PACKED_IMAGES:
        keys &= ~_IMAGE_MASK
        keys |= np.arange(keys.shape[-1], dtype=np.uint64)
        keys |= last
        keys.sort(axis=-1)
        return (keys[..., :head] & _IMAGE_MASK).view(np.int64)
    keys >>= np.uint64(_IMAGE_BITS)
    keys |= last
    return np.argsort(keys, axis=-1, kind="stable")[..., :head]


def _alone(slots: np.ndarray, active: np.ndarray, slot_count: int) -> np.ndarray:
    """Flat indices into ``slots[round, device, frame]`` of the active
    transmissions that are the only one in their (round, frame, slot) cell.

    ``slots`` is overwritten with the codes ``cell << bits | device``. The
    active transmissions' codes are sorted, so a transmission is alone when
    neither sorted neighbour has its cell. Memory grows with the
    transmissions, not with the slot count. The codes stay below
    ``(rounds * frames * L) << bits``; when that reaches 2^63, each round's
    cells are coded and sorted apart, and only a round whose own codes
    reach 2^63 is rejected.
    """
    rounds, devices, frames = slots.shape
    bits = max(devices - 1, 1).bit_length()
    if (frames * slot_count) << bits >= 1 << 63:
        raise ValueError(
            f"a round of {frames} frames of {slot_count} slots for "
            f"{devices} devices needs collision codes of 2^63 or more")
    if (rounds * frames * slot_count) << bits >= 1 << 63:
        # round b's flat indices follow the rounds before it
        return np.concatenate([
            _alone(slots[b:b + 1], active[b:b + 1], slot_count)
            + b * devices * frames for b in range(rounds)])
    slots += (np.arange(rounds)[:, None, None] * frames
              + np.arange(frames)) * slot_count
    slots <<= bits
    slots |= np.arange(devices)[:, None]
    codes = slots[active]
    codes.sort()
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


class _RoundBuffers:
    """Round-sized arrays that one thread reuses for every block it runs.

    Each is flat and sized for a block of ``rounds`` rounds at the longest
    horizon; a block takes leading views (``_lead``), so a shorter block
    or horizon touches only the pages it uses.
    """

    def __init__(self, ctx: _Context, rounds: int):
        images = rounds * ctx.devices * ctx.images
        self.beta = np.empty(images)
        self.observed = np.empty(images)
        # each round's queue keys, then, on the hashed path, its slot words
        self.raw = np.empty(images + rounds * ctx.slot_words, dtype=np.uint64)
        self.slots = np.empty(rounds * ctx.devices * ctx.max_frames,
                              dtype=np.int64)


def _lead(array: np.ndarray, shape: tuple) -> np.ndarray:
    """The first ``prod(shape)`` elements of flat ``array``, as ``shape``."""
    return array[:math.prod(shape)].reshape(shape)


_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
_SHIFT = np.uint32(16)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's (xor, multiplier) for its ``count`` successive hash
    calls from ``init``, shaped (2, count, 1)."""
    pairs = []
    for _ in range(count):
        pairs.append((init, init * mult & _MASK32))
        init = pairs[-1][1]
    return np.array(pairs, dtype=np.uint32).T[..., None]


def _by_source(constants: np.ndarray) -> np.ndarray:
    """Hash calls 4-15, which mix each pool word into the three others in
    turn, laid out ``[source, destination]``, with zeros where they meet."""
    out = np.zeros((4, 4, 1), dtype=np.uint32)
    out[~np.eye(4, dtype=bool)] = constants[4:]
    return out


# Calls 0-3 hash the pool's four words; generate_state's own 8 calls
# hash the output words.
_POOL_XOR, _POOL_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_MIX_XOR, _MIX_MUL = _by_source(_POOL_XOR), _by_source(_POOL_MUL)
_POOL_XOR, _POOL_MUL = _POOL_XOR[:4], _POOL_MUL[:4]
_MIX_LEFT, _MIX_RIGHT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_OUT_XOR, _OUT_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _seed_words(seed: int, indices: range) -> np.ndarray:
    """``SeedSequence((seed, i)).generate_state(4, np.uint64)`` for every
    ``i`` in ``indices``, as a (4, rounds) uint64 array: the words
    ``default_rng((seed, i))`` seeds PCG64 from.

    ``seed`` and the indices must be below 2**32, so that the entropy is
    the two words ``[seed, i]``.
    """
    pool = np.zeros((4, len(indices)), dtype=np.uint32)
    pool[0] = seed
    pool[1] = np.arange(indices.start, indices.stop, dtype=np.uint32)
    pool ^= _POOL_XOR
    pool *= _POOL_MUL
    pool ^= pool >> _SHIFT
    for source in range(4):
        mixed = pool[source] ^ _MIX_XOR[source]
        mixed *= _MIX_MUL[source]
        mixed ^= mixed >> _SHIFT
        kept = pool[source].copy()
        pool *= _MIX_LEFT
        mixed *= _MIX_RIGHT
        pool -= mixed
        pool ^= pool >> _SHIFT
        pool[source] = kept
    out = np.tile(pool, (2, 1))
    out ^= _OUT_XOR
    out *= _OUT_MUL
    out ^= out >> _SHIFT
    out = out.astype(np.uint64)
    return out[0::2] | out[1::2] << np.uint64(32)


def _pcg64_state(seed_hi: int, seed_lo: int, seq_hi: int,
                 seq_lo: int) -> dict:
    """The ``PCG64.state`` its ``srandom`` makes from four seed words."""
    inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
    state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _draw(ctx: _Context, rng: np.random.Generator, beta: np.ndarray,
          observed: np.ndarray, raw: np.ndarray) -> None:
    """A round's draws, in order and in place: the true similarities, the
    score noise (``observed`` gets their sum) and, in one ``random_raw``
    call, the raw 64-bit words that fill ``raw``: the queue-order keys, one
    per image, then, on the hashed path, the words its slots are made from.

    ``sigma * z + beta`` equals ``normal(0.0, sigma) + beta``: numpy's
    ``normal`` returns ``0.0 + sigma * z``, which differs from ``sigma * z``
    only at -0.0, and adding ``beta >= 0`` maps both zeros alike.

    The keys are the words ``random()`` would take and map to
    ``(raw >> 11) * 2**-53``, so the stream advances as if it had, and
    ``_queue_order`` sorts the words as integers.
    """
    if type(ctx.truth) is UniformTruth:
        rng.random(out=beta)
    else:
        beta[...] = ctx.truth.sample(rng, beta.shape)
    rng.standard_normal(out=observed)
    observed *= ctx.sigma
    observed += beta
    raw[...] = rng.bit_generator.random_raw(raw.shape)


def _lemire_slots(raw: np.ndarray, horizons: np.ndarray, devices: int,
                  head: int, slot_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Each round's ``integers(0, L, (K, horizon))`` from its raw draws.

    ``raw[b]`` holds round ``b``'s raw 64-bit draws, whose 32-bit halves
    number at least ``K * horizon``. Draw ``j`` of a round is the low 32-bit half of raw word
    ``j // 2`` when ``j`` is even and the high half otherwise, mapped to
    ``(u32 * L) >> 32``. The slots come back as (rounds, K, head), with
    each round's frames past its horizon left arbitrary, and with a flag
    per round that a used draw had ``(u32 * L) mod 2**32 < L``, where
    numpy may reject it and draw again.
    """
    halves = raw.astype("<u8", copy=False).view("<u4")
    frame = np.arange(head)
    used = frame < horizons[:, None, None]
    index = np.where(used, np.arange(devices)[:, None]
                     * horizons[:, None, None] + frame, 0)
    product = np.take_along_axis(halves, index.reshape(len(raw), -1), axis=1)
    product = product.reshape(index.shape).astype(np.uint64) * np.uint64(
        slot_count)
    rejected = np.any(used & ((product & _MASK32) < slot_count), axis=(1, 2))
    return (product >> 32).astype(np.int64), rejected


def _run_rounds(ctx: _Context, seeds: Sequence[SeedLike],
                words: Optional[np.ndarray],
                buffers: _RoundBuffers) -> _Rounds:
    """Simulate one round per seed, round ``b`` as on ``default_rng(seeds[b])``.

    Each round draws, in order, the true similarities, the score noise, the
    queue-order keys and then one slot per device and frame of its
    horizon. Everything after the draws runs once for the block, on
    leading views of ``buffers``, which hold enough rounds for the block;
    the returned similarities are views of them.
    With ``words``, ``_seed_words`` of the seeds, the rounds run on one
    reused generator and take their slots from raw draws; a round whose
    draws numpy might reject runs again on ``default_rng``.
    """
    rounds = len(seeds)
    images = ctx.devices * ctx.images
    shape = (rounds, ctx.devices, ctx.images)
    beta = _lead(buffers.beta, shape)
    observed = _lead(buffers.observed, shape)
    pending = []    # (round, generator) pairs whose slots integers() draws
    if words is None:
        keys = _lead(buffers.raw, shape)
        for b, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            _draw(ctx, rng, beta[b], observed[b], keys[b])
            pending.append((b, rng))
    else:
        # each round's keys, then raw draws enough for the longest horizon
        # a round can have; a round's generator is discarded after its
        # slots, so the surplus changes nothing
        raw = _lead(buffers.raw, (rounds, images + ctx.slot_words))
        keys = raw[:, :images].reshape(shape)
        rng = np.random.Generator(np.random.PCG64(0))
        bit_generator = rng.bit_generator
        for b, seed_words in enumerate(zip(*words.tolist())):
            bit_generator.state = _pcg64_state(*seed_words)
            _draw(ctx, rng, beta[b], observed[b], raw[b])
    relevant = observed >= ctx.vth
    rel_counts = np.count_nonzero(relevant, axis=2)

    horizons = rel_counts.max(axis=1)
    if ctx.fixed_frames is not None:
        np.minimum(horizons, ctx.fixed_frames, out=horizons)
    attempted = np.minimum(rel_counts, horizons[:, None])
    head = int(horizons.max())

    delivered = np.zeros_like(relevant)
    if head > 0:
        if words is None:
            # frames past a round's horizon keep stale values, which no
            # active transmission reads
            slots = _lead(buffers.slots, (rounds, ctx.devices, head))
        else:
            slots, rejected = _lemire_slots(raw[:, images:], horizons,
                                            ctx.devices, head, ctx.slots)
            for b in np.flatnonzero(rejected).tolist():
                rng = np.random.default_rng(seeds[b])
                _draw(ctx, rng, beta[b], observed[b], keys[b])
                pending.append((b, rng))
        for b, rng in pending:
            horizon = int(horizons[b])
            if horizon > 0:
                slots[b, :, :horizon] = rng.integers(
                    0, ctx.slots, size=(ctx.devices, horizon))
        active = np.arange(head) < attempted[..., None]
        sent = _queue_order(keys, relevant, head)
        sent += _row_starts(keys.shape)
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
    ctx = _Context(cfg)
    out = _run_rounds(ctx, [seed], None, _RoundBuffers(ctx, 1))
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
    keeping aggregates bitwise stable. Blocks of at least
    ``_MIN_HASHED_BLOCK`` rounds seed their generators without
    ``SeedSequence``, to the same bits (see the module docstring). Rounds
    of at least ``_MIN_THREADED_ROUND`` images run on the calling thread
    and one worker thread, each taking the next unstarted round, when the
    process may use two CPUs.
    """
    if rounds < 1:
        raise ValueError(f"rounds={rounds} must be >= 1")
    if seed < 0:
        raise ValueError(f"seed={seed} must be >= 0")
    ctx = _Context(cfg)
    block = max(1, _BLOCK_ELEMENTS // (ctx.devices * ctx.images))
    hashed = (block >= _MIN_HASHED_BLOCK and seed <= _MASK32
              and rounds <= _MASK32 + 1 and ctx.slots <= _MASK32)
    sifi_sum = 0.0
    sifi_sq = 0.0
    energy_sum = 0.0
    energy_sq = 0.0
    delivered_sum = 0
    omega_sum = 0
    frames_sum = 0
    detail: Optional[list[RoundStats]] = [] if keep_rounds else None
    blocks = [range(start, min(start + block, rounds))
              for start in range(0, rounds, block)]

    def block_values(indices: range, buffers: _RoundBuffers) -> tuple:
        # only these per-round values outlive the block's arrays
        out = _run_rounds(ctx, [(seed, index) for index in indices],
                          _seed_words(seed, indices) if hashed else None,
                          buffers)
        return (indices, out.sifi.tolist(), out.mean_energy.tolist(),
                out.delivered_counts.tolist(), out.actual_counts.tolist(),
                out.frames.tolist())

    if (rounds > 1 and ctx.devices * ctx.images >= _MIN_THREADED_ROUND
            and _usable_cpus() > 1):
        values = _map_on_two_threads(
            block_values, blocks, lambda: _RoundBuffers(ctx, block))
    else:
        buffers = _RoundBuffers(ctx, block)
        values = (block_values(indices, buffers) for indices in blocks)
    for indices, sifis, energies, delivered, omegas, frames in values:
        for sifi, energy in zip(sifis, energies):
            sifi_sum += sifi
            sifi_sq += sifi * sifi
            energy_sum += energy
            energy_sq += energy * energy
        delivered_sum += sum(delivered)
        omega_sum += sum(omegas)
        frames_sum += sum(frames)
        if detail is not None:
            detail.extend(map(RoundStats, indices, sifis, energies,
                              delivered, omegas, frames))
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


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity mask on this platform
        return os.cpu_count() or 1


def _map_on_two_threads(fn, items: Sequence, make_state) -> Iterator:
    """``fn(item, state)`` for each of ``items``, with the calling thread and
    one worker thread each calling ``fn`` on the next item neither has
    taken, and passing its own ``state = make_state()``.

    At most two calls run at once. Results are yielded in item order, each
    as soon as it and those before it are done. An exception in either
    thread stops both after their current call; it propagates once the
    worker is joined.

    This is not ``ThreadPoolExecutor.map``: two pool workers with the
    caller waiting, at most three calls submitted, were slower on a 2-core
    host (30 alternating calls per size, this function first): K=50,
    N=1000 took 20.5 against 22.0 ms, K=20, N=1000 11.5 against 13.7 ms
    and K=16, N=1024 19.9 against 22.5 ms. ``Executor.map`` also submits
    every call at once, holding about 1.85 KB per round.
    """
    import threading
    from concurrent.futures import ThreadPoolExecutor

    lock = threading.Lock()
    untaken = iter(range(len(items)))
    done: dict = {}

    def take() -> Optional[int]:
        with lock:
            return next(untaken, None)

    def cancel() -> None:
        with lock:
            for _ in untaken:
                pass

    def work() -> None:
        try:
            state = make_state()
            while (index := take()) is not None:
                done[index] = fn(items[index], state)
        except BaseException:
            cancel()
            raise

    with ThreadPoolExecutor(max_workers=1) as pool:
        worker = pool.submit(work)
        try:
            following = 0
            state = make_state()
            while (index := take()) is not None:
                done[index] = fn(items[index], state)
                while following in done:
                    yield done.pop(following)
                    following += 1
            worker.result()
        finally:
            cancel()
    for index in range(following, len(items)):
        yield done.pop(index)


def _stderr(total: float, total_sq: float, n: int) -> float:
    if n < 2:
        return 0.0
    var = (total_sq - total * total / n) / (n - 1)
    return float(np.sqrt(max(var, 0.0)) / np.sqrt(n))
