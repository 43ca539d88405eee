import hashlib
import threading
import time
import weakref

import numpy as np
import pytest

from ecopull import (RoundStats, communication_energy, computation_energy,
                     fidelity_distance, load_config, p_th, run_round,
                     simulate)
from ecopull import sim
from ecopull.cli import main as cli_main


def reference_round(cfg, rng):
    """Loop-and-dict protocol implementation used as an independent oracle."""
    devices, images = cfg.device_count, cfg.images_per_device
    slots = cfg.frame_slots()
    distance = fidelity_distance(cfg.compression_rate)
    queues, actual, delivered = [], [], []
    for _ in range(devices):
        beta = [float(cfg.truth_distribution.sample(rng))
                for _ in range(images)]
        observed = [b + rng.normal(0.0, cfg.model_noise) for b in beta]
        queues.append([n for n in range(images)
                       if observed[n] >= cfg.relevance_threshold])
        actual.append([b >= cfg.truth_threshold for b in beta])
        delivered.append([False] * images)
    while any(queues):
        picks = {}
        for dev in range(devices):
            if not queues[dev]:
                continue
            image = queues[dev].pop(int(rng.integers(len(queues[dev]))))
            slot = int(rng.integers(slots))
            picks.setdefault(slot, []).append((dev, image))
        for transmissions in picks.values():
            if len(transmissions) == 1:
                dev, image = transmissions[0]
                delivered[dev][image] = True
    omega = sum(flag for row in actual for flag in row)
    got = sum(1 for dev in range(devices) for n in range(images)
              if actual[dev][n] and delivered[dev][n])
    total_delivered = sum(sum(row) for row in delivered)
    if omega == 0:
        return 1.0, total_delivered
    sifi = 1.0 - (distance * got + cfg.penalty * (omega - got)) / omega
    return sifi, total_delivered


def per_image_sifi(cfg, out):
    """Score a round image by image from its arrays, apart from the kernel."""
    distance = fidelity_distance(cfg.compression_rate)
    count, loss = 0, 0.0
    for dev in range(cfg.device_count):
        for img in range(cfg.images_per_device):
            if out.actual[dev, img]:
                count += 1
                loss += distance if out.delivered[dev, img] else cfg.penalty
    return 1.0 if count == 0 else 1.0 - loss / count


def test_degenerate_noise_reproduces_truth():
    cfg = load_config({"model_noise": 1e-300, "images_per_device": 50})
    out = run_round(cfg, 3)
    np.testing.assert_allclose(out.observed_similarity, out.true_similarity,
                               rtol=0.0, atol=1e-290)
    np.testing.assert_array_equal(
        out.relevant, out.true_similarity >= cfg.relevance_threshold)


def test_zero_threshold_queues_everything():
    cfg = load_config({"relevance_threshold": 0.0, "model_noise": 1e-12,
                       "images_per_device": 40})
    out = run_round(cfg, 11)
    assert out.relevant.all()
    assert list(out.relevant_counts) == [40] * cfg.device_count


def test_delivered_subset_of_relevant():
    cfg = load_config({"images_per_device": 30})
    for index in range(20):
        out = run_round(cfg, (7, index))
        assert not (out.delivered & ~out.relevant).any()


@pytest.mark.filterwarnings("ignore:penalty")
@pytest.mark.parametrize("spec", [
    {},
    {"truth_threshold": 1.0},
    {"penalty": 0.001},
], ids=["default", "no-actual-relevant", "penalty-below-distance"])
def test_score_matches_per_image_sum(spec):
    cfg = load_config(spec)
    for index in range(60):
        out = run_round(cfg, (17, index))
        assert out.sifi == pytest.approx(per_image_sifi(cfg, out), abs=1e-12)


def test_empirical_relevance_rate_matches_quadrature():
    cfg = load_config({"device_count": 10, "images_per_device": 100})
    total = relevant = 0
    for index in range(100):
        out = run_round(cfg, (99, index))
        relevant += sum(out.relevant_counts)
        total += cfg.device_count * cfg.images_per_device
    rate = relevant / total
    expected = p_th(cfg.relevance_threshold, cfg.model_noise,
                    cfg.truth_distribution)
    assert rate == pytest.approx(expected, abs=0.005)


def test_single_device_delivers_everything():
    # no contention, everything actually relevant: score is 1 - distance
    cfg = load_config({"device_count": 1, "images_per_device": 25,
                       "relevance_threshold": 0.0, "truth_threshold": 0.0,
                       "model_noise": 1e-12})
    out = run_round(cfg, 5)
    assert out.delivered_count == cfg.images_per_device
    assert out.sifi == pytest.approx(
        1.0 - fidelity_distance(cfg.compression_rate), rel=1e-9)


def test_two_devices_one_image_two_slots():
    # exhaustive slot enumeration gives per-image delivery probability 1/2
    cfg = load_config({"device_count": 2, "images_per_device": 1,
                       "relevance_threshold": 0.0, "model_noise": 1e-12,
                       "slots_per_frame": 2, "slot_coefficient": None})
    rounds = 4000
    agg = simulate(cfg, rounds, 13)
    per_image = agg.mean_delivered / 2
    stderr = np.sqrt(0.25 / rounds)  # per-round delivered/2 has variance 1/4
    assert abs(per_image - 0.5) < 4 * stderr


def test_huge_slot_count_removes_collisions():
    cfg = load_config({"device_count": 10, "images_per_device": 2,
                       "relevance_threshold": 0.0, "model_noise": 1e-12,
                       "slots_per_frame": 10 ** 6, "slot_coefficient": None})
    agg = simulate(cfg, 10_000, 29)
    rate = agg.mean_delivered / (10 * 2)
    assert rate >= 0.9999


def test_full_contention_matches_per_frame_factor():
    # all devices active in every frame: delivery rate is (1-1/L)^(K-1)
    cfg = load_config({"device_count": 4, "images_per_device": 6,
                       "relevance_threshold": 0.0, "model_noise": 1e-12,
                       "slots_per_frame": 5, "slot_coefficient": None})
    rounds = 4000
    agg = simulate(cfg, rounds, 31)
    rate = agg.mean_delivered / (4 * 6)
    expected = (1 - 1 / 5) ** 3
    stderr = np.sqrt(expected * (1 - expected) / (rounds * 24))
    assert abs(rate - expected) < 4 * stderr


def test_matches_reference_implementation(small_cfg):
    rng = np.random.default_rng(123)
    rounds = 6000
    ref = np.array([reference_round(small_cfg, rng) for _ in range(rounds)])
    agg = simulate(small_cfg, rounds, 321)
    ref_sifi = ref[:, 0].mean()
    ref_sifi_se = ref[:, 0].std(ddof=1) / np.sqrt(rounds)
    joint_se = np.hypot(ref_sifi_se, agg.sifi_stderr)
    assert abs(agg.mean_sifi - ref_sifi) < 4 * joint_se
    ref_delivered = ref[:, 1].mean()
    assert abs(agg.mean_delivered - ref_delivered) < 4 * np.hypot(
        ref[:, 1].std(ddof=1) / np.sqrt(rounds), 0.05)


def test_round_outcome_invariants(small_cfg):
    for index in range(30):
        out = run_round(small_cfg, (55, index))
        assert out.frames_used == max(out.relevant_counts, default=0)
        assert out.delivered_count <= sum(out.relevant_counts)
        np.testing.assert_array_equal(out.relevant_counts,
                                      out.relevant.sum(axis=1))
        np.testing.assert_array_equal(
            out.actual, out.true_similarity >= small_cfg.truth_threshold)
        assert out.actual_relevant_count == int(np.count_nonzero(out.actual))
        assert not (out.delivered & ~out.relevant).any()
        assert 0.0 <= out.sifi <= 1.0


def test_energy_accounting_per_round(small_cfg):
    out = run_round(small_cfg, 8)
    for dev, count in enumerate(out.relevant_counts):
        assert out.computation[dev] == pytest.approx(
            computation_energy(small_cfg, int(count)), rel=1e-12)
        assert out.communication[dev] == pytest.approx(
            communication_energy(small_cfg, int(count)), rel=1e-12)


def test_fixed_frame_horizon_caps_attempts():
    cfg = load_config({"device_count": 3, "images_per_device": 10,
                       "relevance_threshold": 0.0, "model_noise": 1e-12,
                       "fixed_frames": 4, "slots_per_frame": 8,
                       "slot_coefficient": None})
    out = run_round(cfg, 2)
    assert out.frames_used == 4
    assert out.delivered_count <= 3 * 4
    drained = load_config({"device_count": 3, "images_per_device": 10,
                           "relevance_threshold": 0.0, "model_noise": 1e-12,
                           "slots_per_frame": 8, "slot_coefficient": None})
    full = run_round(drained, 2)
    assert full.frames_used == 10


def test_simulation_is_deterministic(small_cfg):
    first = simulate(small_cfg, 300, 41)
    second = simulate(small_cfg, 300, 41)
    assert first == second
    different = simulate(small_cfg, 300, 42)
    assert different.mean_sifi != first.mean_sifi


def test_single_round_equals_run_round(default_cfg):
    for seed in range(20):
        agg = simulate(default_cfg, 1, seed)
        out = run_round(default_cfg, (seed, 0))
        assert agg.mean_sifi == out.sifi
        assert agg.mean_frames == out.frames_used
        assert agg.mean_total_energy == float(
            np.mean(out.computation + out.communication))


def test_rounds_must_be_positive(small_cfg):
    with pytest.raises(ValueError, match="rounds"):
        simulate(small_cfg, 0, 1)


def test_negative_seed_is_rejected(small_cfg):
    with pytest.raises(ValueError, match=r"seed=-1 must be >= 0"):
        simulate(small_cfg, 1, -1)


BLOCK_CONFIGS = {
    "default": {},
    "large": {"device_count": 50, "images_per_device": 1000},
    "fixed-frames": {"fixed_frames": 3},
    "beta-truth": {"truth_distribution": {"kind": "beta", "alpha": 2,
                                          "beta": 5}},
    "one-device": {"device_count": 1},
    "three-slots": {"slots_per_frame": 3, "slot_coefficient": None},
    "no-actual-relevant": {"truth_threshold": 1.0},
    "million-slots": {"device_count": 10, "images_per_device": 2,
                      "relevance_threshold": 0.0, "model_noise": 1e-12,
                      "slots_per_frame": 10 ** 6, "slot_coefficient": None},
    "empty-queues": {"relevance_threshold": 1.0, "model_noise": 1e-12},
    # collision codes of a block of 32 rounds pass 2^63, one round's do not
    "slots-at-2**50": {"slots_per_frame": 2 ** 50, "slot_coefficient": None},
    "argsort-queues": {"device_count": 2, "images_per_device": 2049},
}


def assert_simulate_replays_run_round(cfg, seed):
    """``simulate`` over one full block and a partial one equals ``run_round``
    on ``(seed, i)``, round by round and in its aggregates."""
    block = max(1, sim._BLOCK_ELEMENTS
                // (cfg.device_count * cfg.images_per_device))
    rounds = block + 2
    agg = simulate(cfg, rounds, seed, keep_rounds=True)
    detail = []
    sifi_sum = energy_sum = 0.0
    for index in range(rounds):
        out = run_round(cfg, (seed, index))
        energy = float(np.mean(out.computation + out.communication))
        sifi_sum += out.sifi
        energy_sum += energy
        detail.append(RoundStats(index, out.sifi, energy, out.delivered_count,
                                 out.actual_relevant_count, out.frames_used))
    assert agg.rounds_detail == detail
    assert agg.mean_sifi == sifi_sum / rounds
    assert agg.mean_total_energy == energy_sum / rounds
    assert agg.mean_delivered == sum(r.delivered for r in detail) / rounds
    assert agg.mean_frames == sum(r.frames for r in detail) / rounds


@pytest.mark.parametrize("spec", BLOCK_CONFIGS.values(), ids=BLOCK_CONFIGS)
def test_blocks_equal_round_order_accumulation_of_run_round(spec):
    assert_simulate_replays_run_round(load_config(spec), 6)


def test_empty_queues_send_nothing():
    cfg = load_config(BLOCK_CONFIGS["empty-queues"])
    agg = simulate(cfg, 50, 1)
    assert agg.mean_frames == 0 and agg.mean_delivered == 0


@pytest.mark.parametrize("head", [1, 7, 25, 40])
def test_queue_order_breaks_exact_ties_by_image_index(head):
    rng = np.random.default_rng(8)
    # 2048 images is the last size whose index packs into a key's unused
    # bits; 2049 takes the stable argsort
    for images in (40, 2048, 2049):
        shape = (3, 4, images)
        # many exact ties in the 53 bits random() keeps, the highest among
        # them, with low bits that must not break them
        tops = np.array([0, 1 << 62, 3 << 62, (1 << 64) - (1 << 11)],
                        dtype=np.uint64)
        keys = tops[rng.integers(0, 4, size=shape)] | rng.integers(
            0, 1 << 11, size=shape, dtype=np.uint64)
        relevant = rng.random(shape) < 0.7
        relevant[0, 0] = True                            # a full queue
        drawn = (keys >> np.uint64(11)) * 2.0 ** -53     # random()'s values
        expected = np.argsort(np.where(relevant, drawn, 2.0), axis=-1,
                              kind="stable")[..., :head]
        got = sim._queue_order(keys.copy(), relevant, head)
        # past the end of its queue a row holds irrelevant images, never
        # sent
        queued = np.arange(head) < relevant.sum(axis=-1)[..., None]
        np.testing.assert_array_equal(np.where(queued, got, -1),
                                      np.where(queued, expected, -1))


def test_per_round_csv_bytes_are_fixed(tmp_path):
    # recorded from the round-at-a-time kernel the block kernel replaced
    rc = cli_main(["simulate", "--rounds", "200", "--seed", "3", "--per-round",
                   "--set", "fixed_frames=3", "--out", str(tmp_path)])
    assert rc == 0
    digest = hashlib.sha256((tmp_path / "simulate.csv").read_bytes())
    assert digest.hexdigest() == ("272dc2a99a59b4d57b3f6a54660fd45d"
                                  "85af2528f77881b441bca8cf94b149d0")


# Rounds seeded without SeedSequence: every path must draw what
# default_rng((seed, i)) draws.

SEED_WORDS = (0, 1, 12345, 2 ** 31, 2 ** 32 - 1)


@pytest.mark.parametrize("seed", SEED_WORDS)
def test_seed_words_give_default_rng_states(seed):
    for indices in (range(0, 150), range(2 ** 32 - 50, 2 ** 32)):
        words = sim._seed_words(seed, indices)
        for index, seed_words in zip(indices, zip(*words.tolist())):
            expected = np.random.default_rng((seed, index)).bit_generator.state
            assert sim._pcg64_state(*seed_words) == expected


@pytest.mark.parametrize("slot_count", [1, 15, 2 ** 31 + 7])
def test_lemire_slots_equal_integers(slot_count):
    devices, rounds = 3, 400
    horizons = np.arange(rounds) % 6
    seeds = [(9, index) for index in range(rounds)]
    raw = np.empty((rounds, (devices * 5 + 1) // 2), dtype=np.uint64)
    for b, seed in enumerate(seeds):
        raw[b] = np.random.default_rng(seed).bit_generator.random_raw(
            raw.shape[1])
    slots, rejected = sim._lemire_slots(raw, horizons, devices, 5, slot_count)
    for b, (seed, horizon) in enumerate(zip(seeds, horizons.tolist())):
        if not rejected[b]:
            expected = np.random.default_rng(seed).integers(
                0, slot_count, size=(devices, horizon))
            np.testing.assert_array_equal(slots[b, :, :horizon], expected)
    # about half the draws at 2**31 + 7 fall where numpy may reject them
    assert rejected.any() == (slot_count == 2 ** 31 + 7)


def test_lemire_slots_flag_draws_numpy_may_reject():
    # one round of 2 devices x 2 frames: draw j is the low half of raw word
    # j // 2 when j is even and the high half otherwise
    slot_count = 15
    edge = -(-2 ** 32 // slot_count)      # (edge * 15) mod 2**32 == 14
    draws = [0x1234_5678, 0xFFFF_FFFF, edge, 0x8000_0000]
    raw = np.array([[draws[0] | draws[1] << 32, draws[2] | draws[3] << 32]],
                   dtype=np.uint64)
    slots, rejected = sim._lemire_slots(raw, np.array([2]), 2, 2, slot_count)
    assert slots[0].ravel().tolist() == [u * slot_count >> 32 for u in draws]
    assert rejected.tolist() == [True]
    # at a horizon of 1 the round uses draws 0 and 1 alone
    slots, rejected = sim._lemire_slots(raw, np.array([1]), 2, 2, slot_count)
    assert slots[0, :, 0].tolist() == [u * slot_count >> 32 for u in draws[:2]]
    assert rejected.tolist() == [False]


SEEDING_CASES = {
    "seed-at-2**32": ({}, 2 ** 32),
    "largest-hashed-seed": ({}, 2 ** 32 - 1),
    "slots-at-2**32": ({"device_count": 3, "images_per_device": 4,
                        "slots_per_frame": 2 ** 32, "slot_coefficient": None},
                       6),
    "rejected-draws": ({"device_count": 4, "images_per_device": 3,
                        "relevance_threshold": 0.0,
                        "slots_per_frame": 2 ** 31 + 7,
                        "slot_coefficient": None}, 6),
    "one-slot": ({"slots_per_frame": 1, "slot_coefficient": None}, 6),
    "two-by-two": ({"device_count": 2, "images_per_device": 2}, 6),
}


@pytest.mark.parametrize("spec, seed", SEEDING_CASES.values(),
                         ids=SEEDING_CASES)
def test_every_seeding_path_replays_run_round(spec, seed):
    assert_simulate_replays_run_round(load_config(spec), seed)


def test_rejected_draws_rerun_on_default_rng(monkeypatch):
    flagged = []
    lemire = sim._lemire_slots

    def counting(*args):
        slots, rejected = lemire(*args)
        flagged.append(int(rejected.sum()))
        return slots, rejected

    monkeypatch.setattr(sim, "_lemire_slots", counting)
    spec, seed = SEEDING_CASES["rejected-draws"]
    assert_simulate_replays_run_round(load_config(spec), seed)
    assert sum(flagged) > 0


@pytest.mark.parametrize("seed", [7, (6, 0, 1), [6, 0], 2 ** 40])
def test_run_round_draws_from_default_rng(seed):
    cfg = load_config({"device_count": 2, "images_per_device": 3})
    out = run_round(cfg, seed)
    rng = np.random.default_rng(seed)
    beta = rng.random((2, 3))
    np.testing.assert_array_equal(out.true_similarity, beta)
    np.testing.assert_array_equal(out.observed_similarity,
                                  rng.normal(0.0, cfg.model_noise, (2, 3))
                                  + beta)


@pytest.mark.parametrize("spec", [{}, BLOCK_CONFIGS["beta-truth"]],
                         ids=["uniform", "beta"])
def test_in_place_draws_equal_fresh_draws(spec):
    cfg = load_config({"device_count": 3, "images_per_device": 40, **spec})
    ctx = sim._Context(cfg)
    shape = (3, 40)
    for seed in range(60):
        beta, observed = np.empty(shape), np.empty(shape)
        # the hashed path's row: the keys, then 7 slot words
        raw = np.empty(120 + 7 if seed % 2 else shape, dtype=np.uint64)
        sim._draw(ctx, np.random.default_rng(seed), beta, observed, raw)
        keys = raw.reshape(-1)[:120].reshape(shape)
        rng = np.random.default_rng(seed)
        fresh = cfg.truth_distribution.sample(rng, shape)
        np.testing.assert_array_equal(beta.view(np.uint64),
                                      fresh.view(np.uint64))
        fresh = rng.normal(0.0, cfg.model_noise, shape) + fresh
        np.testing.assert_array_equal(observed.view(np.uint64),
                                      fresh.view(np.uint64))
        # the raw words random() would have mapped to the same doubles
        fresh = rng.random(shape)
        np.testing.assert_array_equal(
            ((keys >> np.uint64(11)) * 2.0 ** -53).view(np.uint64),
            fresh.view(np.uint64))
        if seed % 2:
            np.testing.assert_array_equal(
                raw[120:], rng.bit_generator.random_raw(7))


def test_round_outcomes_do_not_share_arrays():
    cfg = load_config({})
    first = run_round(cfg, 1)
    kept = {name: getattr(first, name).copy() for name in (
        "true_similarity", "observed_similarity", "relevant", "actual",
        "delivered")}
    second = run_round(cfg, 2)
    for name, array in kept.items():
        np.testing.assert_array_equal(getattr(first, name), array)
        assert not np.shares_memory(getattr(first, name),
                                    getattr(second, name))


# Given two CPUs, simulate runs rounds of at least _MIN_THREADED_ROUND
# images on the calling thread and one worker.

LARGE = BLOCK_CONFIGS["large"]
THREADED_EDGE = {"device_count": 16, "images_per_device": 1024}
THREADED_CASES = {
    "large-1": (LARGE, 1),
    "large-2": (LARGE, 2),
    "large-3": (LARGE, 3),
    "beta-fixed-frames": ({**THREADED_EDGE, "fixed_frames": 3,
                           **BLOCK_CONFIGS["beta-truth"]}, 5),
}


def set_cpus(monkeypatch, count):
    monkeypatch.setattr(sim, "_usable_cpus", lambda: count)


@pytest.mark.parametrize("spec, rounds", THREADED_CASES.values(),
                         ids=THREADED_CASES)
def test_threaded_rounds_equal_serial_rounds(monkeypatch, spec, rounds):
    cfg = load_config(spec)
    set_cpus(monkeypatch, 2)
    threaded = simulate(cfg, rounds, 5, keep_rounds=True)
    set_cpus(monkeypatch, 1)
    serial = simulate(cfg, rounds, 5, keep_rounds=True)
    assert len(serial.rounds_detail) == rounds
    assert repr(threaded) == repr(serial)     # repr keeps every float bit


# Every size on two threads, so that each thread runs blocks of many
# rounds, the shorter last one included, on its one set of buffers.
TWO_THREAD_BLOCKS = {
    "hashed": {},
    "fixed-frames": BLOCK_CONFIGS["fixed-frames"],
    "beta-truth": BLOCK_CONFIGS["beta-truth"],
    "argsort-queues": BLOCK_CONFIGS["argsort-queues"],
    "rejected-draws": SEEDING_CASES["rejected-draws"][0],
}


@pytest.mark.parametrize("spec", TWO_THREAD_BLOCKS.values(),
                         ids=TWO_THREAD_BLOCKS)
def test_blocks_on_two_threads_equal_serial_blocks(monkeypatch, spec):
    cfg = load_config(spec)
    block = sim._BLOCK_ELEMENTS // (cfg.device_count * cfg.images_per_device)
    rounds = 3 * block + 2
    monkeypatch.setattr(sim, "_MIN_THREADED_ROUND", 1)
    set_cpus(monkeypatch, 2)
    threaded = simulate(cfg, rounds, 5, keep_rounds=True)
    set_cpus(monkeypatch, 1)
    serial = simulate(cfg, rounds, 5, keep_rounds=True)
    assert repr(threaded) == repr(serial)


@pytest.mark.parametrize("spec, cpus, sets", [
    (THREADED_EDGE, 2, 2),
    (THREADED_EDGE, 1, 1),
    ({}, 2, 1),                 # blocks of 32 rounds and one of 4
], ids=["two-threads", "one-cpu", "serial-blocks"])
def test_each_thread_reuses_one_set_of_buffers(monkeypatch, spec, cpus,
                                               sets):
    made = []

    class Watched(sim._RoundBuffers):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(sim, "_RoundBuffers", Watched)
    set_cpus(monkeypatch, cpus)
    simulate(load_config(spec), 100, 1)
    assert len(made) == sets
    assert all(ref() is None for ref in made)     # none outlives the call


def watch_rounds(monkeypatch, fail_on=None):
    """Record each ``_run_rounds`` call's thread, thread count and round
    count; a call on ``fail_on`` ("caller" or "worker") raises instead.
    The caller's rounds wait 10 ms first, so the worker takes one."""
    caller = threading.current_thread()
    calls = []
    run_rounds = sim._run_rounds

    def watched(ctx, seeds, words, buffers):
        thread = threading.current_thread()
        calls.append((thread, threading.active_count(), len(seeds)))
        if thread is caller:
            time.sleep(0.01)
        if fail_on == ("caller" if thread is caller else "worker"):
            raise RuntimeError(f"{fail_on} round failed")
        return run_rounds(ctx, seeds, words, buffers)

    monkeypatch.setattr(sim, "_run_rounds", watched)
    return calls


def test_threaded_rounds_use_one_worker_and_join_it(monkeypatch):
    set_cpus(monkeypatch, 2)
    calls = watch_rounds(monkeypatch)
    before = threading.active_count()
    simulate(load_config(THREADED_EDGE), 6, 1)
    assert len(calls) == 6
    assert max(count for _, count, _ in calls) == before + 1
    assert any(thread is not threading.current_thread()
               for thread, _, _ in calls)
    assert threading.active_count() == before


@pytest.mark.parametrize("fail_on", ["worker", "caller"])
def test_round_exception_propagates_with_worker_joined(monkeypatch, fail_on):
    set_cpus(monkeypatch, 2)
    calls = watch_rounds(monkeypatch, fail_on)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{fail_on} round failed"):
        simulate(load_config(THREADED_EDGE), 200, 1)
    assert threading.active_count() == before
    assert len(calls) < 200      # the rounds not yet started were cancelled


def test_one_cpu_in_affinity_mask_starts_no_thread(monkeypatch):
    monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 1)
    calls = watch_rounds(monkeypatch)
    before = threading.active_count()
    simulate(load_config(THREADED_EDGE), 3, 1)
    assert [(thread, count) for thread, count, _ in calls] == [
        (threading.current_thread(), before)] * 3


@pytest.mark.parametrize("spec, blocks", [
    # K * N = _BLOCK_ELEMENTS / 2: the largest size still run two rounds
    # to a block
    ({"device_count": 8, "images_per_device": 1024}, [2, 2, 1]),
    # the largest below _MIN_THREADED_ROUND
    ({"device_count": 16, "images_per_device": 1023}, [1] * 5),
], ids=["blocks-of-two", "below-threaded"])
def test_rounds_below_the_threaded_size_start_no_thread(monkeypatch, spec,
                                                        blocks):
    set_cpus(monkeypatch, 2)
    calls = watch_rounds(monkeypatch)
    before = threading.active_count()
    simulate(load_config(spec), 5, 1)
    assert [(count, rounds) for _, count, rounds in calls] == [
        (before, rounds) for rounds in blocks]


def test_collision_codes_that_overflow_int64_are_rejected():
    # 2^60 slots once wrapped the codes, delivering 10 of 197 images
    # where collisions are all but impossible
    wide = {"slot_coefficient": None, "slots_per_frame": 2 ** 40}
    out = run_round(load_config(wide), (1, 0))
    # every queue drains, so every relevant image is attempted
    assert out.delivered_count == out.relevant_counts.sum() == 197
    huge = load_config({**wide, "slots_per_frame": 2 ** 60})
    with pytest.raises(ValueError, match=r"2\^63"):
        run_round(huge, (1, 0))
    with pytest.raises(ValueError, match=r"2\^63"):
        simulate(huge, 20, 1)
