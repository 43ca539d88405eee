import numpy as np
import pytest

from ecopull import (device_energy, fidelity_distance, load_config, p_th,
                     run_round, simulate)


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
        expected = device_energy(small_cfg, int(count))
        assert out.computation[dev] == pytest.approx(expected.computation,
                                                     rel=1e-12)
        assert out.communication[dev] == pytest.approx(
            expected.communication, rel=1e-12)


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
