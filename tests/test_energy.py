from dataclasses import replace

import numpy as np
import pytest

from ecopull import (UniformTruth, communication_energy, computation_energy,
                     expected_sifi_exact, expected_total_energy,
                     fixed_overhead_energy, inference_energy, load_config,
                     mcmc_expected_sifi, model_load_total, p_th,
                     per_relevant_image_energy, simulate, tinyairnet_energy)
from reference import expected_energy_by_count

LOAD = 4.622336e-4 + 8.71424e-6  # both models staged in SRAM


def test_computation_energy_endpoints():
    cfg = load_config({"device_count": 1, "images_per_device": 1})
    behavior = inference_energy(cfg.behavior_hw, cfg.behavior_model, cfg.image)
    compressor = inference_energy(cfg.compressor_hw, cfg.compressor_model,
                                  cfg.image)
    assert computation_energy(cfg, 0) == pytest.approx(behavior + LOAD,
                                                       rel=1e-9)
    assert computation_energy(cfg, 1) == pytest.approx(
        behavior + compressor + LOAD, rel=1e-9)


def test_computation_energy_reference_point():
    cfg = load_config()
    value = computation_energy(cfg, 40)
    # term-by-term: 100 scorings, 40 compressions, both weight loads
    assert value == pytest.approx(100 * 7.0061724258e-4
                                  + 40 * 2.7344169200e-3 + LOAD, rel=1e-9)
    assert value - LOAD == pytest.approx(0.1794, abs=5e-4)
    assert model_load_total(cfg) == pytest.approx(LOAD, rel=1e-9)


def test_computation_energy_rejects_excess_count():
    cfg = load_config({"images_per_device": 10})
    with pytest.raises(ValueError, match="relevant_count"):
        computation_energy(cfg, 11)


def test_communication_energy_fixed_part():
    cfg = load_config()
    # receiving 0.976e6 weights at 8 bits plus a 512-entry query at 8 bits
    assert communication_energy(cfg, 0) == pytest.approx(5.226292224,
                                                         rel=1e-9)
    assert communication_energy(cfg, 0) == pytest.approx(
        cfg.radio.rx_power * (0.976e6 * 8 + 512 * 8) / 1e5, rel=1e-12)


def test_communication_energy_per_image_increment():
    cfg = load_config({"compression_rate": 2.0})
    step = communication_energy(cfg, 1) - communication_energy(cfg, 0)
    assert step == pytest.approx(0.663552, rel=1e-9)
    assert (communication_energy(cfg, 7) - communication_energy(cfg, 0)
            == pytest.approx(7 * step, rel=1e-9))


def test_communication_energy_scales_with_rx_power():
    quiet = load_config({"radio": {"rx_power": 6.69e-9}})
    loud = load_config({"radio": {"rx_power": 6.69e-2}})
    ratio = communication_energy(loud, 0) / communication_energy(quiet, 0)
    assert ratio == pytest.approx(1e7, rel=1e-9)


def test_p_th_reference_values():
    truth = UniformTruth()
    assert p_th(0.6, 0.125, truth) == pytest.approx(0.4000231367, abs=1e-8)
    assert p_th(0.5, 0.125, truth) == pytest.approx(0.5, abs=1e-9)
    # quadrature oracle value; the lower boundary sheds about sigma/sqrt(2*pi)
    assert p_th(0.0, 0.125, truth) == pytest.approx(0.9501322149, abs=1e-8)


def test_p_th_degenerate_noise_is_a_step():
    truth = UniformTruth()
    for vth in (0.3, 0.5, 0.6, 0.8):
        assert p_th(vth, 1e-6, truth) == pytest.approx(1.0 - vth, abs=1e-4)


def test_p_th_monotone_in_threshold():
    truth = UniformTruth()
    values = [p_th(v, 0.125, truth) for v in np.linspace(0.0, 1.0, 21)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_p_th_input_validation():
    truth = UniformTruth()
    with pytest.raises(ValueError, match="model_noise"):
        p_th(0.5, 0.0, truth)
    with pytest.raises(ValueError, match="relevance_threshold"):
        p_th(1.5, 0.1, truth)


def test_expected_energy_sum_equals_closed_form():
    for overrides in ({}, {"relevance_threshold": 0.8},
                      {"compression_rate": 1.3, "images_per_device": 17}):
        cfg = load_config(overrides)
        by_sum = expected_energy_by_count(cfg)
        closed = expected_total_energy(cfg)
        assert by_sum == pytest.approx(closed, rel=1e-9)


def test_expected_energy_reference_point():
    cfg = load_config()  # V_th=0.6, r=2, N=100
    overhead = fixed_overhead_energy(cfg)
    per_image = per_relevant_image_energy(cfg)
    assert overhead == pytest.approx(5.2968248961, rel=1e-9)
    assert per_image == pytest.approx(2.7344169200e-3 + 0.663552, rel=1e-9)
    expected = expected_total_energy(cfg)
    assert expected == pytest.approx(overhead + 100 * 0.4000231367 * per_image,
                                     rel=1e-8)
    assert expected - overhead == pytest.approx(26.65, abs=0.02)


def test_expected_energy_matches_simulation_mean():
    cfg = load_config({"images_per_device": 30})
    aggregate = simulate(cfg, 3000, 21)
    expected = expected_total_energy(cfg)
    margin = 4 * aggregate.total_energy_stderr
    assert abs(aggregate.mean_total_energy - expected) < margin


@pytest.mark.parametrize("overrides", [
    {"fixed_frames": 1},
    {"images_per_device": 30, "fixed_frames": 10},
])
def test_expected_energy_honours_fixed_frames(overrides):
    # every passed image is compressed, but only min(c, F) are sent
    cfg = load_config(overrides)
    aggregate = simulate(cfg, 2000, 1)
    margin = 5 * aggregate.total_energy_stderr
    closed = expected_total_energy(cfg)
    assert expected_energy_by_count(cfg) == pytest.approx(closed, rel=1e-12)
    assert abs(aggregate.mean_total_energy - closed) < margin
    # the drain-all energy fails the same check
    drained = expected_total_energy(replace(cfg, fixed_frames=None))
    assert drained - aggregate.mean_total_energy > 10 * margin


def test_frame_cap_beyond_every_queue_changes_nothing():
    cfg = load_config({"images_per_device": 12})
    capped = replace(cfg, fixed_frames=12)
    for energy in (expected_energy_by_count, expected_total_energy):
        assert energy(capped) == pytest.approx(energy(cfg), rel=1e-12)


@pytest.mark.parametrize("frames", [37, 38, 10 ** 6])
def test_frame_cap_at_or_above_library_is_no_cap_bit_for_bit(frames):
    # no device has more than N images to send, so a cap F >= N must not
    # move a single bit of any path's result
    cfg = load_config({"images_per_device": 37})
    capped = replace(cfg, fixed_frames=frames)
    for evaluate in (expected_total_energy, tinyairnet_energy,
                     expected_sifi_exact):
        assert evaluate(capped) == evaluate(cfg)
    assert simulate(capped, 40, 3) == simulate(cfg, 40, 3)
    assert (mcmc_expected_sifi(capped, 2000, 3)
            == mcmc_expected_sifi(cfg, 2000, 3))
