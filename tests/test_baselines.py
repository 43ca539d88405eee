from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import binom

from ecopull import (baseline_energy, energy_saving_ratio,
                     expected_total_energy, inference_energy, load_config,
                     model_load_energy, p_th, tinyairnet_energy)


def filter_only_fixed(cfg):
    # scoring all N images, staging the weights, receiving model and query
    return (cfg.images_per_device
            * inference_energy(cfg.behavior_hw, cfg.behavior_model, cfg.image)
            + model_load_energy(cfg.behavior_hw, cfg.behavior_model)
            + cfg.radio.rx_power
            * (cfg.behavior_model.size * cfg.behavior_model.tx_bits
               + cfg.query_length * cfg.behavior_hw.sram_bits)
            / cfg.radio.rate)


def test_baseline_energy_single_image():
    cfg = load_config({"images_per_device": 1})
    # one PNG-sized packet at 4.86 bpp over 640x480 pixels
    assert baseline_energy(cfg) == pytest.approx(1.61243136, rel=1e-9)


def test_baseline_energy_linear_in_library_size():
    one = baseline_energy(load_config({"images_per_device": 1}))
    for n in (2, 10, 100):
        cfg = load_config({"images_per_device": n})
        assert baseline_energy(cfg) == pytest.approx(n * one, rel=1e-12)


def test_baseline_has_no_ml_terms():
    cfg = load_config({"images_per_device": 10})
    assert baseline_energy(cfg) == pytest.approx(
        10 * cfg.radio.tx_power * 4.86 * 640 * 480 / cfg.radio.rate,
        rel=1e-12)


def test_tinyairnet_between_its_endpoints():
    cfg = load_config({"images_per_device": 20})
    pth = p_th(cfg.relevance_threshold, cfg.model_noise,
               cfg.truth_distribution)
    base = baseline_energy(cfg)
    tiny = tinyairnet_energy(cfg)
    assert tiny == pytest.approx(filter_only_fixed(cfg) + pth * base,
                                 rel=1e-6)


def test_tinyairnet_honours_fixed_frames():
    # a filter-only device sends its c ~ Bin(N, p_th) passed images one per
    # frame, as an EcoPull device does: min(c, F) PNG uplinks under a cap
    cfg = load_config({"fixed_frames": 3})
    n = cfg.images_per_device
    pth = p_th(cfg.relevance_threshold, cfg.model_noise,
               cfg.truth_distribution)
    loads = np.arange(n + 1)
    png = baseline_energy(cfg) / n
    direct = float(np.dot(binom.pmf(loads, n, pth),
                          filter_only_fixed(cfg) + np.minimum(loads, 3) * png))
    assert tinyairnet_energy(cfg) == pytest.approx(direct, rel=1e-12)
    assert direct == pytest.approx(10.134, abs=5e-4)
    assert tinyairnet_energy(replace(cfg, fixed_frames=None)) > 6 * direct


def test_saving_ratio():
    assert energy_saving_ratio(3.0, 3.0) == 1.0
    assert energy_saving_ratio(1.0, 4.0) == 0.25
    with pytest.raises(ValueError, match="baseline"):
        energy_saving_ratio(1.0, 0.0)


def test_reference_configuration_ordering_at_larger_libraries():
    # with enough images the filtered schemes beat sending everything,
    # and latent transmission beats PNG transmission
    for n in (30, 60, 100):
        cfg = load_config({"images_per_device": n,
                           "relevance_threshold": 0.6,
                           "compression_rate": 1.2})
        eco = expected_total_energy(cfg)
        tiny = tinyairnet_energy(cfg)
        base = baseline_energy(cfg)
        assert eco < tiny < base


def test_scheme_energies_affine_in_library_size():
    def energies(n):
        cfg = load_config({"images_per_device": n})
        return (expected_total_energy(cfg), tinyairnet_energy(cfg),
                baseline_energy(cfg))

    e10, e20, e30 = energies(10), energies(20), energies(30)
    for a, b, c in zip(e10, e20, e30):
        assert c - b == pytest.approx(b - a, rel=1e-6)
