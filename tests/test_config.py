import dataclasses
import json

import numpy as np
import pytest
from scipy.stats import chisquare

from ecopull import (BetaTruth, ConfigError, TruthDistribution, UniformTruth,
                     apply_overrides, dump_config, load_config, packet_bits,
                     save_config, slots_for_rate)


def test_empty_document_gives_experiment_defaults():
    cfg = load_config()
    assert cfg.device_count == 5
    assert cfg.images_per_device == 100
    assert cfg.truth_threshold == 0.9
    assert cfg.radio.tx_power == 0.108
    assert cfg.radio.rx_power == 0.0669
    assert cfg.radio.rate == 1e5
    assert cfg.relevance_threshold == 0.6
    assert cfg.penalty == 1.0
    assert cfg.image.channels == 3 and cfg.image.height == 640
    assert cfg.behavior_hw.sram_bits == 8
    assert cfg.behavior_hw.parallelism == 128
    assert cfg.compressor_hw.sram_bits == 16
    assert cfg.compressor_hw.parallelism == 64
    assert cfg.behavior_model.complexity == 117e6
    assert cfg.compressor_model.size == 0.0184e6


def test_empty_string_and_none_agree():
    assert load_config("") == load_config(None) == load_config({})


def test_out_of_range_threshold_reports_field():
    with pytest.raises(ConfigError, match="relevance_threshold"):
        load_config({"relevance_threshold": 1.5})


def test_default_noise_derives_from_tx_bits():
    cfg = load_config()
    assert cfg.model_noise == 0.125
    cfg4 = load_config({"behavior_model": {"complexity": 117e6,
                                           "size": 0.976e6,
                                           "activations": 4.309e6,
                                           "tx_bits": 4}})
    assert cfg4.model_noise == 0.25
    explicit = load_config({"model_noise": 0.05})
    assert explicit.model_noise == 0.05


@pytest.mark.parametrize("field,value", [
    ("device_count", 0),
    ("images_per_device", 0),
    ("compression_rate", 0),
    ("compression_rate", -1.0),
    ("truth_threshold", -0.1),
    ("penalty", 2.0),
    ("model_noise", 0.0),
    ("query_length", 0),
])
def test_bounds_are_enforced(field, value):
    with pytest.raises(ConfigError, match=field):
        load_config({field: value})


def test_unknown_field_rejected():
    with pytest.raises(ConfigError, match="unknown field"):
        load_config({"devices": 4})
    with pytest.raises(ConfigError, match="unknown field radio.power"):
        load_config({"radio": {"power": 1.0}})


def test_malformed_document_rejected():
    with pytest.raises(ConfigError, match="malformed"):
        load_config("{not json")


def test_packet_bits_values():
    cfg = load_config({"compression_rate": 2.0})
    assert packet_bits(cfg) == pytest.approx(614400.0, abs=1e-6)
    cfg_max = load_config({"compression_rate": 4.86})
    assert packet_bits(cfg_max) == pytest.approx(1492992.0, abs=1e-3)


def test_packet_bits_linear_in_rate():
    base = packet_bits(load_config({"compression_rate": 1.0}))
    for rate in (0.5, 1.7, 3.2):
        cfg = load_config({"compression_rate": rate})
        assert packet_bits(cfg) == pytest.approx(rate * base, rel=1e-12)


def test_zero_rate_is_a_precondition_error():
    with pytest.raises(ConfigError, match="compression_rate"):
        load_config({"compression_rate": 0.0})


def test_round_trip_is_identity():
    cfg = load_config({"device_count": 7, "compression_rate": 1.37,
                       "truth_distribution": {"kind": "beta", "alpha": 2.0,
                                              "beta": 5.0},
                       "radio": {"tx_power": 0.2, "rx_power": 0.05,
                                 "rate": 25e3}})
    text = dump_config(cfg)
    assert load_config(text) == cfg
    assert load_config(json.loads(text)) == cfg
    assert save_config(load_config(save_config(cfg))) == save_config(cfg)


def test_uniform_truth_cdf_is_identity():
    truth = UniformTruth()
    for beta in (0.0, 0.2, 0.5, 0.99, 1.0):
        assert truth.cdf(beta) == beta
    truth.validate()


def test_uniform_truth_sampling_matches_density():
    rng = np.random.default_rng(123)
    samples = UniformTruth().sample(rng, 100_000)
    counts, _ = np.histogram(samples, bins=20, range=(0.0, 1.0))
    _, pvalue = chisquare(counts)
    assert pvalue > 1e-4


def test_beta_truth_is_a_valid_distribution():
    truth = BetaTruth(2.0, 5.0)
    truth.validate()
    assert truth.cdf(0.0) == 0.0
    assert truth.cdf(1.0) == pytest.approx(1.0)
    rng = np.random.default_rng(5)
    draws = truth.sample(rng, 2000)
    assert np.all((draws >= 0) & (draws <= 1))


def test_replace_does_not_revalidate_truth(monkeypatch):
    cfg = load_config()

    def fail(self, atol=1e-9):
        raise AssertionError("validate called")

    monkeypatch.setattr(TruthDistribution, "validate", fail)
    moved = dataclasses.replace(cfg, compression_rate=1.5)
    assert moved.truth_distribution is cfg.truth_distribution


def test_truth_with_wrong_mass_rejected_on_construction():
    @dataclasses.dataclass(frozen=True)
    class DoubledTruth(UniformTruth):
        def density(self, beta):
            return 2.0 * super().density(beta)

    with pytest.raises(ConfigError, match="integrates"):
        DoubledTruth()


def test_bad_beta_spec_rejected():
    with pytest.raises(ConfigError, match="beta"):
        load_config({"truth_distribution": {"kind": "beta", "alpha": -1.0,
                                            "beta": 2.0}})


def test_slot_resolution():
    assert slots_for_rate(1.2, 5) == 25
    assert slots_for_rate(4.86, 5) == 5
    assert slots_for_rate(2.5, 2) == 4
    assert slots_for_rate(2.43, 5) == 10  # exact integer ratio
    cfg = load_config({"slots_per_frame": 7, "slot_coefficient": None})
    assert cfg.frame_slots() == 7
    derived = load_config({"compression_rate": 1.2})
    assert derived.frame_slots() == 25


def test_missing_slot_settings_rejected():
    with pytest.raises(ConfigError, match="slot"):
        load_config({"slot_coefficient": None})


def test_apply_overrides_paths():
    spec = apply_overrides({}, ["device_count=9", "radio.rate=2e5",
                                "truth_distribution.kind=uniform"])
    cfg = load_config(spec)
    assert cfg.device_count == 9
    assert cfg.radio.rate == 2e5
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides({}, ["oops"])


def test_slot_duration_rejected_as_unknown_field():
    with pytest.raises(ConfigError, match="radio.slot_duration"):
        load_config({"radio": {"slot_duration": 3.0}})
