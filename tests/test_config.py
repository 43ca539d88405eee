import dataclasses
import json
import math
import re
from typing import Optional, get_type_hints

import numpy as np
import pytest
from scipy.stats import chisquare

from ecopull import (BetaTruth, ConfigError, HardwareProfile, ImageGeometry,
                     ModelCost, RadioProfile, ScenarioConfig,
                     TruthDistribution, UniformTruth, apply_overrides,
                     dump_config, load_config, packet_bits, save_config,
                     slots_for_rate)


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
        def cdf(self, beta):
            return 2.0 * super().cdf(beta)

    with pytest.raises(ConfigError, match=r"cdf\(1\) != 1"):
        DoubledTruth()


def test_bad_beta_spec_rejected():
    with pytest.raises(ConfigError, match="beta"):
        load_config({"truth_distribution": {"kind": "beta", "alpha": -1.0,
                                            "beta": 2.0}})


@pytest.mark.parametrize("alpha", [math.inf, math.nan])
def test_non_finite_beta_shape_rejected(alpha):
    # an infinite shape once failed in the density quadrature instead
    with pytest.raises(ConfigError, match="must be finite"):
        load_config({"truth_distribution": {"kind": "beta", "alpha": alpha,
                                            "beta": 2.0}})


@pytest.mark.parametrize("spec, name", [
    ({"model_noise": math.inf}, "model_noise"),
    ({"penalty": -math.inf}, "penalty"),
    ({"compression_rate": math.nan}, "compression_rate"),
    ({"compression_rate": 10 ** 400}, "compression_rate"),
    ({"radio": {"tx_power": math.inf}}, "radio.tx_power"),
    ({"truth_distribution": {"kind": "beta", "alpha": 2, "beta": 10 ** 400}},
     "truth_distribution.beta"),
    ('{"model_noise": Infinity}', "model_noise"),
], ids=["inf", "-inf", "nan", "huge-int", "nested", "truth", "json"])
def test_non_finite_numbers_rejected(spec, name):
    # an infinite noise once scored 0, and an infinite power made NaN
    # energies, without an error
    with pytest.raises(ConfigError,
                       match=rf"^{re.escape(name)}=.* must be finite$"):
        load_config(spec)


def test_slot_resolution():
    assert slots_for_rate(1.2, 5) == 25
    assert slots_for_rate(4.86, 5) == 5
    assert slots_for_rate(2.5, 2) == 4
    assert slots_for_rate(2.43, 5) == 10  # exact integer ratio
    # a ratio under the integer tolerance once gave L = 0
    for rate in (4.86e12, 1e13, 1e300, math.inf):
        assert slots_for_rate(rate, 5) == 5
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


def test_single_sram_load_rejected_as_unknown_field():
    with pytest.raises(ConfigError, match="unknown field single_sram_load"):
        load_config({"single_sram_load": True})


def test_partial_nested_mapping_keeps_the_field_defaults():
    # parallelism=64 is the compressor's default; sram_bits must stay 16
    cfg = load_config({"compressor_hw": {"parallelism": 64}})
    assert cfg == load_config()
    assert cfg.compressor_hw.sram_bits == 16


def test_partial_behavior_model_keeps_its_costs():
    default = load_config().behavior_model
    model = load_config({"behavior_model": {"tx_bits": 4}})
    assert model.model_noise == 0.25
    assert model.behavior_model == dataclasses.replace(default, tx_bits=4)


@pytest.mark.parametrize("spec,field", [
    ({"kind": "uniform", "alpha": 1}, "alpha"),
    ({"kind": "beta", "alpha": 2.0, "beta": 5.0, "gamma": 1.0}, "gamma"),
])
def test_unknown_truth_field_rejected(spec, field):
    with pytest.raises(ConfigError,
                       match=f"unknown field truth_distribution.{field}"):
        load_config({"truth_distribution": spec})


def test_beta_spec_without_beta_names_the_field():
    with pytest.raises(ConfigError, match="truth_distribution"):
        load_config({"truth_distribution": {"kind": "beta", "alpha": 2.0}})


def test_none_rejected_where_the_field_is_not_optional():
    with pytest.raises(ConfigError, match="penalty=None"):
        load_config({"penalty": None})
    assert load_config({"model_noise": None}) == load_config()


def test_nested_error_names_the_field():
    with pytest.raises(ConfigError, match="compressor_hw: hw.sram_bits"):
        load_config({"compressor_hw": {"sram_bits": 32}})


# one instance of each config dataclass, with its document path
DEFAULT = load_config()
INSTANCES = [
    ("", DEFAULT),
    ("image", DEFAULT.image),
    ("radio", DEFAULT.radio),
    ("compressor_hw", DEFAULT.compressor_hw),
    ("behavior_model", DEFAULT.behavior_model),
    ("truth_distribution", BetaTruth(2.0, 5.0)),
]
NUMERIC = {int: False, float: False, Optional[int]: True,
           Optional[float]: True}        # annotation -> Optional


def _bad_values():
    # every int and float field, as the schema declares them
    for path, instance in INSTANCES:
        hints = get_type_hints(type(instance))
        for f in dataclasses.fields(instance):
            if hints[f.name] not in NUMERIC:
                continue
            values = [True, math.inf, math.nan, "x"]
            if not NUMERIC[hints[f.name]]:
                values.append(None)
            for value in values:
                yield pytest.param(path, instance, f.name, value,
                                   id=f"{path or 'scenario'}.{f.name}="
                                      f"{value!r}")


BAD_VALUES = list(_bad_values())


def test_the_schema_walk_reaches_every_class():
    assert {type(param.values[1]) for param in BAD_VALUES} == {
        ScenarioConfig, ImageGeometry, RadioProfile, HardwareProfile,
        ModelCost, BetaTruth}


@pytest.mark.parametrize("path, instance, name, value", BAD_VALUES)
def test_document_field_check_names_the_dotted_field(path, instance, name,
                                                     value):
    if path == "truth_distribution":
        spec = {path: {"kind": "beta", "alpha": 2.0, "beta": 5.0,
                       name: value}}
    else:
        spec = {path: {name: value}} if path else {name: value}
    dotted = f"{path}.{name}" if path else name
    with pytest.raises(ConfigError, match=rf"^{re.escape(dotted)}="):
        load_config(spec)


@pytest.mark.parametrize("path, instance, name, value", BAD_VALUES)
def test_replace_runs_the_same_field_check(path, instance, name, value):
    # a replaced config once skipped the document's type and finiteness
    # checks: compression_rate=inf built and scored nan
    with pytest.raises(ConfigError, match=rf"^{re.escape(name)}="):
        dataclasses.replace(instance, **{name: value})


@pytest.mark.parametrize("build, name", [
    (lambda: RadioProfile(rate=math.inf), "rate"),
    (lambda: RadioProfile(rate=10 ** 400), "rate"),
    (lambda: ModelCost(complexity=math.nan, size=1, activations=1),
     "complexity"),
    (lambda: BetaTruth(math.inf, 2.0), "alpha"),
    (lambda: ImageGeometry(height=2.0), "height"),
    (lambda: dataclasses.replace(DEFAULT, radio=None), "radio"),
], ids=["inf", "huge-int", "nan", "beta", "float-for-int", "nested-none"])
def test_constructors_check_fields(build, name):
    with pytest.raises(ConfigError, match=rf"^{name}="):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: RadioProfile(rate=10 ** 400), "rate=inf must be finite"),
    (lambda: BetaTruth(alpha=10 ** 400, beta=1.0), "alpha=inf must be finite"),
    (lambda: dataclasses.replace(DEFAULT, penalty=10 ** 400),
     "penalty=inf must be finite"),
], ids=["constructor", "truth", "replace"])
def test_integer_past_the_float_range_reads_inf(build, message):
    # such an integer was once written out in full, 401 digits
    with pytest.raises(ConfigError) as caught:
        build()
    assert str(caught.value) == message


def test_numpy_and_integer_floats_are_accepted():
    radio = RadioProfile(tx_power=np.float32(0.5), rx_power=1, rate=1e4)
    assert radio.tx_power == np.float32(0.5) and radio.rx_power == 1


def test_numpy_floats_are_stored_as_floats_and_dump():
    # the field check accepts any finite real, but JSON only Python's own
    documented = load_config({"compression_rate": np.float32(1.5),
                              "radio": {"rate": np.float64(2e4)}})
    replaced = dataclasses.replace(
        DEFAULT, truth_threshold=np.float32(0.875),
        truth_distribution=BetaTruth(np.float32(2.0), 5))
    for cfg in (documented, replaced):
        text = dump_config(cfg)
        assert load_config(text) == cfg
        assert dump_config(load_config(text)) == text
    assert type(documented.compression_rate) is float
    assert documented.compression_rate == 1.5
    assert type(replaced.truth_distribution.beta) is float


def test_compressor_tx_bits_rejected():
    # only the behavior model is sent over the air, so no path read the
    # compressor's tx_bits: it was accepted and ignored
    with pytest.raises(ConfigError, match=r"^compressor_model\.tx_bits=4 "):
        load_config({"compressor_model": {"tx_bits": 4}})
    with pytest.raises(ConfigError, match=r"^compressor_model\.tx_bits="):
        dataclasses.replace(DEFAULT, compressor_model=dataclasses.replace(
            DEFAULT.compressor_model, tx_bits=8))
    assert load_config({"compressor_model": {"tx_bits": None}}) == DEFAULT
