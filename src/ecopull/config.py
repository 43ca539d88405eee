"""Scenario configuration: domain types, defaults, validation, file I/O.

All quantities are stored in SI base units (joules, watts, seconds, bits).
Configs are immutable after construction and safe to share across workers;
random state is never stored here.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import IO, Any, Iterable, Mapping, Optional, Union

import numpy as np
from scipy.integrate import quad

__all__ = [
    "ConfigError",
    "ImageGeometry",
    "LatentGeometry",
    "RadioProfile",
    "HardwareProfile",
    "ModelCost",
    "TruthDistribution",
    "UniformTruth",
    "BetaTruth",
    "ScenarioConfig",
    "PNG_BPP",
    "slots_for_rate",
    "packet_bits",
    "latent_geometry_for_rate",
    "load_config",
    "save_config",
    "dump_config",
    "apply_overrides",
]

# Average bits-per-pixel of PNG-compressed camera images; upper anchor of the
# compression-rate axis and the rate used by the non-learned comparison schemes.
PNG_BPP = 4.86


class ConfigError(ValueError):
    """Malformed configuration document or out-of-range field."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


@dataclass(frozen=True)
class ImageGeometry:
    """Shape of a stored camera image (channels x height x width)."""

    channels: int = 3
    height: int = 640
    width: int = 480

    def __post_init__(self) -> None:
        for name in ("channels", "height", "width"):
            value = getattr(self, name)
            _require(isinstance(value, int) and value > 0,
                     f"image.{name}={value!r} must be a positive integer")

    @property
    def pixels(self) -> int:
        return self.height * self.width

    @property
    def elements(self) -> int:
        return self.channels * self.height * self.width


@dataclass(frozen=True)
class LatentGeometry:
    """Shape of a quantized latent; its bit size defines one uplink packet."""

    channels: int
    height: int
    width: int

    def __post_init__(self) -> None:
        for name in ("channels", "height", "width"):
            value = getattr(self, name)
            _require(isinstance(value, int) and value > 0,
                     f"latent.{name}={value!r} must be a positive integer")

    def packet_bits(self, full_precision: int) -> int:
        return self.channels * self.height * self.width * full_precision


@dataclass(frozen=True)
class RadioProfile:
    """Radio front-end parameters.

    ``slot_duration`` is bookkeeping only (no formula consumes it); when
    omitted it is derived as packet time ``b_p / rate``.
    """

    tx_power: float = 0.108          # W
    rx_power: float = 0.0669         # W
    rate: float = 1e5                # bits/s, both link directions
    slot_duration: Optional[float] = None  # s

    def __post_init__(self) -> None:
        _require(self.tx_power > 0, f"radio.tx_power={self.tx_power} must be > 0")
        _require(self.rx_power > 0, f"radio.rx_power={self.rx_power} must be > 0")
        _require(self.rate > 0, f"radio.rate={self.rate} must be > 0")
        if self.slot_duration is not None:
            _require(self.slot_duration > 0,
                     f"radio.slot_duration={self.slot_duration} must be > 0")


@dataclass(frozen=True)
class HardwareProfile:
    """Fixed-point inference chip: DRAM precision, SRAM quantization, MUAC array."""

    full_precision: int = 16   # DRAM word width, bits
    sram_bits: int = 8         # SRAM quantization, bits
    muac_bits: int = 16        # MUAC unit width, bits
    parallelism: int = 128     # parallel MUAC units

    def __post_init__(self) -> None:
        for name in ("full_precision", "sram_bits", "muac_bits", "parallelism"):
            value = getattr(self, name)
            _require(isinstance(value, int) and value > 0,
                     f"hw.{name}={value!r} must be a positive integer")
        _require(self.sram_bits <= self.full_precision,
                 f"hw.sram_bits={self.sram_bits} must not exceed "
                 f"full_precision={self.full_precision}")


@dataclass(frozen=True)
class ModelCost:
    """Cost triple of one TinyML model plus its transmission quantization.

    ``complexity`` counts MUAC operations, ``size`` counts weights and biases,
    ``activations`` counts activation values over the whole network.
    ``tx_bits`` is the per-weight quantization used when the model itself is
    sent over the air (set only for models the devices receive per query).
    """

    complexity: float
    size: float
    activations: float
    tx_bits: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("complexity", "size", "activations"):
            value = getattr(self, name)
            _require(value >= 0, f"model.{name}={value} must be >= 0")
        if self.tx_bits is not None:
            _require(isinstance(self.tx_bits, int) and self.tx_bits > 0,
                     f"model.tx_bits={self.tx_bits!r} must be a positive integer")


class TruthDistribution:
    """Distribution of an image's true similarity to the query, on [0, 1].

    Subclasses implement ``density``, ``cdf`` and ``sample``; instances are
    stateless and safe to share across workers (callers own the RNG), and
    hashable and comparable by value: quadratures over them are memoized.
    Dataclass subclasses are validated once, when they are built.
    """

    kind = "abstract"

    def __post_init__(self) -> None:
        self.validate()

    def density(self, beta):
        raise NotImplementedError

    def cdf(self, beta):
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size=None):
        raise NotImplementedError

    def validate(self, atol: float = 1e-9) -> None:
        """Check unit mass and CDF sanity numerically."""
        mass, _ = quad(self.density, 0.0, 1.0, epsabs=atol / 10, limit=200)
        _require(abs(mass - 1.0) <= atol,
                 f"truth_distribution density integrates to {mass!r}, not 1")
        _require(abs(self.cdf(0.0)) <= atol, "truth_distribution cdf(0) != 0")
        _require(abs(self.cdf(1.0) - 1.0) <= atol, "truth_distribution cdf(1) != 1")
        grid = np.linspace(0.0, 1.0, 257)
        values = np.asarray([self.cdf(b) for b in grid])
        _require(bool(np.all(np.diff(values) >= -atol)),
                 "truth_distribution cdf is not nondecreasing")

    def to_spec(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_spec(spec: Mapping[str, Any]) -> "TruthDistribution":
        kind = spec.get("kind")
        if kind == "uniform":
            return UniformTruth()
        if kind == "beta":
            try:
                return BetaTruth(float(spec["alpha"]), float(spec["beta"]))
            except KeyError as exc:
                raise ConfigError(
                    f"truth_distribution kind 'beta' needs field {exc}") from exc
        raise ConfigError(f"unknown truth_distribution kind {kind!r}")


@dataclass(frozen=True)
class UniformTruth(TruthDistribution):
    """Uniform true-similarity distribution on [0, 1]."""

    kind = "uniform"

    def density(self, beta):
        beta = np.asarray(beta, dtype=float)
        return np.where((beta >= 0.0) & (beta <= 1.0), 1.0, 0.0)

    def cdf(self, beta):
        return np.clip(beta, 0.0, 1.0)

    def sample(self, rng: np.random.Generator, size=None):
        return rng.random(size)

    def to_spec(self) -> dict:
        return {"kind": "uniform"}


@dataclass(frozen=True)
class BetaTruth(TruthDistribution):
    """Beta(alpha, beta) true-similarity distribution on [0, 1]."""

    alpha: float
    beta: float
    kind = "beta"

    def __post_init__(self) -> None:
        _require(self.alpha > 0 and self.beta > 0,
                 "truth_distribution beta shape parameters must be > 0")
        super().__post_init__()

    def density(self, beta):
        from scipy.stats import beta as beta_dist
        return beta_dist.pdf(beta, self.alpha, self.beta)

    def cdf(self, beta):
        from scipy.stats import beta as beta_dist
        return beta_dist.cdf(beta, self.alpha, self.beta)

    def sample(self, rng: np.random.Generator, size=None):
        return rng.beta(self.alpha, self.beta, size)

    def to_spec(self) -> dict:
        return {"kind": "beta", "alpha": self.alpha, "beta": self.beta}


def _default_behavior_hw() -> HardwareProfile:
    return HardwareProfile(full_precision=16, sram_bits=8, muac_bits=16,
                           parallelism=128)


def _default_compressor_hw() -> HardwareProfile:
    return HardwareProfile(full_precision=16, sram_bits=16, muac_bits=16,
                           parallelism=64)


def _default_behavior_model() -> ModelCost:
    return ModelCost(complexity=117e6, size=0.976e6, activations=4.309e6,
                     tx_bits=8)


def _default_compressor_model() -> ModelCost:
    return ModelCost(complexity=477e6, size=0.0184e6, activations=3.54e6)


def slots_for_rate(rate: float, slot_coefficient: int) -> int:
    """Slots per frame for a compression rate: ``c_L * ceil(PNG_BPP / rate)``.

    A tiny tolerance absorbs float noise when the ratio is an exact integer.
    """
    if rate <= 0:
        raise ConfigError(f"compression_rate={rate} must be > 0")
    if slot_coefficient < 1:
        raise ConfigError(f"slot_coefficient={slot_coefficient} must be >= 1")
    ratio = PNG_BPP / rate
    return int(slot_coefficient * math.ceil(ratio - 1e-12))


@dataclass(frozen=True)
class ScenarioConfig:
    """Full parameterization of one retrieval experiment."""

    device_count: int = 5                # K
    images_per_device: int = 100         # N
    relevance_threshold: float = 0.6     # device-side score cutoff, in [0, 1]
    truth_threshold: float = 0.9         # server-side true-similarity cutoff
    compression_rate: float = 2.0        # bits per pixel
    slots_per_frame: Optional[int] = None      # explicit L; wins over coefficient
    slot_coefficient: Optional[int] = 5        # c_L; L derived from rate
    penalty: float = 1.0                 # score charged for a lost relevant image
    model_noise: Optional[float] = None  # score noise std; default 1/tx_bits
    query_length: int = 512              # semantic query vector dimension
    fixed_frames: Optional[int] = None   # cap frames instead of draining queues
    single_sram_load: bool = False       # charge both weight pools at behavior SRAM width
    radio: RadioProfile = field(default_factory=RadioProfile)
    image: ImageGeometry = field(default_factory=ImageGeometry)
    behavior_hw: HardwareProfile = field(default_factory=_default_behavior_hw)
    compressor_hw: HardwareProfile = field(default_factory=_default_compressor_hw)
    behavior_model: ModelCost = field(default_factory=_default_behavior_model)
    compressor_model: ModelCost = field(default_factory=_default_compressor_model)
    truth_distribution: TruthDistribution = field(default_factory=UniformTruth)

    def __post_init__(self) -> None:
        _require(isinstance(self.device_count, int) and self.device_count >= 1,
                 f"device_count={self.device_count!r} must be an integer >= 1")
        _require(isinstance(self.images_per_device, int)
                 and self.images_per_device >= 1,
                 f"images_per_device={self.images_per_device!r} must be an "
                 f"integer >= 1")
        for name in ("relevance_threshold", "truth_threshold", "penalty"):
            value = getattr(self, name)
            _require(0.0 <= value <= 1.0,
                     f"{name}={value} outside [0, 1]")
        _require(self.compression_rate > 0,
                 f"compression_rate={self.compression_rate} must be > 0")
        _require(isinstance(self.query_length, int) and self.query_length >= 1,
                 f"query_length={self.query_length!r} must be an integer >= 1")
        if self.slots_per_frame is not None:
            _require(isinstance(self.slots_per_frame, int)
                     and self.slots_per_frame >= 1,
                     f"slots_per_frame={self.slots_per_frame!r} must be an "
                     f"integer >= 1")
        elif self.slot_coefficient is None:
            raise ConfigError(
                "one of slots_per_frame / slot_coefficient must be set")
        if self.slot_coefficient is not None:
            _require(isinstance(self.slot_coefficient, int)
                     and self.slot_coefficient >= 1,
                     f"slot_coefficient={self.slot_coefficient!r} must be an "
                     f"integer >= 1")
        if self.fixed_frames is not None:
            _require(isinstance(self.fixed_frames, int) and self.fixed_frames >= 1,
                     f"fixed_frames={self.fixed_frames!r} must be an integer >= 1")

        _require(self.behavior_model.tx_bits is not None,
                 "behavior_model.tx_bits must be set (the model is sent "
                 "over the air)")
        _require(self.behavior_model.tx_bits
                 <= self.behavior_hw.full_precision,
                 f"behavior_model.tx_bits={self.behavior_model.tx_bits} must "
                 f"not exceed full_precision={self.behavior_hw.full_precision}")
        if self.model_noise is None:
            object.__setattr__(self, "model_noise",
                               1.0 / self.behavior_model.tx_bits)
        _require(self.model_noise > 0,
                 f"model_noise={self.model_noise} must be > 0")

        if self.radio.slot_duration is None:
            derived = packet_bits(self) / self.radio.rate
            object.__setattr__(self, "radio",
                               replace(self.radio, slot_duration=derived))

        # force L resolution errors to surface at construction time
        self.frame_slots()

    def frame_slots(self, rate: Optional[float] = None) -> int:
        """Resolved slots per frame (explicit value, else derived from rate).

        ``rate`` stands in for ``compression_rate``, so a grid over rates
        needs no config per rate.
        """
        if rate is None:
            rate = self.compression_rate
        _require(rate > 0, f"compression_rate={rate} must be > 0")
        if self.slots_per_frame is not None:
            return self.slots_per_frame
        return slots_for_rate(rate, self.slot_coefficient)


def packet_bits(cfg: ScenarioConfig, rate: Optional[float] = None) -> float:
    """Uplink packet size in bits: compression rate times pixels per image.

    ``rate`` stands in for ``cfg.compression_rate``.
    """
    if rate is None:
        rate = cfg.compression_rate
    if rate <= 0:
        raise ConfigError(f"compression_rate={rate} must be > 0")
    return rate * cfg.image.pixels


def latent_geometry_for_rate(cfg: ScenarioConfig) -> LatentGeometry:
    """A latent shape whose packet size realizes the configured rate.

    The flat element count is the nearest integer to ``b_p / b_max``; the
    resulting packet size matches ``packet_bits`` within one element's bits.
    """
    full = cfg.compressor_hw.full_precision
    elements = max(1, round(packet_bits(cfg) / full))
    return LatentGeometry(channels=1, height=1, width=elements)


# --- configuration document handling ---------------------------------------

_LEAF_TYPES = {
    "device_count": int,
    "images_per_device": int,
    "relevance_threshold": float,
    "truth_threshold": float,
    "compression_rate": float,
    "slots_per_frame": int,
    "slot_coefficient": int,
    "penalty": float,
    "model_noise": float,
    "query_length": int,
    "fixed_frames": int,
    "single_sram_load": bool,
}

_NESTED_TYPES = {
    "radio": RadioProfile,
    "image": ImageGeometry,
    "behavior_hw": HardwareProfile,
    "compressor_hw": HardwareProfile,
    "behavior_model": ModelCost,
    "compressor_model": ModelCost,
}


def _coerce_leaf(name: str, value: Any, target: type) -> Any:
    if value is None:
        return None
    if target is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{name}={value!r} must be a boolean")
    if target is int:
        if isinstance(value, bool):
            raise ConfigError(f"{name}={value!r} must be an integer")
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ConfigError(f"{name}={value!r} must be an integer")
    if target is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name}={value!r} must be a number")
        return float(value)
    return value


def _build_nested(name: str, cls: type, spec: Mapping[str, Any]):
    field_types = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for key, raw in spec.items():
        if key not in field_types:
            raise ConfigError(f"unknown field {name}.{key}")
        if key in ("slot_duration", "tx_bits") and raw is None:
            kwargs[key] = None
        elif key in ("channels", "height", "width", "full_precision",
                     "sram_bits", "muac_bits", "parallelism", "tx_bits"):
            kwargs[key] = _coerce_leaf(f"{name}.{key}", raw, int)
        else:
            kwargs[key] = _coerce_leaf(f"{name}.{key}", raw, float)
    return cls(**kwargs)


def load_config(source: Union[str, bytes, Mapping[str, Any], IO[str], "os.PathLike[str]", None] = None) -> ScenarioConfig:
    """Build a validated config from a JSON document, dict, path, or file.

    Missing fields take the default experiment values; unknown fields and
    out-of-range values raise :class:`ConfigError` naming the field.
    ``None`` or an empty document yields the default configuration.
    """
    if source is None:
        spec: Mapping[str, Any] = {}
    elif isinstance(source, Mapping):
        spec = source
    elif hasattr(source, "read"):
        spec = _parse_json(source.read())
    else:
        text = source
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        if isinstance(text, str) and not text.lstrip().startswith("{") and "\n" not in text.strip():
            try:
                with open(text, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except FileNotFoundError:
                pass
        elif not isinstance(text, str):
            with open(text, "r", encoding="utf-8") as handle:
                text = handle.read()
        spec = _parse_json(text)

    if not isinstance(spec, Mapping):
        raise ConfigError("configuration document must be a JSON object")

    kwargs: dict[str, Any] = {}
    for key, raw in spec.items():
        if key in _LEAF_TYPES:
            kwargs[key] = _coerce_leaf(key, raw, _LEAF_TYPES[key])
        elif key in _NESTED_TYPES:
            if not isinstance(raw, Mapping):
                raise ConfigError(f"{key} must be a mapping")
            kwargs[key] = _build_nested(key, _NESTED_TYPES[key], raw)
        elif key == "truth_distribution":
            if not isinstance(raw, Mapping):
                raise ConfigError("truth_distribution must be a mapping")
            kwargs[key] = TruthDistribution.from_spec(raw)
        else:
            raise ConfigError(f"unknown field {key}")
    try:
        return ScenarioConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _parse_json(text: str) -> Any:
    if not text.strip():
        return {}
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed configuration document: {exc}") from exc


def save_config(cfg: ScenarioConfig) -> dict:
    """Config as a plain dict that :func:`load_config` accepts unchanged."""
    out: dict[str, Any] = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, TruthDistribution):
            out[f.name] = value.to_spec()
        elif isinstance(value, (RadioProfile, ImageGeometry, HardwareProfile,
                                ModelCost)):
            out[f.name] = asdict(value)
        else:
            out[f.name] = value
    return out


def dump_config(cfg: ScenarioConfig, indent: int = 2) -> str:
    """Config as a JSON document; round-trips exactly through load_config."""
    return json.dumps(save_config(cfg), indent=indent)


def apply_overrides(spec: dict, assignments: Iterable[str]) -> dict:
    """Apply ``path.to.field=json_value`` assignments onto a config dict."""
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        path, _, raw = item.partition("=")
        keys = path.strip().split(".")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = spec
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {path!r} descends into a scalar")
        node[keys[-1]] = value
    return spec
