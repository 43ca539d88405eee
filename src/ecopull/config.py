"""Scenario configuration: domain types, defaults, validation, documents.

All quantities are stored in SI base units (joules, watts, seconds, bits).
Configs are immutable after construction and safe to share across workers;
random state is never stored here.
"""

import json
import math
import warnings
from dataclasses import (asdict, dataclass, field, fields, is_dataclass,
                         replace)
from functools import lru_cache, partial
from numbers import Real
from typing import (Any, Iterable, Mapping, Optional, Union, get_args,
                    get_origin, get_type_hints)

import numpy as np

from .sifi import fidelity_distance

__all__ = [
    "ConfigError",
    "ImageGeometry",
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


@lru_cache(maxsize=None)
def _field_kinds(cls: type) -> dict[str, tuple[type, bool]]:
    """Each field's annotated type, ``Optional`` unwrapped, and whether the
    field is ``Optional``. The annotations here are evaluated (only the
    ``sample`` methods quote ``np.random.Generator``, whose name would
    import numpy.random), so reading them needs no string eval."""
    hints = get_type_hints(cls)
    kinds = {}
    for f in fields(cls):
        kind = hints[f.name]
        optional = get_origin(kind) is Union
        if optional:
            kind = next(arg for arg in get_args(kind) if arg is not type(None))
        kinds[f.name] = (kind, optional)
    return kinds


def _check_fields(config: Any) -> None:
    """Check each field of a config dataclass against its annotation.

    ``None`` passes only an ``Optional`` field. An ``int`` field holds a
    Python ``int`` of at least 1, a ``float`` field a finite real number
    (neither a ``bool``), stored as a Python ``float`` so that every path,
    JSON too, takes it alike, and any other field an instance of its class.
    """
    for name, (kind, optional) in _field_kinds(type(config)).items():
        value = getattr(config, name)
        if value is None and optional:
            continue
        if kind is float:
            # a plain float skips the abstract Real test, ten times slower
            if type(value) is not float and (
                    isinstance(value, bool) or not isinstance(value, Real)):
                problem = "must be a number"
            else:
                try:
                    if math.isfinite(value):
                        if type(value) is not float:
                            object.__setattr__(config, name, float(value))
                        continue
                except OverflowError:       # an integer past the float range
                    value = math.inf
                problem = "must be finite"
        elif kind is int:
            if (isinstance(value, int) and not isinstance(value, bool)
                    and value >= 1):
                continue
            problem = "must be an integer >= 1"
        elif isinstance(value, kind):
            continue
        else:
            problem = f"must be a {kind.__name__}"
        raise ConfigError(f"{name}={value!r} {problem}")


@dataclass(frozen=True)
class ImageGeometry:
    """Shape of a stored camera image (channels x height x width)."""

    channels: int = 3
    height: int = 640
    width: int = 480

    def __post_init__(self) -> None:
        _check_fields(self)

    @property
    def pixels(self) -> int:
        return self.height * self.width

    @property
    def elements(self) -> int:
        return self.channels * self.height * self.width


@dataclass(frozen=True)
class RadioProfile:
    """Radio front-end parameters."""

    tx_power: float = 0.108          # W
    rx_power: float = 0.0669         # W
    rate: float = 1e5                # bits/s, both link directions

    def __post_init__(self) -> None:
        _check_fields(self)
        for name in ("tx_power", "rx_power", "rate"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigError(f"{name}={value} must be > 0")


@dataclass(frozen=True)
class HardwareProfile:
    """Fixed-point inference chip: DRAM precision, SRAM quantization, MUAC array."""

    full_precision: int = 16   # DRAM word width, bits
    sram_bits: int = 8         # SRAM quantization, bits
    muac_bits: int = 16        # MUAC unit width, bits
    parallelism: int = 128     # parallel MUAC units

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.sram_bits > self.full_precision:
            raise ConfigError(f"hw.sram_bits={self.sram_bits} must not exceed "
                              f"full_precision={self.full_precision}")


@dataclass(frozen=True)
class ModelCost:
    """Cost triple of one TinyML model plus its transmission quantization.

    ``complexity`` counts MUAC operations, ``size`` counts weights and biases,
    ``activations`` counts activation values over the whole network.
    ``tx_bits`` is the per-weight quantization used when the model itself is
    sent over the air; only the behavior model is, so only it sets one.
    """

    complexity: float
    size: float
    activations: float
    tx_bits: Optional[int] = None

    def __post_init__(self) -> None:
        _check_fields(self)
        for name in ("complexity", "size", "activations"):
            value = getattr(self, name)
            if not value >= 0:
                raise ConfigError(f"{name}={value} must be >= 0")


class TruthDistribution:
    """Distribution of an image's true similarity to the query, on [0, 1].

    Subclasses implement ``cdf`` and ``sample`` and name their ``kind``,
    which picks the filtered-mass formula in ``energy``. Instances are
    stateless and safe to share across workers (callers own the RNG), and
    hashable and comparable by value: masses over them are memoized.
    Dataclass subclasses are validated once, when they are built.
    """

    kind = "abstract"

    def __post_init__(self) -> None:
        self.validate()

    def cdf(self, beta):
        raise NotImplementedError

    def sample(self, rng: "np.random.Generator", size=None):
        raise NotImplementedError

    def validate(self) -> None:
        """Check that the CDF runs from 0 at 0 to 1 at 1 without falling."""
        atol = 1e-9     # how far the CDF may stray below 0, above 1, downhill
        if not abs(self.cdf(0.0)) <= atol:
            raise ConfigError("truth_distribution cdf(0) != 0")
        if not abs(self.cdf(1.0) - 1.0) <= atol:
            raise ConfigError("truth_distribution cdf(1) != 1")
        values = np.asarray(self.cdf(np.linspace(0.0, 1.0, 257)))
        if not np.all(np.diff(values) >= -atol):
            raise ConfigError("truth_distribution cdf is not nondecreasing")


@dataclass(frozen=True)
class UniformTruth(TruthDistribution):
    """Uniform true-similarity distribution on [0, 1]."""

    kind = "uniform"

    def cdf(self, beta):
        return np.clip(beta, 0.0, 1.0)

    def sample(self, rng: "np.random.Generator", size=None):
        return rng.random(size)


# the continued fraction stops once a term changes it by at most this factor
_FRACTION_TOLERANCE = 1e-15
_MAX_FRACTION_TERMS = 10_000


def _fraction_terms(p: float, q: float, m: int) -> tuple[float, float]:
    # the continued fraction's odd and even numerators for I_t(p, q), per t
    pm = p + 2 * m
    return (m * (q - m) / ((pm - 1.0) * pm),
            -(p + m) * (p + q + m) / (pm * (pm + 1.0)))


def _betainc(a: float, b: float, x, y=None):
    """Regularized incomplete beta ``I_x(a, b)`` and its complement.

    Returns ``(I_x(a, b), 1 - I_x(a, b))`` elementwise. ``y`` is ``1 - x``;
    a caller that knows it more precisely than ``1 - x`` rounds passes it.
    Below ``x = (a+1)/(a+b+2)`` the continued fraction for ``I_x(a, b)``
    converges fast, above it the one for ``I_{1-x}(b, a)`` does, so each
    point takes the faster one and the other tail is its complement. The
    fraction is evaluated by the modified Lentz method (Numerical Recipes
    6.4; DiDonato and Morris, ACM TOMS 18, 1992), all points together
    until every one has converged.
    """
    x = np.asarray(x, dtype=float)
    y = 1.0 - x if y is None else np.asarray(y, dtype=float)
    x, y = np.maximum(x, 0.0), np.maximum(y, 0.0)
    swap = x > (a + 1.0) / (a + b + 2.0)
    # each point's fraction argument, on the side it is evaluated on
    t_a = np.where(swap, 0.0, x)
    t_b = np.where(swap, y, 0.0)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    with np.errstate(divide="ignore"):
        front = np.exp(a * np.log(x) + b * np.log(y) - log_beta)
    front /= np.where(swap, b, a)
    c = 1.0
    d = 1.0 / (1.0 - (a + b) / (a + 1.0) * t_a - (a + b) / (b + 1.0) * t_b)
    fraction = d
    for m in range(1, _MAX_FRACTION_TERMS):
        odd_a, even_a = _fraction_terms(a, b, m)
        odd_b, even_b = _fraction_terms(b, a, m)
        for term in (odd_a * t_a + odd_b * t_b, even_a * t_a + even_b * t_b):
            d = 1.0 / (1.0 + term * d)
            c = 1.0 + term / c
            step = d * c
            fraction = fraction * step
        if abs(step - 1.0).max() <= _FRACTION_TOLERANCE:
            break
    direct = front * fraction
    return (np.where(swap, 1.0 - direct, direct),
            np.where(swap, direct, 1.0 - direct))


@dataclass(frozen=True)
class BetaTruth(TruthDistribution):
    """Beta(alpha, beta) true-similarity distribution on [0, 1]."""

    alpha: float
    beta: float
    kind = "beta"

    def __post_init__(self) -> None:
        _check_fields(self)
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigError(f"{name}={value} must be > 0 (a beta shape)")
        super().__post_init__()

    def cdf(self, beta):
        return _betainc(self.alpha, self.beta, np.clip(beta, 0.0, 1.0))[0]

    def sample(self, rng: "np.random.Generator", size=None):
        return rng.beta(self.alpha, self.beta, size)


_TRUTH_KINDS = {cls.kind: cls for cls in (UniformTruth, BetaTruth)}


def _warn_if_penalty_below_distance(penalty: float, rate: float,
                                    stacklevel: int) -> None:
    """Warn when losing an image at ``rate`` scores better than delivering it."""
    distance = fidelity_distance(rate)
    if penalty < distance:
        warnings.warn(
            f"penalty={penalty} is below the fidelity distance {distance}; "
            f"losing an image then scores better than delivering it",
            stacklevel=stacklevel)


def slots_for_rate(rate: float, slot_coefficient: int) -> int:
    """Slots per frame for a compression rate: ``c_L * ceil(PNG_BPP / rate)``.

    A tiny tolerance absorbs float noise when the ratio is an exact integer;
    a frame has at least ``c_L`` slots however large the rate.
    """
    if rate <= 0:
        raise ConfigError(f"compression_rate={rate} must be > 0")
    if slot_coefficient < 1:
        raise ConfigError(f"slot_coefficient={slot_coefficient} must be >= 1")
    ratio = PNG_BPP / rate
    return int(slot_coefficient * max(math.ceil(ratio - 1e-12), 1))


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
    radio: RadioProfile = field(default_factory=RadioProfile)
    image: ImageGeometry = field(default_factory=ImageGeometry)
    behavior_hw: HardwareProfile = field(default_factory=HardwareProfile)
    compressor_hw: HardwareProfile = field(default_factory=partial(
        HardwareProfile, sram_bits=16, parallelism=64))
    behavior_model: ModelCost = field(default_factory=partial(
        ModelCost, complexity=117e6, size=0.976e6, activations=4.309e6,
        tx_bits=8))
    compressor_model: ModelCost = field(default_factory=partial(
        ModelCost, complexity=477e6, size=0.0184e6, activations=3.54e6))
    truth_distribution: TruthDistribution = field(default_factory=UniformTruth)

    def __post_init__(self) -> None:
        _check_fields(self)
        for name in ("relevance_threshold", "truth_threshold", "penalty"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name}={value} outside [0, 1]")
        rate = self.compression_rate
        if not rate > 0:
            raise ConfigError(f"compression_rate={rate} must be > 0")
        _warn_if_penalty_below_distance(self.penalty, rate, stacklevel=4)
        if self.slots_per_frame is None and self.slot_coefficient is None:
            raise ConfigError(
                "one of slots_per_frame / slot_coefficient must be set")
        tx_bits = self.behavior_model.tx_bits
        if self.compressor_model.tx_bits is not None:
            raise ConfigError(
                f"compressor_model.tx_bits={self.compressor_model.tx_bits} "
                f"must not be set (only the behavior model is sent)")
        if tx_bits is None:
            raise ConfigError("behavior_model.tx_bits must be set (the model "
                              "is sent over the air)")
        if tx_bits > self.behavior_hw.full_precision:
            raise ConfigError(
                f"behavior_model.tx_bits={tx_bits} must not exceed "
                f"full_precision={self.behavior_hw.full_precision}")
        if self.model_noise is None:
            object.__setattr__(self, "model_noise", 1.0 / tx_bits)
        if not self.model_noise > 0:
            raise ConfigError(f"model_noise={self.model_noise} must be > 0")

    def frame_slots(self, rate: Optional[float] = None) -> int:
        """Resolved slots per frame (explicit value, else derived from rate).

        ``rate`` stands in for ``compression_rate``, so a grid over rates
        needs no config per rate.
        """
        if rate is None:
            rate = self.compression_rate
        if not rate > 0:
            raise ConfigError(f"compression_rate={rate} must be > 0")
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


# --- configuration document handling ---------------------------------------
#
# A document is built by the same constructors as any config: a leaf goes
# to its field as it is, save that an integral JSON number becomes an int
# field's int (the field check stores a float field's number as a float
# and judges every value), a nested mapping updates the ScenarioConfig
# field's own default, and a truth_distribution mapping builds the class
# its "kind" names.


def _build(cls: type, spec: Any, path: str = "", base: Any = None) -> Any:
    """``cls`` built from ``spec``, or ``base`` updated by it."""
    if not isinstance(spec, Mapping):
        raise ConfigError(f"{path or 'configuration document'} must be a "
                          f"mapping")
    kinds = _field_kinds(cls)
    kwargs = {}
    for key, raw in spec.items():
        name = f"{path}.{key}" if path else key
        if key not in kinds:
            raise ConfigError(f"unknown field {name}")
        kind = kinds[key][0]
        if kind is TruthDistribution:
            kwargs[key] = _build_truth(raw, name)
        elif is_dataclass(kind):
            default = cls.__dataclass_fields__[key].default_factory()
            kwargs[key] = _build(kind, raw, name, default)
        elif kind is int and isinstance(raw, float) and raw.is_integer():
            kwargs[key] = int(raw)
        else:
            kwargs[key] = raw
    try:
        return cls(**kwargs) if base is None else replace(base, **kwargs)
    except (TypeError, ValueError) as exc:
        message = str(exc)
        if path and message.partition("=")[0] in kinds:
            message = f"{path}.{message}"      # a field's own message
        elif not message.startswith(path):     # name the field once
            message = f"{path}: {message}"
        raise ConfigError(message) from exc


def _build_truth(spec: Any, path: str) -> TruthDistribution:
    if not isinstance(spec, Mapping):
        raise ConfigError(f"{path} must be a mapping")
    params = dict(spec)
    kind = params.pop("kind", None)
    if not isinstance(kind, str) or kind not in _TRUTH_KINDS:
        raise ConfigError(f"unknown {path} kind {kind!r}")
    return _build(_TRUTH_KINDS[kind], params, path)


def _parse_json(text: str) -> dict:
    """A configuration document's JSON text as a dict; blank text is ``{}``."""
    if not text.strip():
        return {}
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed configuration document: {exc}") from exc
    if not isinstance(spec, dict):
        raise ConfigError("configuration document must be a JSON object")
    return spec


def load_config(source: Union[str, Mapping[str, Any], None] = None
                ) -> ScenarioConfig:
    """Build a validated config from a mapping, JSON text or ``None``.

    Missing fields take the default experiment values, and a nested mapping
    updates only the fields it names. Unknown fields and out-of-range
    values raise :class:`ConfigError` naming the field. ``None`` or an
    empty document yields the default configuration.
    """
    if source is None:
        source = {}
    elif isinstance(source, str):
        source = _parse_json(source)
    return _build(ScenarioConfig, source)


def save_config(cfg: ScenarioConfig) -> dict:
    """Config as a plain dict that :func:`load_config` accepts unchanged."""
    out = asdict(cfg)
    truth = cfg.truth_distribution
    out["truth_distribution"] = {"kind": truth.kind, **asdict(truth)}
    return out


def dump_config(cfg: ScenarioConfig) -> str:
    """Config as a JSON document; round-trips exactly through load_config."""
    return json.dumps(save_config(cfg), indent=2)


def apply_overrides(spec: dict, assignments: Iterable[str]) -> dict:
    """Apply ``path.to.field=json_value`` assignments onto a config dict.

    Setting ``truth_distribution.kind`` to a new kind starts that mapping
    afresh, so later assignments give the new kind its parameters.
    """
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
        if keys == ["truth_distribution", "kind"] and node.get("kind") != value:
            spec["truth_distribution"] = {"kind": value}
        else:
            node[keys[-1]] = value
    return spec
