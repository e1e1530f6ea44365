"""Experiment configuration: geometry, network parameters, strict JSON schema.

Each config key is declared once, on its dataclass field (`_key`): the JSON
name, the default, and the validators that run whenever the dataclass is
built, whether by `parse_config`, by library code or by `dataclasses.replace`.
The field's annotation is the key's type; a tuple field is a list key.

All internal math runs on linear units (watts, meters); dB(m) keys are
converted exactly once here, at the parse boundary, and the conversion is
recorded so runs can echo it.
"""

# No `from __future__ import annotations`: `_coerce` reads each field's
# annotation as a type object.
import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Any, get_args, get_origin

import numpy as np

from .mathkit import QuadratureRule, gauss_laguerre

__all__ = [
    "ConfigError",
    "PowerParams",
    "GeometryConfig",
    "NetworkConfig",
    "ExperimentConfig",
    "EXPERIMENTS",
    "dbm_to_watts",
    "parse_config",
    "effective_dict",
]


class ConfigError(ValueError):
    """Invalid or inconsistent configuration input."""


EXPERIMENTS = (
    "validate",
    "mean-snr-vs-pf",
    "density-sweep",
    "association-compare",
    "ring-sweep",
)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _each(test, what):
    """A validator requiring test(x) of a value, or of every element of a list."""
    def check(key, value):
        for x in value if isinstance(value, tuple) else (value,):
            if not test(x):
                raise ConfigError(f"{key} must be {what}, got {x!r}")
    return check


_positive = _each(lambda x: x > 0, "positive")
_two_draws = _each(lambda x: x >= 2, ">= 2, the fewest draws with a standard error")
_shape = _each(lambda x: x >= 0.5, ">= 0.5")
# the cascade rule's Newton polish converges at every glq_order up to m_iu = 1000
_m_iu_ceiling = _each(lambda x: x <= 1000, "<= 1000")
_glq_order = _each(lambda x: 4 <= x <= 64, "in [4, 64]")
_seed = _each(lambda x: 0 <= x < 2**64, "in [0, 2**64)")


def _choice(*allowed):
    return _each(lambda x: x in allowed, f"one of {allowed}")


def _increasing(key, value):
    if any(a >= b for a, b in zip(value, value[1:])):
        raise ConfigError(f"{key} must be strictly increasing, got {list(value)}")


def _key(name: str, default, *checks):
    """The field of config key `name`: its default and the validators its value passes."""
    return field(default=default, metadata={"key": name, "checks": checks})


def _check_keys(obj) -> None:
    """Type-check (never rewriting) and validate every keyed field; lists must be nonempty."""
    for f in fields(obj):
        if "key" in f.metadata:
            key, value = f.metadata["key"], getattr(obj, f.name)
            if get_origin(f.type) is tuple and not isinstance(value, tuple):
                raise ConfigError(f"{key} must be a tuple, got {value!r}")
            _coerce(key, f.type, value)
            if isinstance(value, tuple) and not value:
                raise ConfigError(f"{key} must be a nonempty list")
            for check in f.metadata["checks"]:
                check(key, value)


@dataclass(frozen=True)
class PowerParams:
    """Transmit/amplification/noise powers, all in watts."""

    p_t: float = _key("p_t_w", 1.0, _positive)
    p_f: float = _key("p_f_w", 0.01, _positive)
    sigma2: float = _key("sigma2_w", 1e-11, _positive)
    sigma_f2: float = _key("sigma_f2_w", 1e-10, _positive)

    def __post_init__(self):
        _check_keys(self)


@dataclass(frozen=True)
class GeometryConfig:
    """Cell disc of radius l with the reflector ring [l_in, l_out] inside it."""

    l: float = _key("l_m", 200.0, _positive)
    l_in: float = _key("l_in_m", 100.0, _positive)
    l_out: float = _key("l_out_m", 130.0, _positive)
    m_irs: int = _key("m_irs", 16, _positive)
    n_elements: int = _key("n_elements", 64, _positive)

    def __post_init__(self):
        _check_keys(self)
        if not (self.l_in < self.l_out < self.l):
            raise ConfigError(
                f"ring radii must satisfy 0 < l_in < l_out < l, got "
                f"l_in={self.l_in}, l_out={self.l_out}, l={self.l}"
            )

    @property
    def s_total(self) -> float:
        return math.pi * self.l**2

    @property
    def s2(self) -> float:
        return math.pi * (self.l_out**2 - self.l_in**2)

    @property
    def lambda_irs(self) -> float:
        return self.m_irs / self.s2


@dataclass(frozen=True)
class NetworkConfig:
    """Everything the analytic and Monte-Carlo layers need about the network."""

    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    power: PowerParams = field(default_factory=PowerParams)
    alpha: float = _key("alpha", 3.0, _positive)
    epsilon_ref: float = _key("epsilon_ref", 1e-3, _positive)
    m_bu: float = _key("m_bu", 1.0, _shape)
    m_bi: float = _key("m_bi", 1.0, _shape)
    m_iu: float = _key("m_iu", 1.0, _shape, _m_iu_ceiling)
    glq_order: int = _key("glq_order", 20, _glq_order)
    distance_floor: float = _key("distance_floor_m", 1.0, _positive)
    k_ues: int = _key("k_ues", 50, _positive)

    def __post_init__(self):
        _check_keys(self)

    def at(self, **changes) -> "NetworkConfig":
        """This network with each named field changed in its section, via `replace`."""
        for name in ("geometry", "power"):
            section = getattr(self, name)
            changes[name] = replace(section, **{f.name: changes.pop(f.name)
                                                for f in fields(section) if f.name in changes})
        return replace(self, **changes)

    def rule(self) -> QuadratureRule:
        """The cascade mixture's Gauss rule, for the weight t^(m_iu-1) e^-t/Gamma(m_iu)."""
        return gauss_laguerre(self.glq_order, self.m_iu - 1.0)

    def path_gain(self, distance):
        """Channel power gain eps * max(d, floor)^-alpha, elementwise; a float for a scalar.

        Distances below the reference distance of epsilon_ref are clamped.
        """
        d = np.maximum(np.asarray(distance, dtype=float), self.distance_floor)
        gain = self.epsilon_ref * d ** -self.alpha
        return float(gain) if np.ndim(distance) == 0 else gain


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed run: network parameters plus experiment-level knobs.

    A tuple field is a list key; `pf_grid` and `density_m_list` must be
    strictly increasing, since their summaries read list positions.
    """

    network: NetworkConfig
    experiment: str = _key("experiment", "validate", _choice(*EXPERIMENTS))
    seed: int = _key("seed", 12345, _seed)
    tolerance: float = _key("tolerance", 1e-6, _positive)
    # fixed-distance evaluation points
    d_bu: float = _key("d_bu_m", 80.0, _positive)
    d_bi: float = _key("d_bi_m", 100.0, _positive)
    d_iu: float = _key("d_iu_m", 30.0, _positive)
    # mean-snr-vs-pf
    pf_grid: tuple[float, ...] = _key(
        "pf_grid_w", tuple(float(x) for x in np.logspace(-4, 1, 12)), _positive, _increasing)
    # density sweep
    n_total_elements: int = _key("n_total_elements", 512, _positive)
    density_m_list: tuple[int, ...] = _key(
        "density_m_list", (1, 2, 4, 8, 16, 32), _positive, _increasing)
    p_f_total: float = _key("p_f_total_w", 0.01, _positive)
    density_power_budget: str = _key(
        "density_power_budget", "split-total", _choice("split-total", "fixed-per-irs"))
    sweep_n_drops: int = _key("sweep_n_drops", 2000, _positive)
    sweep_n_fading: int = _key("sweep_n_fading", 2, _positive)
    # association comparison
    assoc_n_list: tuple[int, ...] = _key("assoc_n_list", (16, 32), _positive)
    assoc_n_drops: int = _key("assoc_n_drops", 600, _positive)
    assoc_threshold: float = _key("assoc_threshold", 0.9, _positive)
    # ring sweep
    ring_l_in_grid: tuple[float, ...] = _key("ring_l_in_grid_m", (60.0, 90.0, 120.0), _positive)
    ring_l_out_grid: tuple[float, ...] = _key(
        "ring_l_out_grid_m", (110.0, 130.0, 150.0), _positive)
    # validate
    validate_m_iu_list: tuple[float, ...] = _key(
        "validate_m_iu_list", (1, 2, 3, 4), _shape, _m_iu_ceiling)
    validate_n_list: tuple[int, ...] = _key("validate_n_list", (16, 64, 256), _positive)
    validate_d_bi_list: tuple[float, ...] = _key(
        "validate_d_bi_m", (80.0, 100.0, 130.0), _positive)
    validate_d_iu_list: tuple[float, ...] = _key(
        "validate_d_iu_m", (10.0, 30.0, 60.0), _positive)
    validate_p_f_list: tuple[float, ...] = _key(
        "validate_p_f_w", (0.001, 0.01, 0.1), _positive)
    mc_m_iu_list: tuple[float, ...] = _key("mc_m_iu_list", (1, 2), _shape, _m_iu_ceiling)
    n_mc_model: int = _key("n_mc_model", 1_000_000, _two_draws)
    n_mc_physical: int = _key("n_mc_physical", 1_000_000, _two_draws)
    conversions: tuple = ()

    def __post_init__(self):
        _check_keys(self)


_SECTIONS = (ExperimentConfig, NetworkConfig, GeometryConfig, PowerParams)
# config key -> (owning dataclass, field), from the fields that declare a key
_FIELDS = {f.metadata["key"]: (cls, f)
           for cls in _SECTIONS for f in fields(cls) if "key" in f.metadata}

# dBm alias -> watts key; converted before coercion and logged in `conversions`.
_DBM_ALIASES = {"sigma2_dbm": "sigma2_w", "sigma_f2_dbm": "sigma_f2_w"}


def _coerce(key: str, kind, value):
    """Type-check one value against its field's annotation, recursing into lists."""
    if get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a nonempty list, got {value!r}")
        return tuple(_coerce(key, get_args(kind)[0], x) for x in value)
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string, got {value!r}")
    elif isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    elif kind is float:
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
    return value


def _parse_override(item: str):
    if "=" not in item:
        raise ConfigError(f"override {item!r} is not KEY=VALUE")
    key, raw = item.split("=", 1)
    key = key.strip()
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def parse_config(path: str | None = None, overrides: list[str] | None = None,
                 experiment: str | None = None, seed: int | None = None,
                 tolerance: float | None = None) -> ExperimentConfig:
    """Build a fully validated ExperimentConfig from JSON, overrides and flags.

    Later sources win: the file, then KEY=VALUE overrides, then the explicit
    keyword flags; all pass the same validators. Unknown keys are rejected;
    noise powers may come in watts or dBm (one of the two, not both); every
    physical quantity must be positive and finite; geometry must satisfy
    l_in < l_out < l.
    """
    raw: dict[str, Any] = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read().strip()
        if text:
            loaded = json.loads(text)
            if not isinstance(loaded, dict):
                raise ConfigError("config file must contain a JSON object")
            raw.update(loaded)
    for item in overrides or []:
        key, value = _parse_override(item)
        raw[key] = value
    flags = {"experiment": experiment, "seed": seed, "tolerance": tolerance}
    raw.update({k: v for k, v in flags.items() if v is not None})

    unknown = sorted(set(raw) - set(_FIELDS) - set(_DBM_ALIASES))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    conversions = []
    for dbm_key, w_key in _DBM_ALIASES.items():
        if dbm_key not in raw:
            continue
        if w_key in raw:
            raise ConfigError(f"give {w_key} or {dbm_key}, not both")
        try:
            watts = dbm_to_watts(_coerce(dbm_key, float, raw.pop(dbm_key)))
        except OverflowError:
            raise ConfigError(f"{dbm_key} is too large") from None
        raw[w_key] = watts
        conversions.append(f"{dbm_key} -> {w_key}={watts:.6g}")

    sections: dict[type, dict[str, Any]] = {cls: {} for cls in _SECTIONS}
    for key, value in raw.items():
        cls, f = _FIELDS[key]
        sections[cls][f.name] = _coerce(key, f.type, value)
    network = NetworkConfig(
        geometry=GeometryConfig(**sections[GeometryConfig]),
        power=PowerParams(**sections[PowerParams]),
        **sections[NetworkConfig],
    )
    return ExperimentConfig(network=network, conversions=tuple(conversions),
                            **sections[ExperimentConfig])


def effective_dict(cfg: ExperimentConfig) -> dict:
    """Flat, JSON-ready view of the effective configuration (linear units)."""
    net = cfg.network
    objects = {ExperimentConfig: cfg, NetworkConfig: net,
               GeometryConfig: net.geometry, PowerParams: net.power}
    out = {}
    for key, (cls, f) in _FIELDS.items():
        value = getattr(objects[cls], f.name)
        out[key] = list(value) if isinstance(value, tuple) else value
    return out
