"""Experiment configuration: geometry, network parameters, strict JSON schema.

All internal math runs on linear units (watts, meters); dB(m) keys are
converted exactly once here, at the parse boundary, and the conversion is
recorded so runs can echo it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .channel import PowerParams
from .mathkit import QuadratureRule, gauss_laguerre

__all__ = [
    "ConfigError",
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


@dataclass(frozen=True)
class GeometryConfig:
    """Cell disc of radius l with the reflector ring [l_in, l_out] inside it."""

    l: float = 200.0
    l_in: float = 100.0
    l_out: float = 130.0
    m_irs: int = 16
    n_elements: int = 64

    def __post_init__(self):
        if not (0.0 < self.l_in < self.l_out < self.l):
            raise ConfigError(
                f"ring radii must satisfy 0 < l_in < l_out < l, got "
                f"l_in={self.l_in}, l_out={self.l_out}, l={self.l}"
            )
        if self.m_irs < 1 or self.n_elements < 1:
            raise ConfigError("m_irs and n_elements must be >= 1")

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
    alpha: float = 3.0
    epsilon_ref: float = 1e-3
    m_bu: float = 1.0
    m_bi: float = 1.0
    m_iu: float = 1.0
    glq_order: int = 20
    distance_floor: float = 1.0
    k_ues: int = 50

    def rule(self) -> QuadratureRule:
        """The cascade mixture's Laguerre rule; order n is exact only for m_iu <= 2n - 1."""
        if self.m_iu > 2 * self.glq_order - 1:
            need = math.ceil((self.m_iu + 1) / 2)
            raise ConfigError(
                f"m_iu={self.m_iu:g} needs glq_order >= {need}, got glq_order={self.glq_order}"
                if need <= 64 else f"m_iu={self.m_iu:g} exceeds 127, the largest m_iu any "
                "analytic route carries (glq_order <= 64)")
        return gauss_laguerre(self.glq_order)

    def path_gain(self, distance):
        """Channel power gain eps * max(d, floor)^-alpha, elementwise; a float for a scalar.

        Distances below the reference distance of epsilon_ref are clamped.
        """
        d = np.maximum(np.asarray(distance, dtype=float), self.distance_floor)
        gain = self.epsilon_ref * d ** -self.alpha
        return float(gain) if np.ndim(distance) == 0 else gain


@dataclass
class ExperimentConfig:
    """A parsed run: network parameters plus experiment-level knobs."""

    network: NetworkConfig
    experiment: str = "validate"
    seed: int = 12345
    threads: int = 1
    tolerance: float = 1e-6
    # fixed-distance evaluation points
    d_bu: float = 80.0
    d_bi: float = 100.0
    d_iu: float = 30.0
    # mean-snr-vs-pf
    pf_grid: tuple = tuple(float(x) for x in np.logspace(-4, 1, 12))
    # density sweep
    n_total_elements: int = 512
    density_m_list: tuple = (1, 2, 4, 8, 16, 32)
    p_f_total: float = 0.01
    density_power_budget: str = "split-total"
    sweep_n_drops: int = 2000
    sweep_n_fading: int = 2
    # association comparison
    assoc_n_list: tuple = (16, 32)
    assoc_n_drops: int = 600
    assoc_threshold: float = 0.9
    # ring sweep
    ring_l_in_grid: tuple = (60.0, 90.0, 120.0)
    ring_l_out_grid: tuple = (110.0, 130.0, 150.0)
    # validate
    validate_m_iu_list: tuple = (1, 2, 3, 4)
    validate_n_list: tuple = (16, 64, 256)
    validate_d_bi_list: tuple = (80.0, 100.0, 130.0)
    validate_d_iu_list: tuple = (10.0, 30.0, 60.0)
    validate_p_f_list: tuple = (0.001, 0.01, 0.1)
    mc_m_iu_list: tuple = (1, 2)
    n_mc_model: int = 1_000_000
    n_mc_physical: int = 1_000_000
    conversions: tuple = ()


def _positive(key, v):
    if not v > 0:
        raise ConfigError(f"{key} must be positive, got {v}")


def _two_draws(key, v):
    if v < 2:
        raise ConfigError(f"{key} must be >= 2, the fewest draws with a standard error, got {v}")


def _shape(key, v):
    if v < 0.5:
        raise ConfigError(f"{key} must be >= 0.5, got {v}")


def _glq_order(key, v):
    if not (4 <= v <= 64):
        raise ConfigError(f"{key} must be in [4, 64], got {v}")


def _choice(*allowed):
    def check(key, v):
        if v not in allowed:
            raise ConfigError(f"{key} must be one of {allowed}, got {v!r}")
    return check


# One row per key: (key, type, validator, target "section.field"). Defaults
# live on the dataclasses. List types are (list, element type); a list must be
# nonempty and its validator applies to every element.
_KEYS: tuple[tuple[str, Any, Any, str], ...] = (
    ("experiment", str, _choice(*EXPERIMENTS), "cfg.experiment"),
    ("seed", int, None, "cfg.seed"),
    ("threads", int, _positive, "cfg.threads"),
    ("tolerance", float, _positive, "cfg.tolerance"),
    ("l_m", float, _positive, "geometry.l"),
    ("l_in_m", float, _positive, "geometry.l_in"),
    ("l_out_m", float, _positive, "geometry.l_out"),
    ("m_irs", int, _positive, "geometry.m_irs"),
    ("n_elements", int, _positive, "geometry.n_elements"),
    ("alpha", float, _positive, "network.alpha"),
    ("epsilon_ref", float, _positive, "network.epsilon_ref"),
    ("p_t_w", float, _positive, "power.p_t"),
    ("p_f_w", float, _positive, "power.p_f"),
    ("sigma2_w", float, _positive, "power.sigma2"),
    ("sigma_f2_w", float, _positive, "power.sigma_f2"),
    ("m_bu", float, _shape, "network.m_bu"),
    ("m_bi", float, _shape, "network.m_bi"),
    ("m_iu", float, _shape, "network.m_iu"),
    ("glq_order", int, _glq_order, "network.glq_order"),
    ("distance_floor_m", float, _positive, "network.distance_floor"),
    ("k_ues", int, _positive, "network.k_ues"),
    ("d_bu_m", float, _positive, "cfg.d_bu"),
    ("d_bi_m", float, _positive, "cfg.d_bi"),
    ("d_iu_m", float, _positive, "cfg.d_iu"),
    ("pf_grid_w", (list, float), _positive, "cfg.pf_grid"),
    ("n_total_elements", int, _positive, "cfg.n_total_elements"),
    ("density_m_list", (list, int), _positive, "cfg.density_m_list"),
    ("p_f_total_w", float, _positive, "cfg.p_f_total"),
    ("density_power_budget", str, _choice("split-total", "fixed-per-irs"),
     "cfg.density_power_budget"),
    ("sweep_n_drops", int, _positive, "cfg.sweep_n_drops"),
    ("sweep_n_fading", int, _positive, "cfg.sweep_n_fading"),
    ("assoc_n_list", (list, int), _positive, "cfg.assoc_n_list"),
    ("assoc_n_drops", int, _positive, "cfg.assoc_n_drops"),
    ("assoc_threshold", float, _positive, "cfg.assoc_threshold"),
    ("ring_l_in_grid_m", (list, float), _positive, "cfg.ring_l_in_grid"),
    ("ring_l_out_grid_m", (list, float), _positive, "cfg.ring_l_out_grid"),
    ("validate_m_iu_list", (list, int), _positive, "cfg.validate_m_iu_list"),
    ("validate_n_list", (list, int), _positive, "cfg.validate_n_list"),
    ("validate_d_bi_m", (list, float), _positive, "cfg.validate_d_bi_list"),
    ("validate_d_iu_m", (list, float), _positive, "cfg.validate_d_iu_list"),
    ("validate_p_f_w", (list, float), _positive, "cfg.validate_p_f_list"),
    ("mc_m_iu_list", (list, int), _positive, "cfg.mc_m_iu_list"),
    ("n_mc_model", int, _two_draws, "cfg.n_mc_model"),
    ("n_mc_physical", int, _two_draws, "cfg.n_mc_physical"),
)
_ROWS = {key: (kind, check, target.split(".")) for key, kind, check, target in _KEYS}

# dBm alias -> watts key; converted before coercion and logged in `conversions`.
_DBM_ALIASES = {"sigma2_dbm": "sigma2_w", "sigma_f2_dbm": "sigma_f2_w"}


def _coerce(key: str, kind, check, value):
    """Type-check one value (recursing into lists) and run its validator."""
    if isinstance(kind, tuple):
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{key} must be a nonempty list, got {value!r}")
        return tuple(_coerce(key, kind[1], check, x) for x in value)
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
    if check is not None:
        check(key, value)
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
                 threads: int | None = None,
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
    flags = {"experiment": experiment, "seed": seed, "threads": threads,
             "tolerance": tolerance}
    raw.update({k: v for k, v in flags.items() if v is not None})

    unknown = sorted(set(raw) - set(_ROWS) - set(_DBM_ALIASES))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    conversions = []
    for dbm_key, w_key in _DBM_ALIASES.items():
        if dbm_key not in raw:
            continue
        if w_key in raw:
            raise ConfigError(f"give {w_key} or {dbm_key}, not both")
        try:
            watts = dbm_to_watts(_coerce(dbm_key, float, None, raw.pop(dbm_key)))
        except OverflowError:
            raise ConfigError(f"{dbm_key} is too large") from None
        raw[w_key] = watts
        conversions.append(f"{dbm_key} -> {w_key}={watts:.6g}")

    sections: dict[str, dict[str, Any]] = {
        s: {} for s in ("cfg", "network", "geometry", "power")
    }
    for key, value in raw.items():
        kind, check, (section, name) = _ROWS[key]
        sections[section][name] = _coerce(key, kind, check, value)
    network = NetworkConfig(
        geometry=GeometryConfig(**sections["geometry"]),
        power=PowerParams(**sections["power"]),
        **sections["network"],
    )
    return ExperimentConfig(network=network, conversions=tuple(conversions),
                            **sections["cfg"])


def effective_dict(cfg: ExperimentConfig) -> dict:
    """Flat, JSON-ready view of the effective configuration (linear units)."""
    net = cfg.network
    objects = {"cfg": cfg, "network": net, "geometry": net.geometry, "power": net.power}
    out = {}
    for key, (kind, _, (section, name)) in _ROWS.items():
        value = getattr(objects[section], name)
        out[key] = list(value) if isinstance(kind, tuple) else value
    return out
