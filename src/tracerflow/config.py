"""Experiment configuration: JSON ingestion, validation, canonical hashing."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields

from .chain import MAX_EXACT_DEPTH


class ConfigError(ValueError):
    """Malformed or invalid configuration; message names the field path."""


@dataclass
class SpectrumConfig:
    dimension: int = 2
    truncation: int = 8
    sigma0: float = 1.0
    decay_p: float = 14.0
    projection: str = "incompressible"
    gamma_coeff: float = 1.0
    gamma_power: float = 2.0
    m: int = 3
    alpha: float = 0.5


@dataclass
class SimulationConfig:
    dt: float = 1e-3
    T: float = 10.0
    ensemble: int = 8
    record_every: int = 1
    seed: int = None  # required: no wall-clock seeding, ever


@dataclass
class ProbeConfig:
    observable: str = "bounded_lipschitz_of_norm"
    component: int = 0
    delta: float | None = None
    eps: float | None = None
    offsets: list = field(default_factory=lambda: [1.0, 0.5, 0.25, 0.125])
    horizons: list = field(default_factory=lambda: [2.5, 10.0])
    R: float = 1.0
    n: int = 1
    chain_x: list = field(default_factory=lambda: [1.0, 1.5, 2.0])
    chain_n_max: int = 12
    mc_paths: int = 20000


@dataclass
class ExperimentConfig:
    spectrum: SpectrumConfig = field(default_factory=SpectrumConfig)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    probe: ProbeConfig = field(default_factory=ProbeConfig)


# Documented top-level shorthands for quick configs.
_SHORTHAND = {"dimension": ("spectrum", "dimension"),
              "K": ("spectrum", "truncation"),
              "seed": ("simulation", "seed")}

_SECTION_ALIASES = {("spectrum", "K"): "truncation"}


def _coerce(path: str, value, expected):
    if expected is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer")
        return value
    if expected is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number")
        value = float(value)
        if not math.isfinite(value):
            raise ConfigError(f"{path}: must be finite")
        return value
    if expected is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string")
        return value
    if not isinstance(value, list):   # expected is list
        raise ConfigError(f"{path}: expected a list")
    return [_coerce(f"{path}[{i}]", v, float) for i, v in enumerate(value)]


_TYPES = {"int": int, "float": float, "str": str, "list": list}
# {section: {key: (type, nullable)}}, read off the annotations ("float | None")
_SCHEMA = {s.name: {f.name: (_TYPES[f.type.split(" | ")[0]], f.type.endswith(" | None"))
                    for f in fields(s.default_factory)}
           for s in fields(ExperimentConfig)}


def parse_config(text: str, seed: int | None = None) -> ExperimentConfig:
    """Parse and validate a JSON config document; unknown keys are rejected.

    seed, when given, replaces the document's seed or supplies a missing one.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    sections = {name: {} for name in _SCHEMA}

    def assign(sec, sub, value):
        if seed is not None and (sec, sub) == ("simulation", "seed"):
            return
        if sub in sections[sec]:
            raise ConfigError(f"{sec}.{sub} set twice")
        sections[sec][sub] = value

    for key, value in raw.items():
        if key in _SCHEMA:
            if not isinstance(value, dict):
                raise ConfigError(f"{key}: expected an object")
            for sub, sv in value.items():
                sub = _SECTION_ALIASES.get((key, sub), sub)
                if sub not in _SCHEMA[key]:
                    raise ConfigError(f"unknown key {key}.{sub}")
                assign(key, sub, sv)
        elif key in _SHORTHAND:
            sec, sub = _SHORTHAND[key]
            assign(sec, sub, value)
        else:
            raise ConfigError(f"unknown key {key}")
    if seed is not None:
        sections["simulation"]["seed"] = seed

    cfg = ExperimentConfig()
    for name, data in sections.items():
        target = getattr(cfg, name)
        for sub, value in data.items():
            expected, nullable = _SCHEMA[name][sub]
            if not (value is None and nullable):
                value = _coerce(f"{name}.{sub}", value, expected)
            setattr(target, sub, value)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    sp, sim, pr = cfg.spectrum, cfg.simulation, cfg.probe
    if sp.dimension < 1:
        raise ConfigError("spectrum.dimension: must be >= 1")
    if sp.truncation < 1:
        raise ConfigError("spectrum.truncation: must be >= 1")
    if sp.sigma0 <= 0:
        raise ConfigError("spectrum.sigma0: must be positive")
    if sp.gamma_coeff <= 0:
        raise ConfigError("spectrum.gamma_coeff: must be positive")
    if sp.gamma_power < 1:
        raise ConfigError("spectrum.gamma_power: must be >= 1")
    if sp.projection not in ("full", "incompressible", "potential"):
        raise ConfigError("spectrum.projection: must be full|incompressible|potential")
    if sp.projection == "incompressible" and sp.dimension < 2:
        # the projector orthogonal to k is zero in 1-D: a field without energy
        raise ConfigError("spectrum.projection: incompressible needs spectrum.dimension >= 2")
    if not 0 < sp.alpha < 1:
        raise ConfigError("spectrum.alpha: must lie in (0, 1)")
    if sp.m < 1:
        raise ConfigError("spectrum.m: must be >= 1")
    if sim.dt <= 0:
        raise ConfigError("simulation.dt: must be positive")
    if sim.T < sim.dt:
        raise ConfigError("simulation.T: must be >= simulation.dt")
    if abs(round(sim.T / sim.dt) * sim.dt - sim.T) > 1e-9 * sim.T:
        raise ConfigError(f"simulation.T: {sim.T} is not a multiple of simulation.dt {sim.dt}")
    if sim.ensemble < 1:
        raise ConfigError("simulation.ensemble: must be >= 1")
    if sim.record_every < 1:
        raise ConfigError("simulation.record_every: must be >= 1")
    if sim.seed is None:
        raise ConfigError("simulation.seed: required (wall-clock seeding is not allowed)")
    if sim.seed < 0:
        raise ConfigError("simulation.seed: must be >= 0")
    if pr.R < 0:
        raise ConfigError("probe.R: must be >= 0")
    if pr.n < 1:
        raise ConfigError("probe.n: must be >= 1")
    if pr.delta is not None and pr.delta <= 0:
        raise ConfigError("probe.delta: must be positive")
    if pr.eps is not None and pr.eps <= 0:
        raise ConfigError("probe.eps: must be positive")
    if any(h < 0 for h in pr.offsets) or sorted(pr.offsets, reverse=True) != pr.offsets:
        raise ConfigError("probe.offsets: must be nonnegative and non-increasing")
    if any(t <= 0 for t in pr.horizons):
        raise ConfigError("probe.horizons: must be positive")
    if len(pr.horizons) >= 2 and sorted(pr.horizons) != list(pr.horizons):
        raise ConfigError("probe.horizons: must be increasing")
    if not 1 <= pr.chain_n_max <= MAX_EXACT_DEPTH:
        raise ConfigError(f"probe.chain_n_max: must lie in [1, {MAX_EXACT_DEPTH}]")
    if not pr.chain_x:
        raise ConfigError("probe.chain_x: must not be empty")
    if pr.mc_paths < 2:
        raise ConfigError("probe.mc_paths: must be >= 2")


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical JSON form: sorted keys, minimal separators."""
    return json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))


def config_hash(cfg: ExperimentConfig) -> str:
    """64-bit hex digest of the canonical form; stable across processes."""
    digest = hashlib.blake2b(serialize_config(cfg).encode(), digest_size=8)
    return digest.hexdigest()

