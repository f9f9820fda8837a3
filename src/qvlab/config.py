"""Experiment configuration: one structured file, flag overrides on top.

Supports JSON and YAML by extension; precedence is flags > file > defaults.
The YAML parser is imported only to read a YAML file, so a run configured
from JSON or flags never loads it.
Configs round-trip losslessly through to_dict/from_dict, and every run
embeds the resolved config in its report for replayability.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigurationError, check_numbers
from .generators import GeneratorSpec, parse_box

FORMATS = ("csv", "json")

# the generator default: ExperimentConfig.__new__ puts a fresh {} in its place,
# so no two configs share one mutable mapping
_FRESH_DICT = object()


class _Fields(NamedTuple):
    experiment: str = "tanaka"
    generator: dict = _FRESH_DICT
    function: str = "abs"
    theta: str = "box(0.0, 1.0, -1.0, 1.0)"
    l_min: int = 6
    l_max: int = 12
    n_paths: int = 200
    seed: int = 12345
    jump_threshold: float = float("inf")
    pass_fraction: float = 0.1
    sigma_mult: float = 3.0
    ucp_eps: float = 0.1
    n_t: int = 256
    n_x: int = 64
    out_dir: str = "out"
    formats: tuple = FORMATS
    workers: int = 1


class ExperimentConfig(_Fields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        cfg = super().__new__(cls, *args, **kwargs)
        return cfg._replace(generator={}) if cfg.generator is _FRESH_DICT else cfg

    def generator_spec(self) -> GeneratorSpec:
        gen = dict(self.generator)
        kind = gen.pop("kind", "brownian")
        if "seed" in gen:
            raise ConfigurationError(
                "generator.seed is not a config field: set the seed with the top-level seed key"
            )
        try:
            spec = GeneratorSpec(kind=kind, seed=self.seed, **gen)
        except TypeError as exc:
            raise ConfigurationError(f"bad generator field: {exc}") from None
        spec.validate()
        return spec

    def validate(self) -> None:
        check_numbers(
            self,
            ints=("l_min", "l_max", "n_paths", "seed", "n_t", "n_x", "workers"),
            reals=("jump_threshold", "pass_fraction", "sigma_mult", "ucp_eps"),
        )
        for name in ("experiment", "function", "theta", "out_dir"):
            value = getattr(self, name)
            if not (isinstance(value, str) or (name == "function" and value is None)):
                raise ConfigurationError(f"{name} must be a string, got {value!r}")
        parse_box(self.theta)
        if not isinstance(self.generator, dict):
            raise ConfigurationError(f"generator must be a mapping, got {self.generator!r}")
        if not isinstance(self.formats, tuple) or not all(f in FORMATS for f in self.formats):
            raise ConfigurationError(f"formats must be a list of {list(FORMATS)}, got {self.formats!r}")
        if self.l_min < 0:
            raise ConfigurationError("l_min must be >= 0")
        if self.l_min > self.l_max:
            raise ConfigurationError("l_min must be <= l_max")
        for name in ("n_paths", "n_t", "n_x", "workers"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if not (0.0 < self.pass_fraction < 1.0):
            raise ConfigurationError("pass_fraction must lie in (0, 1)")
        for name in ("sigma_mult", "ucp_eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigurationError(f"{name} must be finite and >= 0, got {value!r}")
        if not (self.jump_threshold >= 0.0):  # NaN fails; inf means no threshold
            raise ConfigurationError(f"jump_threshold must be >= 0, got {self.jump_threshold!r}")
        self.generator_spec()

    def to_dict(self) -> dict:
        d = self._asdict()
        d["generator"] = dict(self.generator)
        d["formats"] = list(self.formats)
        return d

    def report_dict(self) -> dict:
        """Config echo for reports: identifies the experiment, so execution
        details (worker count, output directory) are omitted."""
        d = self.to_dict()
        d.pop("workers")
        d.pop("out_dir")
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - set(cls._fields)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown, key=repr)}")
        data = dict(data)
        if isinstance(data.get("formats"), list):
            data["formats"] = tuple(data["formats"])
        if "jump_threshold" in data and data["jump_threshold"] is None:
            data["jump_threshold"] = float("inf")
        return cls(**data)


def load_config(path: str) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"config file not found: {path}")
    text = p.read_text()
    if p.suffix in (".yaml", ".yml"):
        import yaml

        parse, malformed = yaml.safe_load, yaml.YAMLError
    else:
        parse, malformed = json.loads, json.JSONDecodeError
    try:
        data = parse(text)
    except malformed as exc:
        raise ConfigurationError(f"malformed config {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"config root must be a mapping: {path}")
    return ExperimentConfig.from_dict(data)


def apply_overrides(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    changes = {k: v for k, v in overrides.items() if v is not None}
    if not changes:
        return cfg
    return cfg._replace(**changes)
