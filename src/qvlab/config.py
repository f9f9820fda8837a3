"""Experiment configuration: one structured file, flag overrides on top.

Supports JSON and YAML by extension; precedence is flags > file > defaults.
The YAML parser is imported only to read a YAML file, so a run configured
from JSON or flags never loads it.
Configs round-trip losslessly through to_dict/from_dict, and every run
embeds the resolved config in its report for replayability.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .errors import ConfigurationError
from .generators import KINDS, GeneratorSpec


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "tanaka"
    generator: dict = field(default_factory=dict)
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
    formats: tuple = ("csv", "json")
    workers: int = 1

    def generator_spec(self) -> GeneratorSpec:
        gen = dict(self.generator)
        kind = gen.pop("kind", "brownian")
        if kind not in KINDS:
            raise ConfigurationError(f"unknown generator kind {kind!r}")
        try:
            spec = GeneratorSpec(kind=kind, seed=self.seed, **gen)
        except TypeError as exc:
            raise ConfigurationError(f"bad generator field: {exc}") from None
        spec.validate()
        return spec

    def validate(self) -> None:
        if self.l_min > self.l_max:
            raise ConfigurationError("l_min must be <= l_max")
        if self.n_paths < 1:
            raise ConfigurationError("n_paths must be >= 1")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if not (0.0 < self.pass_fraction < 1.0):
            raise ConfigurationError("pass_fraction must lie in (0, 1)")
        for fmt in self.formats:
            if fmt not in ("csv", "json"):
                raise ConfigurationError(f"unknown format {fmt!r}")
        self.generator_spec()

    def to_dict(self) -> dict:
        d = asdict(self)
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
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        data = dict(data)
        if "formats" in data:
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
    return replace(cfg, **changes)
