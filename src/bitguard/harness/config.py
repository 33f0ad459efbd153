"""Experiment configuration: file loading, environment overrides, hashing.

A config is read from three sources, each applied over the one before:
the config file, then BITGUARD_<SECTION>_<FIELD> variables, then explicit
overrides.  All three name a field the same way, "section.name", "seeds"
or "out_dir", and set it through one resolver (_set), which rejects an
unknown name or a value that does not have the field's declared type.
"""

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List, Optional, Union, get_args, get_origin

from ..attacker import GRAD_STEP_UNITS
from ..errors import ConfigError
from .datasets import DATASET_KINDS

ENV_PREFIX = "BITGUARD_"


def experiment_fields(data: dict) -> dict:
    """A config dict without out_dir: what names the experiment, not where it is written."""
    return {k: v for k, v in data.items() if k != "out_dir"}


def config_digest(data: dict) -> str:
    """Stable digest of a config's canonical JSON form, out_dir left out."""
    canon = json.dumps(experiment_fields(data), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


@dataclass
class ModelConfig:
    bits: int = 8
    hw: int = 12
    classes: int = 10
    epochs: int = 30
    batch_size: int = 64
    lr: float = 3e-3
    floor: float = 0.90


@dataclass
class DatasetConfig:
    kind: str = "prototype"
    train: int = 2000
    val: int = 500
    test: int = 500
    attack: int = 16
    noise: float = 0.25
    seed: int = 7  # the dataset is the shared benchmark; run seeds vary elsewhere
    idx_images: Optional[str] = None
    idx_labels: Optional[str] = None


@dataclass
class AttackerConfig:
    max_flips: int = 100
    inference_units: List[int] = field(default_factory=lambda: [20, 80, 160, 400, 900])
    batch_size: int = 16
    batch_grid: List[int] = field(default_factory=list)  # empty = [batch_size]
    grad_samples: int = 1
    noise_std: float = 0.0


@dataclass
class DefenseConfig:
    alpha_grid: List[float] = field(default_factory=lambda: [0.02, 0.01, 0.005, 0.0025])
    eta_grid: List[float] = field(default_factory=lambda: [0.01, 0.015, 0.02])
    trials: int = 4
    emulations: int = 3
    target_drop: float = 0.03


@dataclass
class ExperimentConfig:
    """Full description of one experiment run."""

    model: ModelConfig = field(default_factory=ModelConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    attacker: AttackerConfig = field(default_factory=AttackerConfig)
    defense: DefenseConfig = field(default_factory=DefenseConfig)
    seeds: List[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])
    out_dir: str = "runs"

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        """`config_digest` of this config."""
        return config_digest(self.to_dict())

    def validate(self) -> "ExperimentConfig":
        """Raise ConfigError naming every missing or out-of-range value; return self."""
        m, ds, d, a = self.model, self.dataset, self.defense, self.attacker
        step = GRAD_STEP_UNITS * a.grad_samples  # units one gradient step costs
        least = {"model.bits": (m.bits, 2), "model.classes": (m.classes, 2),
                 "attacker.max_flips": (a.max_flips, 1),
                 "attacker.batch_size": (a.batch_size, 1), "defense.trials": (d.trials, 1),
                 "attacker.grad_samples": (a.grad_samples, 1), "defense.emulations": (d.emulations, 1),
                 "model.hw": (m.hw, 4), "model.epochs": (m.epochs, 1), "model.batch_size": (m.batch_size, 1),
                 "dataset.train": (ds.train, 1), "dataset.val": (ds.val, 1),
                 "dataset.test": (ds.test, 0), "dataset.seed": (ds.seed, 0),
                 **{f"seeds[{i}]": (s, 0) for i, s in enumerate(self.seeds)},
                 "dataset.attack": (ds.attack, max(a.batch_grid or [a.batch_size])),
                 **{f"attacker.batch_grid[{i}]": (b, 1) for i, b in enumerate(a.batch_grid)},
                 **{f"attacker.inference_units[{i}]": (u, step) for i, u in enumerate(a.inference_units)}}
        bad = [f"{name} must be nonempty" for name, grid in (
            ("seeds", self.seeds), ("attacker.inference_units", a.inference_units),
            ("defense.alpha_grid", d.alpha_grid), ("defense.eta_grid", d.eta_grid)) if not grid]
        bad += [f"{name} must be an integer >= {low}, got {v!r}"
                for name, (v, low) in least.items() if not isinstance(v, int) or v < low]
        bad += [f"defense.alpha_grid entry {x!r} outside [0, 1]"
                for x in d.alpha_grid if not 0 <= x <= 1]
        bad += [f"defense.eta_grid entry {x!r} is not > 0" for x in d.eta_grid if not x > 0]
        # the plan stage tells plans apart by their (alpha, eta) value
        bad += [f"{name} repeats {x!r}"
                for name, grid in (("defense.alpha_grid", d.alpha_grid),
                                   ("defense.eta_grid", d.eta_grid))
                for i, x in enumerate(grid) if x in grid[:i]]
        if m.hw % 4:
            bad.append(f"model.hw must be a multiple of 4 (two pool stages), got {m.hw}")
        bad += [f"{section}.{name} must be finite, got {getattr(part, name)!r}"
                for section, part in (("model", m), ("dataset", ds), ("attacker", a), ("defense", d))
                for name, f in part.__dataclass_fields__.items()
                if f.type is float and not math.isfinite(getattr(part, name))]
        if m.lr <= 0:
            bad.append(f"model.lr must be > 0, got {m.lr!r}")
        if a.noise_std < 0:
            bad.append(f"attacker.noise_std must be >= 0, got {a.noise_std!r}")
        if ds.noise < 0:
            bad.append(f"dataset.noise must be >= 0, got {ds.noise!r}")
        if self.dataset.kind not in DATASET_KINDS:
            bad.append(f"unknown dataset.kind {self.dataset.kind!r}")
        if bad:
            raise ConfigError("; ".join(bad))
        if self.dataset.kind == "idx":
            for label, p in (("idx_images", self.dataset.idx_images),
                             ("idx_labels", self.dataset.idx_labels)):
                if p is None:
                    raise ConfigError(f"dataset.kind idx requires dataset.{label}")
                if not Path(p).is_file():
                    raise ConfigError(f"{label} file not found: {p}")
        return self


_SECTIONS = {
    "model": ModelConfig,
    "dataset": DatasetConfig,
    "attacker": AttackerConfig,
    "defense": DefenseConfig,
}
_TOP = ("seeds", "out_dir")  # the fields outside any section


def _fits(value, kind) -> bool:
    """Whether value has the declared type kind; an int is a float, a bool no number."""
    if get_origin(kind) is list:
        return isinstance(value, list) and all(_fits(v, get_args(kind)[0]) for v in value)
    if get_origin(kind) is Union:
        return any(_fits(value, k) for k in get_args(kind))
    if kind in (int, float):
        return isinstance(value, (int, kind)) and not isinstance(value, bool)
    return isinstance(value, kind)


def _as(value, kind):
    """value, which fits kind, with a float field's number and each entry of
    a float list made a float: an int written there then hashes as the
    float the environment parses."""
    if get_origin(kind) is list:
        return [_as(v, get_args(kind)[0]) for v in value]
    return float(value) if kind is float else value


def _field(cfg: ExperimentConfig, key: str):
    """The object holding the field key names ("section.name", "seeds" or
    "out_dir") and the field's declared type; ConfigError for any other key."""
    section, _, name = key.rpartition(".")
    owner = getattr(cfg, section) if section in _SECTIONS else cfg if key in _TOP else None
    if owner is None or name not in owner.__dataclass_fields__:
        raise ConfigError(f"unknown config key {key!r}")
    return owner, owner.__dataclass_fields__[name].type


def _set(cfg: ExperimentConfig, key: str, value) -> None:
    """Set the field key names (see _field) to value, which must have its declared type."""
    owner, kind = _field(cfg, key)
    if not _fits(value, kind):
        shown = kind.__name__ if isinstance(kind, type) else str(kind).replace("typing.", "")
        raise ConfigError(f"{key} must be {shown}, got {value!r}")
    setattr(owner, key.rpartition(".")[2], _as(value, kind))


def _build(data: dict) -> ExperimentConfig:
    """The config a file's parsed contents describe, defaults elsewhere."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    cfg = ExperimentConfig()
    for key, value in data.items():
        if key not in _SECTIONS:
            _set(cfg, key, value)
        elif not isinstance(value, dict):
            raise ConfigError(f"section {key!r} must be a mapping")
        else:
            for name, v in value.items():
                _set(cfg, f"{key}.{name}", v)
    return cfg


def _parse(text: str, kind):
    """An environment string as a value of the declared type kind; lists are
    comma separated, and a type that is no number or list takes the text."""
    if get_origin(kind) is list:
        return [_parse(s, get_args(kind)[0]) for s in text.split(",") if s.strip()]
    if kind not in (int, float):
        return text
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{text!r} is not a valid {kind.__name__}") from None


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None,
                environ=None) -> ExperimentConfig:
    """Read a YAML or JSON config file, then apply env and explicit overrides.

    environ (default os.environ) is read for BITGUARD_<SECTION>_<FIELD>
    variables, each parsed as its field's declared type whatever the file
    put there.  An unknown name, a file or override value that does not
    have its field's declared type, an unparsable variable and a value out
    of range raise ConfigError.
    """
    data: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        text = p.read_text()
        if p.suffix == ".json":
            parse, errors = json.loads, json.JSONDecodeError
        else:
            import yaml  # slow to import, and only a YAML file needs it
            parse, errors = (lambda t: yaml.safe_load(t) or {}), yaml.YAMLError
        try:
            data = parse(text)
        except errors as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    cfg = _build(data)
    env = os.environ if environ is None else environ
    for name, text in env.items():
        if name.startswith(ENV_PREFIX):
            key = name[len(ENV_PREFIX):].lower()
            key = key if key in _TOP else key.replace("_", ".", 1)
            try:
                _set(cfg, key, _parse(text, _field(cfg, key)[1]))
            except ConfigError as exc:
                raise ConfigError(f"{name}: {exc}") from None
    for key, value in (overrides or {}).items():
        _set(cfg, key, value)
    return cfg.validate()
