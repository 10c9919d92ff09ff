"""Run configuration: schema, defaults, YAML loading, dotted overrides.

A RunConfig fully determines a run given the same build. Unknown keys are
rejected so typos cannot silently fall back to defaults. Each value must have
the type of its field's default and lie in the range RANGES declares for its
key, so a mistyped or out-of-range value is a ConfigError rather than a crash
deep inside a run.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import yaml

from .errors import ConfigError
from .losses import DISTILL_KINDS
from .nets import ArchConfig, ClassifierHead


@dataclass
class DataConfig:
    num_train_classes: int = 64
    num_test_classes: int = 16
    samples_per_class: int = 20
    latent_dim: int = 16
    noise_sigma: float = 0.15
    image_size: int = 16
    num_distractors: int = 500
    renderer_hidden: int = 64
    pairs_per_side: int = 300
    folds: int = 10


@dataclass
class ClassifierConfig:
    mode: str = "normalized"  # plain | normalized
    scale: float = 16.0


@dataclass
class TrainConfig:
    batch_size: int = 32
    teacher_epochs: int = 30
    student_epochs: int = 30
    learning_rate: float = 0.1
    momentum: float = 0.9
    decay_factor: float = 0.1
    decay_at: tuple[float, ...] = (0.6, 0.85)  # fractions of total steps


@dataclass
class DistillConfig:
    kind: str = "angular"  # none | l2 | angular
    lambda_n: float | None = None  # None -> kind default (angular 1.0, l2 0.001)
    final_stage_only: bool = False

    def resolved_lambda_n(self) -> float:
        if self.lambda_n is not None:
            return float(self.lambda_n)
        return {"angular": 1.0, "l2": 0.001, "none": 0.0}[self.kind]


@dataclass
class RunConfig:
    seed: int = 0
    output_dir: str = "runs/default"
    data: DataConfig = field(default_factory=DataConfig)
    arch: ArchConfig = field(default_factory=ArchConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    distill: DistillConfig = field(default_factory=DistillConfig)

    def validate(self) -> "RunConfig":
        """Check every key's type and range, then the rules that tie keys together."""
        keys = [("seed", self.seed, 0)] + [
            (f"{name}.{f.name}", getattr(getattr(self, name), f.name), f.default)
            for name in _SECTIONS
            for f in fields(getattr(self, name))
        ]
        for name, value, default in keys:
            allowed = RANGES.get(name)
            if not _admits(value, default, allowed):
                raise ConfigError(f"{name}: expected {_describe(default, allowed)}, got {value!r}")
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ConfigError(f"output_dir: expected a non-empty string, got {self.output_dir!r}")
        self.arch.validate()
        if self.data.pairs_per_side % self.data.folds != 0:
            raise ConfigError("data.pairs_per_side must be divisible by data.folds")
        if self.data.image_size != self.arch.input_size:
            raise ConfigError(
                f"data.image_size {self.data.image_size} != arch.input_size "
                f"{self.arch.input_size}"
            )
        return self


@dataclass(frozen=True)
class Interval:
    """The numbers from lo to hi; `ends` brackets them, "(" or ")" leaving that end out."""

    lo: float
    hi: float = math.inf
    ends: str = "[)"

    def __contains__(self, x) -> bool:
        above = self.lo <= x if self.ends[0] == "[" else self.lo < x
        below = x <= self.hi if self.ends[1] == "]" else x < self.hi
        return above and below

    def __str__(self) -> str:
        lo, hi = (v if isinstance(v, int) else f"{v:g}" for v in (self.lo, self.hi))
        return f"{self.ends[0]}{lo}, {hi}{self.ends[1]}"


# The admissible values of every key but output_dir and the booleans: an
# Interval (for a list key, the bound on each entry) or a tuple of choices.
# A float must also be finite.
RANGES = {
    "seed": Interval(-(2**63), 2**63),  # where rng.substream's 64-bit mask is one-to-one
    "data.num_train_classes": Interval(2),
    "data.num_test_classes": Interval(2),
    "data.samples_per_class": Interval(2),
    "data.latent_dim": Interval(2),
    "data.noise_sigma": Interval(0),
    "data.image_size": Interval(2),
    "data.num_distractors": Interval(0),
    "data.renderer_hidden": Interval(1),
    "data.pairs_per_side": Interval(1),
    "data.folds": Interval(2),
    "arch.input_size": Interval(2),
    "arch.in_channels": Interval(1, 1, "[]"),  # the renderer draws one channel
    "arch.num_stages": Interval(1),
    "arch.teacher_channels": Interval(1),
    "arch.student_channels": Interval(1),
    "arch.block_depth": Interval(1),
    "arch.embedding_dim": Interval(1),
    "classifier.mode": ClassifierHead.MODES,
    "classifier.scale": Interval(0, ends="()"),
    "train.batch_size": Interval(2),  # batch norm needs two samples
    "train.teacher_epochs": Interval(1),
    "train.student_epochs": Interval(1),
    "train.learning_rate": Interval(0, ends="()"),
    "train.momentum": Interval(0, 1),
    "train.decay_factor": Interval(0, 1, "(]"),
    "train.decay_at": Interval(0, 1, "[]"),
    "distill.kind": DISTILL_KINDS,
    "distill.lambda_n": Interval(0),
}

_SECTIONS = {
    "data": DataConfig,
    "arch": ArchConfig,
    "classifier": ClassifierConfig,
    "train": TrainConfig,
    "distill": DistillConfig,
}


def _admits(value, default, allowed) -> bool:
    """Whether `value` has the type of the key's `default` and lies in `allowed`."""
    if default is None:  # the one optional key, distill.lambda_n
        return value is None or _admits(value, 0.0, allowed)
    if isinstance(default, tuple):
        return isinstance(value, tuple) and all(_admits(v, default[0], allowed) for v in value)
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        # abs() <= max is false for nan, +-inf and an int too large for a float
        finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
        return finite and value in allowed
    return isinstance(value, type(default)) and value in allowed


def _describe(default, allowed) -> str:
    if default is None:
        return f"{_describe(0.0, allowed)} or null"
    if isinstance(default, tuple):
        return f"a list, each {_describe(default[0], allowed)}"
    if isinstance(default, bool):
        return "true or false"
    if isinstance(default, str):
        return "one of " + " | ".join(allowed)
    kind = "a finite number" if isinstance(default, float) else "an integer"
    return f"{kind} in {allowed}"


def _build_section(cls, tree: dict, prefix: str):
    names = {f.name for f in fields(cls)}
    for key in tree:
        if key not in names:
            raise ConfigError(f"unknown config key: {prefix}{key}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in tree.items()})


def config_from_tree(tree: dict) -> RunConfig:
    """Build a RunConfig from a nested dict, rejecting unknown keys."""
    if tree is None:
        tree = {}
    if not isinstance(tree, dict):
        raise ConfigError("config root must be a mapping")
    cfg = RunConfig()
    for key, value in tree.items():
        if key == "seed":
            cfg.seed = value
        elif key == "output_dir":
            cfg.output_dir = value
        elif key in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"config section {key!r} must be a mapping")
            setattr(cfg, key, _build_section(_SECTIONS[key], value, f"{key}."))
        else:
            raise ConfigError(f"unknown config key: {key}")
    return cfg.validate()


def load_config(path: str | Path | None) -> RunConfig:
    """Load YAML config from `path`, or pure defaults when path is None."""
    if path is None:
        return RunConfig().validate()
    blob = Path(path).read_bytes()
    try:
        tree = yaml.safe_load(blob)  # bytes, so that a file not in UTF-8 is a YAMLError
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return config_from_tree(tree)


def _parse_override_value(raw: str):
    try:
        return yaml.safe_load(raw)
    except yaml.YAMLError:
        return raw


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply dotted key=value overrides (values parsed as YAML scalars)."""
    tree = asdict(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        keys = dotted.strip().split(".")
        node = tree
        for k in keys[:-1]:
            if not isinstance(node, dict) or k not in node:
                raise ConfigError(f"unknown config key: {dotted}")
            node = node[k]
        if not isinstance(node, dict) or keys[-1] not in node:
            raise ConfigError(f"unknown config key: {dotted}")
        node[keys[-1]] = _parse_override_value(raw)
    return config_from_tree(tree)


def dump_config(cfg: RunConfig) -> str:
    """Effective config as YAML with every default materialized."""
    return yaml.safe_dump(asdict(cfg), sort_keys=True, default_flow_style=False)
