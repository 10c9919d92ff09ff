"""Run configuration: schema, defaults, YAML loading, dotted overrides.

A RunConfig fully determines a run given the same build. Unknown keys are
rejected so typos cannot silently fall back to defaults, and each value must
have the type of its field's default, so a mistyped value is a ConfigError
rather than a crash deep inside a run.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, field, fields
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
        self.arch.validate()
        if self.classifier.mode not in ClassifierHead.MODES:
            raise ConfigError(f"classifier.mode: unknown value {self.classifier.mode!r}")
        if self.distill.kind not in DISTILL_KINDS:
            raise ConfigError(f"distill.kind: unknown value {self.distill.kind!r}")
        if self.train.batch_size < 2:
            raise ConfigError("train.batch_size must be >= 2 (batch norm needs it)")
        if self.train.learning_rate <= 0:
            raise ConfigError("train.learning_rate must be positive")
        if not 0 <= self.train.momentum < 1:
            raise ConfigError(f"train.momentum must be in [0, 1), got {self.train.momentum}")
        if not all(0 <= f <= 1 for f in self.train.decay_at):
            raise ConfigError(f"train.decay_at entries must lie in [0, 1]: {self.train.decay_at}")
        if min(self.train.teacher_epochs, self.train.student_epochs) < 1:
            raise ConfigError("train.teacher_epochs and train.student_epochs must be >= 1")
        if self.classifier.scale <= 0:
            raise ConfigError("classifier.scale must be positive")
        if self.data.num_train_classes < 2 or self.data.num_test_classes < 2:
            raise ConfigError("data: class counts must be >= 2")
        if self.data.samples_per_class < 2:
            raise ConfigError("data.samples_per_class must be >= 2")
        if self.data.pairs_per_side < 1:
            raise ConfigError("data.pairs_per_side must be >= 1")
        if self.data.folds < 2:
            raise ConfigError("data.folds must be >= 2")
        if self.data.pairs_per_side % self.data.folds != 0:
            raise ConfigError("data.pairs_per_side must be divisible by data.folds")
        if self.data.image_size != self.arch.input_size:
            raise ConfigError(
                f"data.image_size {self.data.image_size} != arch.input_size "
                f"{self.arch.input_size}"
            )
        return self

    def canonical(self) -> dict:
        tree = asdict(self)
        tree["arch"] = self.arch.canonical()
        tree["train"]["decay_at"] = list(self.train.decay_at)
        return tree


_SECTIONS = {
    "data": DataConfig,
    "arch": ArchConfig,
    "classifier": ClassifierConfig,
    "train": TrainConfig,
    "distill": DistillConfig,
}
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _same_type(value, default) -> bool:
    """Whether `value` has the scalar type of `default`; a float also takes an int."""
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _check_value(name: str, value, default) -> None:
    """Raise ConfigError unless `value` fits the type of the field's `default`."""
    if default is None:
        # the one optional field, distill.lambda_n, is a number or null
        if value is None or _same_type(value, 0.0):
            return
        raise ConfigError(f"{name}: expected a number or null, got {value!r}")
    if isinstance(default, tuple):
        element = default[0]
        if isinstance(value, tuple) and all(_same_type(v, element) for v in value):
            return
        raise ConfigError(
            f"{name}: expected a list, each {_TYPE_NAMES[type(element)]}, got {value!r}"
        )
    if not _same_type(value, default):
        raise ConfigError(f"{name}: expected {_TYPE_NAMES[type(default)]}, got {value!r}")


def _build_section(cls, tree: dict, prefix: str):
    defaults = {
        f.name: f.default_factory() if f.default is MISSING else f.default for f in fields(cls)
    }
    kwargs = {}
    for key, value in tree.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key: {prefix}{key}")
        if isinstance(value, dict):
            raise ConfigError(f"{prefix}{key}: expected a scalar or list")
        if isinstance(value, list):
            value = tuple(value)
        _check_value(f"{prefix}{key}", value, defaults[key])
        kwargs[key] = value
    return cls(**kwargs)


def config_from_tree(tree: dict) -> RunConfig:
    """Build a RunConfig from a nested dict, rejecting unknown keys."""
    if tree is None:
        tree = {}
    if not isinstance(tree, dict):
        raise ConfigError("config root must be a mapping")
    cfg = RunConfig()
    for key, value in tree.items():
        if key == "seed":
            _check_value(key, value, cfg.seed)
            cfg.seed = value
        elif key == "output_dir":
            cfg.output_dir = str(value)
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
    text = Path(path).read_text()
    try:
        tree = yaml.safe_load(text)
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
    tree = cfg.canonical()
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
    return yaml.safe_dump(cfg.canonical(), sort_keys=True, default_flow_style=False)
