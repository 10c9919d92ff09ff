"""Config loading, validation, unknown-key rejection, and overrides."""

import re
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path

import pytest
import yaml

from spherekd.config import (
    RANGES,
    RunConfig,
    apply_overrides,
    config_from_tree,
    dump_config,
    load_config,
)
from spherekd.errors import ConfigError


class TestDefaults:
    def test_defaults_validate(self):
        cfg = RunConfig().validate()
        assert cfg.arch.teacher_channels == (32, 64, 128, 256)
        assert cfg.arch.student_channels == (8, 16, 32, 64)
        assert cfg.train.batch_size == 32
        assert cfg.train.learning_rate == 0.1
        assert cfg.train.momentum == 0.9
        assert cfg.distill.kind == "angular"

    def test_readme_schema_is_the_default_config(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        schema = readme.split("## Configuration schema\n", 1)[1]
        block = schema.split("```yaml\n", 1)[1].split("```", 1)[0]
        assert yaml.safe_load(block) == yaml.safe_load(dump_config(RunConfig()))

    def test_lambda_defaults_per_kind(self):
        cfg = RunConfig()
        cfg.distill.kind = "angular"
        assert cfg.distill.resolved_lambda_n() == 1.0
        cfg.distill.kind = "l2"
        assert cfg.distill.resolved_lambda_n() == 0.001
        cfg.distill.kind = "none"
        assert cfg.distill.resolved_lambda_n() == 0.0
        cfg.distill.lambda_n = 0.25
        assert cfg.distill.resolved_lambda_n() == 0.25


class TestLoading:
    def test_yaml_roundtrip(self, tmp_path):
        cfg = RunConfig().validate()
        path = tmp_path / "config.yaml"
        path.write_text(dump_config(cfg))
        loaded = load_config(path)
        assert asdict(loaded) == asdict(cfg)

    def test_partial_config_fills_defaults(self, tmp_path):
        path = tmp_path / "partial.yaml"
        path.write_text("seed: 7\ntrain:\n  batch_size: 16\n")
        cfg = load_config(path)
        assert cfg.seed == 7
        assert cfg.train.batch_size == 16
        assert cfg.train.momentum == 0.9

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config key: optimzer"):
            config_from_tree({"optimzer": {}})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="train.batchsize"):
            config_from_tree({"train": {"batchsize": 8}})

    def test_inconsistent_arch_rejected(self):
        with pytest.raises(ConfigError):
            config_from_tree({"arch": {"num_stages": 3}})

    def test_image_size_must_match_input_size(self):
        with pytest.raises(ConfigError, match="image_size"):
            config_from_tree({"data": {"image_size": 8}})


class TestOverrides:
    def test_scalar_override(self):
        cfg = RunConfig().validate()
        out = apply_overrides(cfg, ["seed=5", "train.batch_size=8"])
        assert out.seed == 5
        assert out.train.batch_size == 8

    def test_list_override(self):
        cfg = RunConfig().validate()
        out = apply_overrides(
            cfg,
            [
                "arch.teacher_channels=[4, 8]",
                "arch.student_channels=[2, 4]",
                "arch.num_stages=2",
                "arch.input_size=8",
                "data.image_size=8",
            ],
        )
        assert out.arch.teacher_channels == (4, 8)
        assert out.arch.num_stages == 2

    def test_unknown_override_key(self):
        cfg = RunConfig().validate()
        with pytest.raises(ConfigError, match="train.lr"):
            apply_overrides(cfg, ["train.lr=0.2"])

    def test_bad_override_syntax(self):
        cfg = RunConfig().validate()
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(cfg, ["seed:5"])


class TestValueTypes:
    @pytest.mark.parametrize(
        "override",
        [
            "train.batch_size=abc",
            "train.batch_size=8.0",
            "train.batch_size=true",
            "arch.teacher_channels=5",
            "arch.teacher_channels=[32, 64.5, 128, 256]",
            "train.decay_at=[0.5, x]",
            "train.learning_rate=fast",
            "classifier.mode=3",
            "distill.final_stage_only=1",
            "distill.lambda_n=high",
            "seed=abc",
        ],
    )
    def test_mistyped_value_rejected_with_key(self, override):
        key = override.split("=")[0]
        with pytest.raises(ConfigError, match=re.escape(key)):
            apply_overrides(RunConfig().validate(), [override])

    def test_int_accepted_for_float_and_null_for_lambda(self):
        cfg = apply_overrides(
            RunConfig().validate(),
            ["train.learning_rate=1", "train.decay_at=[1, 0.5]", "distill.lambda_n=null"],
        )
        assert cfg.train.learning_rate == 1
        assert cfg.train.decay_at == (1, 0.5)
        assert cfg.distill.lambda_n is None
        cfg = apply_overrides(cfg, ["distill.lambda_n=2"])
        assert cfg.distill.resolved_lambda_n() == 2.0


class TestCanonical:
    def test_canonical_is_yaml_stable(self):
        cfg = RunConfig().validate()
        text1 = dump_config(cfg)
        text2 = dump_config(config_from_tree(yaml.safe_load(text1)))
        assert text1 == text2


class TestRanges:
    def test_every_value_key_declares_its_range(self):
        # a key added later cannot skip its range: only booleans go without one
        cfg = RunConfig()
        undeclared = [
            f"{section.name}.{f.name}"
            for section in fields(cfg)
            if is_dataclass(getattr(cfg, section.name))
            for f in fields(getattr(cfg, section.name))
            if not isinstance(f.default, bool) and f"{section.name}.{f.name}" not in RANGES
        ]
        assert undeclared == []

    def test_boundary_values_accepted(self):
        cfg = apply_overrides(
            RunConfig().validate(),
            [
                "seed=-1",
                "data.noise_sigma=0",
                "data.num_distractors=0",
                "arch.in_channels=1",
                "train.momentum=0",
                "train.decay_factor=1",
                "train.decay_at=[0, 1]",
                "distill.lambda_n=0",
            ],
        )
        assert cfg.train.decay_factor == 1
        assert cfg.distill.resolved_lambda_n() == 0.0

    @pytest.mark.parametrize(
        "section, key, value",
        [("train", "decay_factor", 0.0), ("distill", "lambda_n", -1.0), ("train", "batch_size", "8")],
    )
    def test_replaced_config_is_checked(self, section, key, value):
        cfg = RunConfig()
        setattr(cfg, section, replace(getattr(cfg, section), **{key: value}))
        with pytest.raises(ConfigError, match=re.escape(f"{section}.{key}")):
            cfg.validate()
