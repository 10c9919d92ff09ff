"""Checkpoint binary format: round-trips, fingerprints, version-1 files."""

import io
import json
import struct

import numpy as np
import pytest

from spherekd import checkpoint
from spherekd.checkpoint import (
    Checkpoint,
    fingerprint_arch,
    load_checkpoint,
    restore,
    save_checkpoint,
)
from spherekd.errors import ConfigError
from spherekd.nets import ArchConfig

from .conftest import make_toy_config


def sample_checkpoint():
    rng = np.random.default_rng(0)
    tensors = {
        "net.block1.conv1.weight": rng.normal(size=(3, 3, 1, 4)),
        "net.head.weight": rng.normal(size=(16, 8)),
        "classifier.weight": rng.normal(size=(10, 8)),
    }
    meta = {
        "role": "teacher",
        "epoch": 3,
        "train_loss": 1.25,
        "classifier": {"mode": "normalized", "scale": 16.0},
    }
    return Checkpoint(fingerprint_arch(ArchConfig()), tensors, meta)


def meta_blob(meta: dict) -> bytes:
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")


def version_1_blob(ckpt: Checkpoint, velocities: dict[str, np.ndarray]) -> bytes:
    """`ckpt` in the version-1 layout: the version-2 records, then the velocities."""
    fh = io.BytesIO()
    fp = ckpt.fingerprint.encode("ascii")
    fh.write(b"STNT" + struct.pack("<II", 1, len(fp)) + fp)
    checkpoint._write_tensors(fh, ckpt.tensors)
    meta = meta_blob(ckpt.meta)
    fh.write(struct.pack("<I", len(meta)) + meta)
    checkpoint._write_tensors(fh, velocities)
    return fh.getvalue()


class TestRoundTrip:
    def test_tensors_bitwise(self, tmp_path):
        ckpt = sample_checkpoint()
        path = save_checkpoint(tmp_path / "a.ckpt", ckpt)
        loaded = load_checkpoint(path)
        assert loaded.fingerprint == ckpt.fingerprint
        assert loaded.meta == ckpt.meta
        for name, arr in ckpt.tensors.items():
            assert np.array_equal(loaded.tensors[name], arr)

    def test_save_load_save_identical_bytes(self, tmp_path):
        ckpt = sample_checkpoint()
        p1 = save_checkpoint(tmp_path / "a.ckpt", ckpt)
        loaded = load_checkpoint(p1)
        p2 = save_checkpoint(tmp_path / "b.ckpt", loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_bytes(self, tmp_path):
        path = save_checkpoint(tmp_path / "a.ckpt", sample_checkpoint())
        assert path.read_bytes()[:4] == b"STNT"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ConfigError, match="magic"):
            load_checkpoint(path)

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, sample_checkpoint())
        before = path.read_bytes()
        meta = meta_blob(sample_checkpoint().meta)
        written = []

        class FailOnMeta(io.FileIO):
            def write(self, data):
                if bytes(data) == meta:
                    raise OSError("disk full")
                written.append(super().write(data))
                return written[-1]

        monkeypatch.setattr(checkpoint, "open", FailOnMeta, raising=False)
        for target in (path, tmp_path / "new.ckpt"):
            written.clear()
            with pytest.raises(OSError, match="disk full"):
                save_checkpoint(target, sample_checkpoint())
            # everything before the meta, the tensors included, was written
            assert sum(written) == len(before) - len(meta)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.ckpt"]

    def test_truncated_rejected(self, tmp_path):
        path = save_checkpoint(tmp_path / "a.ckpt", sample_checkpoint())
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ConfigError, match="truncated"):
            load_checkpoint(path)


class TestRestore:
    def test_copies_in_place_and_ignores_other_names(self):
        target = {"a": np.zeros(3), "b": np.zeros((2, 2))}
        identity = {k: id(v) for k, v in target.items()}
        saved = {"a": np.arange(3.0), "b": np.ones((2, 2)), "extra": np.ones(5)}
        restore(target, saved)
        assert {k: id(v) for k, v in target.items()} == identity
        assert np.array_equal(target["a"], saved["a"])
        assert np.array_equal(target["b"], saved["b"])

    def test_missing_tensor_named(self):
        with pytest.raises(ConfigError, match="'b'"):
            restore({"a": np.zeros(3), "b": np.zeros(2)}, {"a": np.ones(3)})

    def test_wrong_shape_named(self):
        target = {"a": np.zeros(3)}
        with pytest.raises(ConfigError, match=r"'a' has shape \(4,\)"):
            restore(target, {"a": np.ones(4)})
        assert np.array_equal(target["a"], np.zeros(3))


class TestFingerprint:
    def test_stable_for_equal_config(self):
        assert fingerprint_arch(ArchConfig()) == fingerprint_arch(ArchConfig())

    def test_differs_for_different_config(self):
        a = fingerprint_arch(ArchConfig())
        b = fingerprint_arch(ArchConfig(embedding_dim=64))
        assert a != b


class TestVersion1:
    """Version-1 files end with the SGD velocities, which loading discards."""

    def test_loads_and_evaluates_like_version_2(self, tmp_path):
        from spherekd.engine import evaluate_checkpoint, train_teacher

        cfg = make_toy_config(tmp_path / "run")
        path, _ = train_teacher(cfg)
        current = load_checkpoint(path)
        rng = np.random.default_rng(3)
        velocities = {k: rng.normal(size=v.shape) for k, v in current.tensors.items()}
        old_path = tmp_path / "v1.ckpt"
        old_path.write_bytes(version_1_blob(current, velocities))

        old = load_checkpoint(old_path)
        assert old.fingerprint == current.fingerprint
        assert old.meta == current.meta
        assert list(old.tensors) == list(current.tensors)
        for name, arr in current.tensors.items():
            assert np.array_equal(old.tensors[name], arr), name
        assert evaluate_checkpoint(cfg, old_path) == evaluate_checkpoint(cfg, path)
        # saved again, it is written as version 2
        assert save_checkpoint(tmp_path / "again.ckpt", old).read_bytes() == path.read_bytes()

    def test_other_versions_rejected(self, tmp_path):
        blob = bytearray(save_checkpoint(tmp_path / "a.ckpt", sample_checkpoint()).read_bytes())
        for version in (0, 3):
            blob[4:8] = struct.pack("<I", version)
            (tmp_path / "a.ckpt").write_bytes(blob)
            with pytest.raises(ConfigError, match=f"version {version}"):
                load_checkpoint(tmp_path / "a.ckpt")


class TestStudentTransforms:
    @pytest.mark.parametrize("kind", ["l2", "angular"])
    def test_checkpoint_with_last_transform_evaluates(self, tmp_path, kind):
        """Earlier student checkpoints held every stage's transform.

        Each `transform<i>.*` record, running estimates and the untrained last
        transform included, is ignored: such a checkpoint evaluates exactly
        like the same checkpoint without them.
        """
        from spherekd.engine import evaluate_checkpoint, train_student, train_teacher

        cfg = make_toy_config(tmp_path / "run", [f"distill.kind={kind}"])
        teacher_path, _ = train_teacher(cfg)
        student_path, _ = train_student(cfg, teacher_path)
        student = load_checkpoint(student_path)
        assert not any(name.startswith("transform") for name in student.tensors)
        rng = np.random.default_rng(5)
        transforms = {}
        for i, (c_s, c_t) in enumerate(
            zip(cfg.arch.student_channels, cfg.arch.teacher_channels), start=1
        ):
            shapes = {"proj.weight": (c_s, c_t)} | {
                f"bn.{name}": (c_t,) for name in ("gamma", "beta", "running_mean", "running_var")
            }
            transforms |= {f"transform{i}.{k}": rng.normal(size=v) for k, v in shapes.items()}
        earlier = Checkpoint(student.fingerprint, student.tensors | transforms, student.meta)
        earlier_path = save_checkpoint(tmp_path / "earlier.ckpt", earlier)
        assert evaluate_checkpoint(cfg, earlier_path) == evaluate_checkpoint(cfg, student_path)
