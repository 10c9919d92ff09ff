"""Checkpoint binary format: round-trips, fingerprints, resume equivalence."""

import numpy as np
import pytest

from spherekd.checkpoint import (
    Checkpoint,
    fingerprint_arch,
    load_checkpoint,
    restore,
    save_checkpoint,
)
from spherekd.errors import ConfigError
from spherekd.nets import ArchConfig


def sample_checkpoint():
    rng = np.random.default_rng(0)
    tensors = {
        "net.block1.conv1.weight": rng.normal(size=(3, 3, 1, 4)),
        "net.head.weight": rng.normal(size=(16, 8)),
        "classifier.weight": rng.normal(size=(10, 8)),
    }
    velocities = {k: rng.normal(size=v.shape) for k, v in tensors.items()}
    meta = {
        "role": "teacher",
        "epoch": 3,
        "optimizer": {"base_lr": 0.1, "decay_steps": [10], "factor": 0.1,
                      "momentum": 0.9, "step_count": 12},
        "rng_state": {"bit_generator": "PCG64",
                      "state": {"state": 123456789, "inc": 987654321},
                      "has_uint32": 0, "uinteger": 0},
    }
    return Checkpoint(fingerprint_arch(ArchConfig()), tensors, meta, velocities)


class TestRoundTrip:
    def test_tensors_bitwise(self, tmp_path):
        ckpt = sample_checkpoint()
        path = save_checkpoint(tmp_path / "a.ckpt", ckpt)
        loaded = load_checkpoint(path)
        assert loaded.fingerprint == ckpt.fingerprint
        assert loaded.meta == ckpt.meta
        for name, arr in ckpt.tensors.items():
            assert np.array_equal(loaded.tensors[name], arr)
        for name, arr in ckpt.velocities.items():
            assert np.array_equal(loaded.velocities[name], arr)

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
        from spherekd import checkpoint

        path = tmp_path / "t.ckpt"
        save_checkpoint(path, sample_checkpoint())
        before = path.read_bytes()
        original = checkpoint._write_tensors
        calls = []

        def fail_on_velocities(fh, tensors):
            calls.append(len(tensors))
            if len(calls) == 2:
                raise OSError("disk full")
            original(fh, tensors)

        monkeypatch.setattr(checkpoint, "_write_tensors", fail_on_velocities)
        for target in (path, tmp_path / "new.ckpt"):
            calls.clear()
            with pytest.raises(OSError, match="disk full"):
                save_checkpoint(target, sample_checkpoint())
            assert len(calls) == 2  # the tensors were written before the failure
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


def resume_config(extra=()):
    from spherekd.config import RunConfig, apply_overrides

    return apply_overrides(
        RunConfig().validate(),
        [
            "arch.input_size=8", "arch.num_stages=2",
            "arch.teacher_channels=[4, 6]", "arch.student_channels=[2, 3]",
            "arch.block_depth=1", "arch.embedding_dim=4",
            "data.image_size=8", "data.num_train_classes=4",
            "data.num_test_classes=2", "data.samples_per_class=4",
            "data.num_distractors=4", "data.pairs_per_side=4", "data.folds=2",
            "train.batch_size=4", "train.teacher_epochs=4", "train.student_epochs=4",
            # constant lr: decay points scale with total steps, which would
            # make a 2-epoch run differ from the first half of a 4-epoch run
            "train.decay_at=[]",
            *extra,
        ],
    )


class TestResume:
    @pytest.mark.parametrize("kind", ["teacher", "none", "l2", "angular"])
    def test_resume_matches_straight_run(self, tmp_path, kind):
        """Training 2+2 epochs through a checkpoint equals training 4 straight."""
        from spherekd.config import apply_overrides
        from spherekd.engine import train_student, train_teacher

        base = resume_config()
        if kind == "teacher":
            train = train_teacher
        else:
            base = apply_overrides(base, [f"distill.kind={kind}"])
            teacher_path, _ = train_teacher(base, out_dir=tmp_path / "teacher")

            def train(cfg, out_dir, resume=None):
                return train_student(cfg, teacher_path, out_dir=out_dir, resume=resume)

        path_straight, _ = train(base, out_dir=tmp_path / "straight")

        # same config but stop at 2 epochs, then resume to 4
        short = apply_overrides(base, ["train.teacher_epochs=2", "train.student_epochs=2"])
        path_part, _ = train(short, out_dir=tmp_path / "part")
        path_resumed, _ = train(
            base, out_dir=tmp_path / "resumed", resume=load_checkpoint(path_part)
        )

        a = load_checkpoint(path_straight)
        b = load_checkpoint(path_resumed)
        assert list(a.tensors) == list(b.tensors)
        for name in a.tensors:
            assert np.array_equal(a.tensors[name], b.tensors[name]), name
        assert a.meta["optimizer"] == b.meta["optimizer"]
        assert a.meta["rng_state"] == b.meta["rng_state"]
        assert path_straight.read_bytes() == path_resumed.read_bytes()

    @pytest.mark.parametrize("kind", ["l2", "angular"])
    def test_checkpoint_with_last_transform_resumes_and_evaluates(self, tmp_path, kind):
        """Earlier student checkpoints also held the untrained last transform.

        Its records are ignored: such a checkpoint resumes and evaluates
        exactly like the same checkpoint without them.
        """
        from spherekd.engine import evaluate_checkpoint, train_student, train_teacher
        from spherekd.nets import stage_transforms, state_arrays

        base = resume_config([f"distill.kind={kind}"])
        short = resume_config([f"distill.kind={kind}", "train.student_epochs=2"])
        teacher_path, _ = train_teacher(base, out_dir=tmp_path / "teacher")
        part_path, _ = train_student(short, teacher_path, out_dir=tmp_path / "part")
        part = load_checkpoint(part_path)
        last = stage_transforms(base.arch, base.seed)[-1]
        assert not set(state_arrays(last)) & set(part.tensors)
        earlier = Checkpoint(
            part.fingerprint, part.tensors | state_arrays(last), part.meta, part.velocities
        )
        earlier_path = save_checkpoint(tmp_path / "earlier.ckpt", earlier)

        assert evaluate_checkpoint(base, earlier_path) == evaluate_checkpoint(base, part_path)
        from_earlier, _ = train_student(
            base, teacher_path, out_dir=tmp_path / "a", resume=load_checkpoint(earlier_path)
        )
        from_part, _ = train_student(base, teacher_path, out_dir=tmp_path / "b", resume=part)
        assert from_earlier.read_bytes() == from_part.read_bytes()
