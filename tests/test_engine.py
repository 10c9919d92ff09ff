"""Training engine: determinism, logging contracts, frozen teacher, matrix."""

import hashlib
import json
import shutil
from dataclasses import asdict

import numpy as np
import pytest

from spherekd.autodiff import Tensor
from spherekd.checkpoint import load_checkpoint
from spherekd.config import apply_overrides
from spherekd.engine import (
    _precompute_teacher,
    _train_eval_stats,
    dataset_from_config,
    evaluate_checkpoint,
    evaluate_network,
    protocols_from_config,
    run_experiment_matrix,
    train_student,
    train_teacher,
)
from spherekd.errors import ConfigError, NumericError
from spherekd.evaluate import extract_embeddings, rank1_identification, verification_accuracy
from spherekd.nets import (
    ArchConfig,
    ClassifierHead,
    StagedNetwork,
    parameters,
    stage_transforms,
    state_arrays,
)
from spherekd.rng import substream

from .conftest import make_toy_config


def read_records(path):
    return [json.loads(line) for line in open(path)]


def tree_digests(root):
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestTrainTeacher:
    def test_one_epoch_beats_uniform_loss(self, tmp_path):
        # one epoch here is 64 small batches; plenty to beat the
        # uniform-prediction baseline (measured 0.84 vs log 8 = 2.08)
        cfg = make_toy_config(
            tmp_path / "run",
            extra=[
                "train.teacher_epochs=1",
                "data.samples_per_class=32",
                "data.noise_sigma=0.1",
                "train.batch_size=4",
                "classifier.scale=8.0",
            ],
        )
        _, summary = train_teacher(cfg)
        assert summary["train_loss"] < np.log(cfg.data.num_train_classes)

    def test_same_seed_bitwise_identical_checkpoints(self, tmp_path):
        cfg_a = make_toy_config(tmp_path / "a")
        cfg_b = make_toy_config(tmp_path / "b")
        path_a, _ = train_teacher(cfg_a)
        path_b, _ = train_teacher(cfg_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        log_a = (tmp_path / "a" / "teacher_metrics.jsonl").read_bytes()
        log_b = (tmp_path / "b" / "teacher_metrics.jsonl").read_bytes()
        # config echoes differ only in output_dir; strip the meta line
        assert log_a.split(b"\n", 1)[1] == log_b.split(b"\n", 1)[1]

    def test_metrics_log_contract(self, toy_config):
        train_teacher(toy_config)
        records = read_records(toy_config.output_dir + "/teacher_metrics.jsonl")
        kinds = [r["type"] for r in records]
        assert kinds[0] == "meta" and kinds[-1] == "final"
        steps = [r for r in records if r["type"] == "step"]
        meta = records[0]
        assert len(steps) == meta["epochs"] * meta["steps_per_epoch"]
        for i, r in enumerate(steps):
            assert r["step"] == i
            assert np.isfinite(r["total"])

    def test_diverging_run_aborts_with_location(self, tmp_path):
        cfg = make_toy_config(
            tmp_path / "run",
            extra=["train.learning_rate=1000000000.0", "classifier.mode=plain"],
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match=r"epoch \d+ batch \d+"):
                train_teacher(cfg)


class TestTrainStudent:
    def test_kind_none_ignores_teacher(self, tmp_path):
        cfg = make_toy_config(tmp_path / "run", extra=["distill.kind=none"])
        placeholder = tmp_path / "not_a_real_checkpoint.ckpt"
        placeholder.write_bytes(b"GARBAGE")
        path, summary = train_student(cfg, placeholder)  # never read
        assert path.exists()

    def test_teacher_is_frozen_through_distillation(self, tmp_path):
        cfg = make_toy_config(tmp_path / "run")
        teacher_path, _ = train_teacher(cfg)
        before_bytes = teacher_path.read_bytes()
        before = load_checkpoint(teacher_path)
        train_student(cfg, teacher_path)
        assert teacher_path.read_bytes() == before_bytes
        after = load_checkpoint(teacher_path)
        for name in before.tensors:
            assert np.array_equal(before.tensors[name], after.tensors[name])

    def test_lambda_accounting_in_logs(self, tmp_path):
        for kind in ("angular", "l2"):
            cfg = make_toy_config(tmp_path / kind, extra=[f"distill.kind={kind}"])
            teacher_path, _ = train_teacher(cfg)
            train_student(cfg, teacher_path)
            records = read_records(f"{cfg.output_dir}/student_{kind}_metrics.jsonl")
            lambdas = records[0]["lambdas"]
            assert len(lambdas) == cfg.arch.num_stages
            for r in records:
                if r["type"] != "step":
                    continue
                parts = r["parts"]
                recombined = parts["cls"] + sum(
                    lambdas[i] * parts[f"stage_{i + 1}"] for i in range(len(lambdas))
                )
                assert abs(r["total"] - recombined) <= 1e-9

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        cfg = make_toy_config(tmp_path / "run")
        teacher_path, _ = train_teacher(cfg)
        other = apply_overrides(cfg, ["arch.embedding_dim=6"])
        with pytest.raises(ConfigError, match="fingerprint"):
            train_student(other, teacher_path)

    def test_student_checkpoint_contains_transforms(self, tmp_path):
        cfg = make_toy_config(tmp_path / "run")
        teacher_path, _ = train_teacher(cfg)
        student_path, _ = train_student(cfg, teacher_path)
        ckpt = load_checkpoint(student_path)
        assert ckpt.meta["kind"] == "angular"
        assert "transform1.proj.weight" in ckpt.tensors

    @pytest.mark.parametrize("kind", ["none", "angular"])
    def test_checkpoint_holds_the_named_state(self, tmp_path, kind):
        cfg = make_toy_config(tmp_path / "run", extra=[f"distill.kind={kind}"])
        teacher_path, _ = train_teacher(cfg)
        student_path, _ = train_student(cfg, teacher_path)
        arch = cfg.arch
        net = StagedNetwork(arch, arch.student_channels, substream(0, "s"))
        head = ClassifierHead(cfg.data.num_train_classes, arch.embedding_dim)
        # the final stage compares embeddings, so its transform is neither
        # trained nor saved
        transforms = stage_transforms(arch, 0)[:-1] if kind != "none" else []
        ckpt = load_checkpoint(student_path)
        assert list(ckpt.tensors) == list(state_arrays(net, head, *transforms))

    def test_final_stage_only_flag(self, tmp_path):
        cfg = make_toy_config(
            tmp_path / "run", extra=["distill.kind=l2", "distill.final_stage_only=true"]
        )
        teacher_path, _ = train_teacher(cfg)
        train_student(cfg, teacher_path)
        records = read_records(f"{cfg.output_dir}/student_l2_metrics.jsonl")
        lambdas = records[0]["lambdas"]
        assert lambdas[:-1] == [0.0] * (cfg.arch.num_stages - 1)
        assert lambdas[-1] == cfg.distill.resolved_lambda_n()


class TestEvaluateCheckpoint:
    def test_metrics_present_and_finite(self, toy_config):
        teacher_path, _ = train_teacher(toy_config)
        metrics = evaluate_checkpoint(toy_config, teacher_path)
        assert set(metrics) == {"verification_accuracy", "verification_threshold", "rank1"}
        assert 0.0 <= metrics["verification_accuracy"] <= 1.0
        assert 0.0 <= metrics["rank1"] <= 1.0

    def test_deterministic(self, toy_config):
        teacher_path, _ = train_teacher(toy_config)
        m1 = evaluate_checkpoint(toy_config, teacher_path)
        m2 = evaluate_checkpoint(toy_config, teacher_path)
        assert m1 == m2


class TestEvaluateNetwork:
    def test_forwards_exactly_the_scored_rows(self, toy_config, monkeypatch):
        dataset = dataset_from_config(toy_config)
        vprot, iprot = protocols_from_config(toy_config, dataset)
        net = StagedNetwork(toy_config.arch, toy_config.arch.teacher_channels, substream(0, "t"))
        full = extract_embeddings(net, dataset.images)
        forwarded = []
        original = net.forward

        def counting(batch, train=False):
            forwarded.append(batch.data.copy())
            return original(batch, train)

        monkeypatch.setattr(net, "forward", counting)
        metrics = evaluate_network(net, dataset, vprot, iprot)
        scored = np.unique(
            np.concatenate([vprot.index_a, vprot.index_b, iprot.gallery_indices, iprot.probe_indices])
        )
        assert len(scored) < dataset.num_samples  # the training samples are not scored
        assert np.array_equal(np.concatenate(forwarded), dataset.images[scored])
        # the same metrics as from a table of every sample
        acc, threshold = verification_accuracy(full, vprot)
        assert metrics == {
            "verification_accuracy": acc,
            "verification_threshold": threshold,
            "rank1": rank1_identification(full, iprot),
        }


class TestExperimentMatrix:
    def test_one_seed_produces_four_checkpoints_and_report(self, tmp_path):
        cfg = make_toy_config(tmp_path / "matrix")
        report = run_experiment_matrix(cfg, [0])
        seed_dir = tmp_path / "matrix" / "seed0"
        assert (seed_dir / "teacher.ckpt").exists()
        for kind in ("none", "l2", "angular"):
            assert (seed_dir / f"student_{kind}.ckpt").exists()
        assert (tmp_path / "matrix" / "report.json").exists()
        assert (tmp_path / "matrix" / "summary.txt").exists()
        assert report["seeds"] == [0]
        for row in ("teacher", "self_studied", "l2", "angular"):
            cell = report["rows"][row]["verification_accuracy"]
            assert set(cell["per_seed"]) == {"0"}
            assert cell["mean"] == cell["per_seed"]["0"]

    def test_repeated_run_identical_report(self, tmp_path):
        cfg_a = make_toy_config(tmp_path / "a")
        cfg_b = make_toy_config(tmp_path / "b")
        run_experiment_matrix(cfg_a, [0])
        run_experiment_matrix(cfg_b, [0])
        ra = (tmp_path / "a" / "report.json").read_bytes()
        rb = (tmp_path / "b" / "report.json").read_bytes()
        assert ra == rb

    def test_parallel_matches_sequential(self, tmp_path):
        # both runs write to one path, which the metrics logs record; equal
        # bytes assume dgemm results do not depend on the BLAS thread count
        cfg = make_toy_config(tmp_path / "out")
        digests = []
        for parallel in (1, 2):
            run_experiment_matrix(cfg, [0, 1], parallel=parallel)
            digests.append(tree_digests(tmp_path / "out"))
            shutil.rmtree(tmp_path / "out")
        assert "seed1/student_angular.ckpt" in digests[0]
        assert digests[0] == digests[1]

    def test_failed_cell_recorded_matrix_continues(self, tmp_path, monkeypatch):
        import spherekd.engine as engine_mod

        cfg = make_toy_config(tmp_path / "matrix")
        original = engine_mod.train_student

        def breaking(cfg_inner, teacher_path, *a, **kw):
            if cfg_inner.distill.kind == "l2":
                raise RuntimeError("injected failure")
            return original(cfg_inner, teacher_path, *a, **kw)

        monkeypatch.setattr(engine_mod, "train_student", breaking)
        report = run_experiment_matrix(cfg, [0])
        assert "l2" in report["failures"]["0"]
        assert report["rows"]["l2"]["verification_accuracy"]["mean"] is None
        assert report["rows"]["angular"]["verification_accuracy"]["mean"] is not None

    def test_non_finite_embeddings_recorded_as_cell_failure(self, tmp_path, monkeypatch):
        import spherekd.engine as engine_mod

        cfg = make_toy_config(tmp_path / "matrix")
        original = engine_mod.load_network

        def poisoned(cfg_inner, path, role=None):
            net = original(cfg_inner, path, role)
            if str(path).endswith("student_l2.ckpt"):
                net.head_weight.data[0, 0] = np.nan
            return net

        monkeypatch.setattr(engine_mod, "load_network", poisoned)
        report = run_experiment_matrix(cfg, [0])
        assert "NumericError: non-finite embeddings" in report["failures"]["0"]["l2"]
        assert report["rows"]["l2"]["verification_accuracy"]["mean"] is None
        assert report["rows"]["angular"]["verification_accuracy"]["mean"] is not None


def fake_cells(accuracy):
    """Stand-in for run_seed_cells that trains nothing."""

    def cells(tree, seed):
        return {
            row: {"verification_accuracy": accuracy, "rank1": accuracy}
            for row in ("teacher", "self_studied", "l2", "angular")
        }

    return cells


class TestDataBuiltOncePerCell:
    def test_one_generation_per_compare_seed(self, tmp_path, monkeypatch):
        import spherekd.engine as engine_mod

        seeds = []
        original = engine_mod.generate_dataset
        monkeypatch.setattr(
            engine_mod, "generate_dataset", lambda **kw: seeds.append(kw["seed"]) or original(**kw)
        )
        report = run_experiment_matrix(make_toy_config(tmp_path / "m"), [0, 1])
        assert not report["failures"]
        assert seeds == [0, 1]

    def test_dataset_of_another_seed_rejected(self, tmp_path):
        cfg = make_toy_config(tmp_path / "run")
        other = dataset_from_config(apply_overrides(cfg, ["seed=1"]))
        with pytest.raises(ConfigError, match="seed"):
            train_teacher(cfg, dataset=other)
        with pytest.raises(ConfigError, match="seed"):
            train_student(cfg, None, dataset=other)
        assert not (tmp_path / "run" / "teacher.ckpt").exists()

    def test_protocol_fields_do_not_make_another_dataset(self, tmp_path):
        cfg = make_toy_config(tmp_path / "run")
        dataset = dataset_from_config(apply_overrides(cfg, ["data.pairs_per_side=20"]))
        path, _ = train_teacher(cfg, dataset=dataset)
        assert path.read_bytes() == train_teacher(cfg, out_dir=tmp_path / "own")[0].read_bytes()

    def test_failed_teacher_leaves_only_its_cell(self, tmp_path, monkeypatch):
        import spherekd.engine as engine_mod

        students = []

        def failing_teacher(*args, **kwargs):
            raise RuntimeError("injected teacher failure")

        monkeypatch.setattr(engine_mod, "train_teacher", failing_teacher)
        monkeypatch.setattr(engine_mod, "train_student", lambda *a, **k: students.append(a))
        cells = engine_mod.run_seed_cells(asdict(make_toy_config(tmp_path / "m")), 0)
        assert list(cells) == ["teacher"]
        assert "injected teacher failure" in cells["teacher"]["error"]
        assert students == []


class TestMatrixArguments:
    @pytest.mark.parametrize(
        "seeds, parallel", [([0, 0], 1), ([0, 1, 0], 2), ([0], 0), ([0, 1], -1)]
    )
    def test_bad_seeds_or_parallel_rejected(self, tmp_path, seeds, parallel):
        with pytest.raises(ConfigError):
            run_experiment_matrix(make_toy_config(tmp_path / "m"), seeds, parallel=parallel)

    def test_workers_capped_at_seed_count(self, tmp_path, monkeypatch):
        import contextlib

        import spherekd.engine as engine_mod

        recorded = []

        @contextlib.contextmanager
        def recording_pool(workers):
            """Runs each job inline; starts no process."""
            recorded.append(workers)
            yield map

        monkeypatch.setattr(engine_mod, "spawn_pool", recording_pool)
        monkeypatch.setattr(engine_mod, "run_seed_cells", fake_cells(0.5))
        run_experiment_matrix(make_toy_config(tmp_path / "a"), [0, 1], parallel=8)
        run_experiment_matrix(make_toy_config(tmp_path / "b"), [0, 1, 2], parallel=2)
        run_experiment_matrix(make_toy_config(tmp_path / "c"), [0], parallel=4)
        assert recorded == [2, 2]  # one seed runs in this process


class TestAtomicReports:
    def test_failed_report_write_keeps_previous_report(self, tmp_path, monkeypatch):
        import builtins

        import spherekd.checkpoint as checkpoint_mod
        import spherekd.engine as engine_mod

        cfg = make_toy_config(tmp_path / "m")
        monkeypatch.setattr(engine_mod, "run_seed_cells", fake_cells(0.5))
        run_experiment_matrix(cfg, [0])
        out = tmp_path / "m"
        before = {name: (out / name).read_bytes() for name in ("report.json", "summary.txt")}

        written = []

        class HalfWriter:
            """A file that writes half of what it is given, then fails."""

            def __init__(self, path, mode):
                self.fh = builtins.open(path, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()
                return False

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                written.append(len(text) // 2)
                raise OSError("disk full")

        monkeypatch.setattr(engine_mod, "run_seed_cells", fake_cells(0.75))
        monkeypatch.setattr(checkpoint_mod, "open", HalfWriter, raising=False)
        with pytest.raises(OSError, match="disk full"):
            run_experiment_matrix(cfg, [0])
        assert written and written[0] > 0  # the report was partly written
        assert {name: (out / name).read_bytes() for name in before} == before
        assert sorted(p.name for p in out.iterdir()) == ["report.json", "summary.txt"]


class TestEvalPassesBuildNoGraph:
    ARCH = ArchConfig(
        input_size=8, in_channels=1, num_stages=2, teacher_channels=(4, 6),
        student_channels=(2, 3), block_depth=1, embedding_dim=4,
    )

    def test_no_node_requires_grad(self, monkeypatch):
        made = []
        original = Tensor._make

        def recording(self, data, parents, backward):
            out = original(self, data, parents, backward)
            made.append(out)
            return out

        monkeypatch.setattr(Tensor, "_make", recording)
        net = StagedNetwork(self.ARCH, self.ARCH.teacher_channels, substream(0, "t"))
        head = ClassifierHead(3, self.ARCH.embedding_dim, rng=substream(0, "h"))
        images = np.random.default_rng(0).normal(size=(10, 8, 8, 1))
        labels = np.arange(10) % 3
        params = list(parameters(net).values()) + [head.weight]
        assert all(p.requires_grad for p in params)

        extract_embeddings(net, images, batch_size=4)
        _train_eval_stats(net, head, images, labels, batch_size=4)
        _precompute_teacher(net, images, "l2", batch_size=4)
        assert made
        assert not any(t.requires_grad or t._parents or t._backward for t in made)
        assert all(p.requires_grad for p in params)

        # the same forward outside those passes does record a graph
        made.clear()
        net.forward(Tensor(images[:4]), train=False)
        assert any(t.requires_grad for t in made)
