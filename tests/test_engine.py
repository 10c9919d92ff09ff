"""Training engine: determinism, logging contracts, frozen teacher, matrix."""

import hashlib
import json
import multiprocessing
import resource
import shutil
import time
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spherekd import autodiff as ad
from spherekd import engine
from spherekd.autodiff import Tensor, topo_order
from spherekd.checkpoint import Checkpoint, fingerprint_arch, load_checkpoint, save_checkpoint
from spherekd.config import RunConfig, apply_overrides
from spherekd.engine import (
    _precompute_teacher,
    _train_eval_stats,
    dataset_from_config,
    evaluate_checkpoint,
    evaluate_network,
    load_network,
    protocols_from_config,
    run_experiment_matrix,
    train_student,
    train_teacher,
)
from spherekd.errors import ConfigError, ContractError, NumericError
from spherekd.evaluate import extract_embeddings, rank1_identification, verification_accuracy
from spherekd.nets import (
    ArchConfig,
    ClassifierHead,
    ConvUnit,
    StagedNetwork,
    freeze,
    parameters,
    state_arrays,
)
from spherekd.parallel import process_pool
from spherekd.rng import substream

from .conftest import make_toy_config, threads_from_8_rows
from .test_nets import randomized


def read_records(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


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


def five_measured_steps(out_dir: str) -> tuple[list, list, list, list, int]:
    """Train the default architecture for 5 steps of batch 32, recording as each step starts.

    Records the traced heap size, the minor page faults, how many of the
    previous step's arrays are still alive and how many parameters still
    hold a gradient; last, the count of arrays the last step saved.
    `TestStepLifetime` runs it in a freshly spawned process, so it patches
    the engine without putting it back. The same run goes once unmeasured
    first: the heap grows to what a run needs by 2 MB steps at no fixed step
    (about 550 faults each, often between steps 2 and 4), and the
    measured run then starts from the grown heap.
    """
    # 136 samples make 5 steps of batch 32
    cfg = apply_overrides(
        RunConfig().validate(),
        [
            "data.num_train_classes=8",
            "data.samples_per_class=17",
            "data.num_test_classes=2",
            "data.num_distractors=0",
            "train.teacher_epochs=1",
            f"output_dir={out_dir}",
        ],
    )
    live_at_start, faults_at_start, left_alive, left_grads = [], [], [], []
    last_step: list[weakref.ref] = []
    forward = engine.composite_loss

    def recording(batch, labels, teacher, net, transforms, head, *args, **kwargs):
        live_at_start.append(tracemalloc.get_traced_memory()[0])
        faults_at_start.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        left_alive.append(sum(ref() is not None for ref in last_step))
        left_grads.append(sum(p.grad is not None for p in parameters(net, head).values()))
        total, parts = forward(batch, labels, teacher, net, transforms, head, *args, **kwargs)
        last_step.clear()
        for node in topo_order(total):
            if node._parents:  # an interior node: its value and what its backward saved
                saved = [c.cell_contents for c in node._backward.__closure__ or ()]
                arrays = [node.data, *(a for a in saved if isinstance(a, np.ndarray))]
                last_step.extend(weakref.ref(a) for a in arrays)
        return total, parts

    train_teacher(cfg)
    engine.composite_loss = recording
    tracemalloc.start()
    try:
        train_teacher(cfg)
    finally:
        tracemalloc.stop()
    return live_at_start, faults_at_start, left_alive, left_grads, len(last_step)


class TestStepLifetime:
    """A training step's graph, arrays and gradients end with the step."""

    def test_no_array_outlives_its_step(self, tmp_path):
        # in a fresh process, so that the heap the tests before this one
        # leave behind does not decide the page faults (see five_measured_steps)
        with process_pool(1) as pool:
            measured = pool.submit(five_measured_steps, str(tmp_path / "run")).result()
        live_at_start, faults_at_start, left_alive, left_grads, last_step_arrays = measured
        assert len(live_at_start) == 5 and last_step_arrays > 50
        assert left_alive == [0] * 5
        assert left_grads == [0] * 5
        # a held graph of the previous step would add about 47 MB
        assert max(live_at_start) - min(live_at_start) < 1_000_000
        # once the heap has grown, memory a step frees serves the next one;
        # handed back to the OS it is faulted in again (about 4,000 faults a step)
        assert faults_at_start[-1] - faults_at_start[2] < 1_000


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

    @pytest.mark.parametrize("kind", ["none", "l2", "angular"])
    def test_checkpoint_holds_the_named_state(self, tmp_path, kind):
        # a student of every kind keeps its network and classifier; the
        # transforms a distilled student trains with are not saved
        cfg = make_toy_config(tmp_path / "run", extra=[f"distill.kind={kind}"])
        teacher_path, _ = train_teacher(cfg)
        student_path, _ = train_student(cfg, teacher_path)
        arch = cfg.arch
        net = StagedNetwork(arch, arch.student_channels, substream(0, "s"))
        head = ClassifierHead(
            cfg.data.num_train_classes, arch.embedding_dim, "normalized", 16.0, substream(0, "c")
        )
        ckpt = load_checkpoint(student_path)
        assert ckpt.meta["kind"] == kind
        assert list(ckpt.tensors) == list(state_arrays(net, head))

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
        freeze(net)
        full = extract_embeddings(net, dataset.images)
        forwarded = []
        original = StagedNetwork.forward

        def counting(frozen, batch):
            forwarded.append(batch.data.copy())
            return original(frozen, batch)

        monkeypatch.setattr(StagedNetwork, "forward", counting)
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


def sleep_fail_or_mark(cfg, seed):
    """Stand-in for run_seed_cells in spawned workers: seed 0 sleeps 3 s and seed 1
    raises at once; any other seed sleeps 0.5 s and leaves a `ran<seed>` file."""
    if seed == 1:
        raise NumericError("seed 1 failed")
    time.sleep(3 if seed == 0 else 0.5)
    if seed > 1:
        (Path(cfg.output_dir) / f"ran{seed}").touch()
    return {}


def fake_cells(accuracy):
    """Stand-in for run_seed_cells that trains nothing."""

    def cells(cfg, seed):
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
            engine_mod, "generate_dataset", lambda *args: seeds.append(args[0]) or original(*args)
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
        own = replace(cfg, output_dir=str(tmp_path / "own"))
        assert path.read_bytes() == train_teacher(own)[0].read_bytes()

    def test_failed_teacher_leaves_only_its_cell(self, tmp_path, monkeypatch):
        import spherekd.engine as engine_mod

        students = []

        def failing_teacher(*args, **kwargs):
            raise RuntimeError("injected teacher failure")

        monkeypatch.setattr(engine_mod, "train_teacher", failing_teacher)
        monkeypatch.setattr(engine_mod, "train_student", lambda *a, **k: students.append(a))
        cells = engine_mod.run_seed_cells(make_toy_config(tmp_path / "m"), 0)
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

    def test_failed_seed_cancels_the_queued_seeds(self, tmp_path, monkeypatch):
        import spherekd.engine as engine_mod

        out = tmp_path / "m"
        out.mkdir()
        monkeypatch.setattr(engine_mod, "run_seed_cells", sleep_fail_or_mark)
        with pytest.raises(NumericError, match="seed 1"):
            run_experiment_matrix(make_toy_config(out), list(range(10)), parallel=2)
        ran = sorted(int(p.name[3:]) for p in out.glob("ran*"))
        # what the pool handed to its queue before seed 1 failed still runs; the
        # seeds after it never start, though seed 0 holds a worker for 3 s more
        assert ran == list(range(2, len(ran) + 2)) and ran[-1] < 9, ran
        assert multiprocessing.active_children() == []

    def test_workers_capped_at_seed_count(self, tmp_path, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        import spherekd.engine as engine_mod

        recorded = []

        def recording_pool(workers):
            """Runs each job on one thread; starts no process."""
            recorded.append(workers)
            return ThreadPoolExecutor(1)

        monkeypatch.setattr(engine_mod, "process_pool", recording_pool)
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
        head = constant_head(self.ARCH)
        images = np.random.default_rng(0).normal(size=(10, 8, 8, 1))
        labels = np.arange(10) % 3

        # the training network's forward records a graph
        net.forward(Tensor(images[:4]))
        assert any(t.requires_grad for t in made)

        made.clear()
        freeze(net)
        extract_embeddings(net, images)
        _train_eval_stats(net, head, images, labels)
        _precompute_teacher(net, images, "l2")
        feats, _ = net.forward(Tensor(images[:4]))
        net.tail(1, feats[0])
        assert made
        assert not any(t.requires_grad or t._parents or t._backward for t in made)


def constant_head(arch):
    """A classifier head over 3 classes whose weight is a constant, as after training."""
    head = ClassifierHead(3, arch.embedding_dim, "normalized", 16.0, substream(0, "h"))
    head.weight = Tensor(head.weight.data)
    return head


class TestOneFrozenPass:
    """Every batched pass over a frozen network is `evaluate.frozen_pass`."""

    ARCH = TestEvalPassesBuildNoGraph.ARCH
    ROWS = 100
    # forwards per caller: 32, 32 and 36 rows on one thread, 32 and 18 per thread on two
    CALLERS = {
        "extract_embeddings": 3,
        "extract_embeddings_on_two_threads": 4,
        "_train_eval_stats": 3,
        "_precompute_teacher": 3,
    }

    def _call(self, caller, net, monkeypatch):
        images = np.random.default_rng(1).normal(size=(self.ROWS, 8, 8, 1))
        if caller == "extract_embeddings_on_two_threads":
            threads_from_8_rows(monkeypatch)
            extract_embeddings(net, images)
        elif caller == "extract_embeddings":
            extract_embeddings(net, images)
        elif caller == "_train_eval_stats":
            _train_eval_stats(net, constant_head(self.ARCH), images, np.arange(self.ROWS) % 3)
        else:
            _precompute_teacher(net, images, "l2")

    @pytest.mark.parametrize("caller", CALLERS)
    def test_every_forward_sees_16_to_47_rows(self, monkeypatch, caller):
        net = StagedNetwork(self.ARCH, self.ARCH.teacher_channels, substream(0, "t"))
        freeze(net)
        rows = []
        forward = StagedNetwork.forward
        monkeypatch.setattr(
            StagedNetwork, "forward", lambda self, x: rows.append(x.shape[0]) or forward(self, x)
        )
        self._call(caller, net, monkeypatch)
        assert len(rows) == self.CALLERS[caller] and sum(rows) == self.ROWS
        assert all(16 <= r <= 47 for r in rows), rows

    @pytest.mark.parametrize("caller", CALLERS)
    def test_unfrozen_network_raises_and_keeps_its_running_estimates(self, monkeypatch, caller):
        net = StagedNetwork(self.ARCH, self.ARCH.teacher_channels, substream(0, "t"))
        before = {k: v.copy() for k, v in state_arrays(net).items()}
        with pytest.raises(ContractError, match="not frozen"):
            self._call(caller, net, monkeypatch)
        assert all(np.array_equal(v, before[k]) for k, v in state_arrays(net).items())


def default_teacher(seed):
    """A default-architecture teacher with random batch-norm state, as after training."""
    arch = ArchConfig()
    return randomized(StagedNetwork(arch, arch.teacher_channels, substream(seed, "t")), seed)


class TestFrozenTeacher:
    def test_a_loaded_teacher_holds_only_its_folded_units(self, tmp_path):
        net = default_teacher(21)
        ckpt = Checkpoint(fingerprint_arch(net.arch), state_arrays(net), {"role": "teacher"})
        loaded = load_network(RunConfig(), save_checkpoint(tmp_path / "t.ckpt", ckpt), "teacher")
        assert not any(isinstance(unit, ConvUnit) for stage in loaded.stages for unit in stage)
        assert not loaded.head_weight.requires_grad

        freeze(net)  # the values the checkpoint holds, frozen without a save and load
        x = Tensor(np.random.default_rng(21).normal(size=(8, 16, 16, 1)))
        ref_feats, ref_emb = net.forward(x)
        feats, emb = loaded.forward(x)
        assert all(np.array_equal(f.data, r.data) for f, r in zip(feats, ref_feats))
        assert np.array_equal(emb.data, ref_emb.data)
        for stage in range(1, net.num_stages + 1):
            f = ref_feats[stage - 1]
            assert np.array_equal(loaded.tail(stage, f).data, net.tail(stage, f).data)

    def test_a_loaded_network_lists_no_state(self, tmp_path):
        net = default_teacher(23)
        ckpt = Checkpoint(fingerprint_arch(net.arch), state_arrays(net), {"role": "teacher"})
        loaded = load_network(RunConfig(), save_checkpoint(tmp_path / "t.ckpt", ckpt))
        for call in (loaded.state, loaded.param_count, lambda: parameters(loaded),
                     lambda: state_arrays(loaded)):
            with pytest.raises(ContractError, match="frozen network has no parameters"):
                call()

    def test_precompute_equals_a_64_row_pass_in_batches_of_16_rows_or_more(self, monkeypatch):
        net = default_teacher(22)
        freeze(net)
        images = np.random.default_rng(22).normal(size=(140, 16, 16, 1))
        ref_feats, ref_embs = [], []
        for start, stop in ((0, 64), (64, 140)):
            feats, emb = net.forward(Tensor(images[start:stop]))
            ref_feats.append([f.data for f in feats[:-1]])
            ref_embs.append(emb.data)

        rows = []
        for name in ("conv_unit", "matmul"):
            original = getattr(ad, name)
            monkeypatch.setattr(
                ad, name, lambda x, *a, _f=original, **k: rows.append(x.shape[0]) or _f(x, *a, **k)
            )
        feats, emb = _precompute_teacher(net, images, "l2")
        # 140 rows: 32, 32, 32 and 44, the last 12 joining the batch before
        assert sorted(set(rows)) == [32, 44] and min(rows) >= 16
        assert np.array_equal(emb, np.concatenate(ref_embs))
        for i, f in enumerate(feats):
            assert np.array_equal(f, np.concatenate([r[i] for r in ref_feats]))
        assert np.array_equal(_precompute_teacher(net, images, "angular")[1], emb)
