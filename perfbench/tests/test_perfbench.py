"""The benchmark at toy size, and each output check against a planted fault."""

import json

import numpy as np
import pytest
from conftest import ROOT, TOY

import checks
import run
import worker
from probes import Phases
from spherekd import evaluate
from spherekd.checkpoint import load_checkpoint, save_checkpoint
from spherekd.config import RunConfig, apply_overrides
from spherekd.engine import dataset_from_config, protocols_from_config, train_student, train_teacher
from spherekd.evaluate import extract_embeddings, rank1_identification, verification_accuracy


@pytest.fixture
def bench_root(tmp_path):
    (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


@pytest.mark.parametrize("workload", ["compare-seed", "openset-gallery"])
@pytest.mark.parametrize("trace", [False, True])
def test_harness_runs_and_passes_its_checks(bench_root, workload, trace):
    result, details = run.run(workload, 5, 1, trace, bench_root, TOY)
    assert details["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    names = set(result["metrics"])
    if trace:
        assert {"autodiff.conv2d_3x3.s1.fwd_s", "engine.step_ms.angular.p90", "trace.overhead_s"} <= names
        assert (bench_root / ".perfbench_work" / workload / "measure" / "spans.npz").is_file()
    else:
        assert names == set(run.END_TO_END)
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "compare-seed", "--seed", "0", "--seconds", "1"]) != 0


# -- the independent computations agree with the program ---------------------------------


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    cfg = apply_overrides(RunConfig(), TOY + [f"output_dir={out}"])
    teacher, _ = train_teacher(cfg)
    student, _ = train_student(cfg, teacher)
    dataset = dataset_from_config(cfg)
    vprot, iprot = protocols_from_config(cfg, dataset)
    return {"cfg": cfg, "out": out, "teacher": teacher, "student": student, "dataset": dataset, "vprot": vprot, "iprot": iprot}


def test_checkpoint_reader_matches_the_program(trained):
    tensors, meta = checks.read_checkpoint(trained["student"])
    ckpt = load_checkpoint(trained["student"])
    assert meta == ckpt.meta
    assert tensors.keys() == ckpt.tensors.keys()
    assert all(np.array_equal(tensors[k], ckpt.tensors[k]) for k in tensors)


def _program_embeddings(cfg, path, dataset):
    from spherekd.engine import _rebuild_network

    net, _ = _rebuild_network(cfg, load_checkpoint(path))
    return extract_embeddings(net, dataset.images)


@pytest.mark.parametrize("role", ["teacher", "student"])
def test_embedding_check_catches_a_perturbed_row(trained, role):
    dataset = trained["dataset"]
    tensors, _ = checks.read_checkpoint(trained[role])
    table = _program_embeddings(trained["cfg"], trained[role], dataset)
    subset = np.arange(0, dataset.images.shape[0], 3)
    images, rows = dataset.images[subset], table[subset]
    assert checks.check_embeddings(tensors, images, rows, "net") == []
    rows[4] += 1e-7
    assert checks.check_embeddings(tensors, images, rows, "net")


def test_metric_check_catches_a_wrong_threshold(trained, monkeypatch):
    vprot, iprot = trained["vprot"], trained["iprot"]
    table = _program_embeddings(trained["cfg"], trained["teacher"], trained["dataset"])
    acc, thr = verification_accuracy(table, vprot)
    program = {"verification_accuracy": acc, "verification_threshold": thr, "rank1": rank1_identification(table, iprot)}
    expected = checks.recompute_metrics(table, vprot, iprot)
    assert checks.check_metrics(expected, program, "teacher") == []

    # A planted fault: ties between candidate thresholds go to the largest.
    candidates = evaluate._threshold_candidates
    monkeypatch.setattr(evaluate, "_threshold_candidates", lambda sims: candidates(sims)[::-1])
    acc_bad, thr_bad = verification_accuracy(table, vprot)
    monkeypatch.undo()
    assert thr_bad != thr
    planted = dict(program, verification_accuracy=acc_bad, verification_threshold=thr_bad)
    assert checks.check_metrics(expected, planted, "teacher")


def test_rank1_counts_ties_as_failures():
    # Probe 3 ties between gallery 0 (its class) and gallery 1; probe 4 is a clean hit.
    emb = np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 0, 1.0], [1.0, 0, 0], [0, 0, 1.0]])
    gallery, gallery_cls = np.array([0, 1, 2]), np.array([10, 11, 12])
    probes, probe_cls = np.array([3, 4]), np.array([10, 12])
    iprot = evaluate.IdentificationProtocol(gallery, gallery_cls, probes, probe_cls)
    mine = checks.rank1(emb, gallery, gallery_cls, probes, probe_cls)
    assert mine == rank1_identification(emb, iprot) == 0.5
    ties_as_hits = {"rank1": 1.0}
    assert checks.check_metrics({"rank1": mine}, ties_as_hits, "net")


def test_protocol_check_catches_planted_faults(trained):
    vprot, iprot = trained["vprot"], trained["iprot"]
    labels, n_train, n_distractors = trained["dataset"].labels, 8, 8
    assert checks.check_protocols(labels, n_train, n_distractors, vprot, iprot) == []

    missing = evaluate.IdentificationProtocol(
        iprot.gallery_indices[:-1], iprot.gallery_classes[:-1], iprot.probe_indices, iprot.probe_classes
    )
    assert checks.check_protocols(labels, n_train, n_distractors, vprot, missing)

    p = iprot.probe_indices[0]
    twice = evaluate.IdentificationProtocol(
        np.append(iprot.gallery_indices, p), np.append(iprot.gallery_classes, labels[p]),
        iprot.probe_indices[1:], iprot.probe_classes[1:],
    )
    assert checks.check_protocols(labels, n_train, n_distractors, vprot, twice)

    train_probe = evaluate.IdentificationProtocol(
        iprot.gallery_indices, iprot.gallery_classes,
        np.append(iprot.probe_indices, 0), np.append(iprot.probe_classes, labels[0]),
    )
    assert checks.check_protocols(labels, n_train, n_distractors, vprot, train_probe)


def test_loss_checks_catch_planted_faults(trained):
    records = checks.read_records(trained["out"] / "student_angular_metrics.jsonl")
    assert checks.check_loss_decomposition(records, "s") == []
    assert checks.check_loss_decreases(records, "s") == []

    bad_total = json.loads(json.dumps(records))
    next(r for r in bad_total if r["type"] == "step")["total"] += 1e-6
    assert checks.check_loss_decomposition(bad_total, "s")

    bad_lambda = json.loads(json.dumps(records))
    bad_lambda[0]["lambdas"][0] *= 2.0
    assert checks.check_loss_decomposition(bad_lambda, "s")

    epochs = [r for r in records if r["type"] == "epoch"]
    rising = [r for r in records if r["type"] != "epoch"] + [epochs[-1], epochs[0]]
    assert checks.check_loss_decreases(rising, "s")


# -- the compare-seed checks over real rounds -------------------------------------------------


@pytest.fixture
def compare_rounds(tmp_path):
    spec = {"workload": "compare-seed", "seed": 1, "overrides": TOY}
    phases = Phases(worker.inspect_compare(spec))
    phases.install()
    try:
        rounds = []
        for _ in range(2):
            phases.new_round()
            rounds.append(worker.compare_round(spec, tmp_path, phases))
    finally:
        phases.remove()
    assert worker.check_compare(spec, tmp_path, rounds, phases) == []
    return spec, tmp_path, rounds, phases


def test_compare_check_catches_a_changed_report(compare_rounds):
    spec, work, rounds, phases = compare_rounds
    path = work / "compare" / "report.json"
    report = json.loads(path.read_text())
    report["rows"]["angular"]["rank1"]["per_seed"]["1"] += 0.25
    path.write_text(json.dumps(report))
    assert any("angular: rank1" in f for f in worker.check_compare(spec, work, rounds, phases))


def test_compare_check_catches_a_listed_failure(compare_rounds):
    spec, work, rounds, phases = compare_rounds
    path = work / "compare" / "report.json"
    report = json.loads(path.read_text())
    report["failures"] = {"1": {"l2": "Traceback"}}
    path.write_text(json.dumps(report))
    assert any("lists failures" in f for f in worker.check_compare(spec, work, rounds, phases))


def test_compare_check_catches_a_changed_teacher(compare_rounds):
    spec, work, rounds, phases = compare_rounds
    rounds[1]["teacher_digests"][3] = "0" * 64
    assert any("teacher.ckpt" in f for f in worker.check_compare(spec, work, rounds, phases))


def test_compare_check_catches_rounds_that_differ(compare_rounds):
    spec, work, rounds, phases = compare_rounds
    key = next(k for k in rounds[1]["digests"] if k.endswith("student_l2.ckpt"))
    rounds[1]["digests"][key] = "0" * 64
    assert any("differ between rounds" in f for f in worker.check_compare(spec, work, rounds, phases))


def test_compare_check_catches_a_wrong_checkpoint(compare_rounds):
    spec, work, rounds, phases = compare_rounds
    path = work / "compare" / "seed1" / "student_l2.ckpt"
    ckpt = load_checkpoint(path)
    ckpt.tensors["net.head.weight"] = np.zeros_like(ckpt.tensors["net.head.weight"])
    save_checkpoint(path, ckpt)
    assert any("report row l2" in f for f in worker.check_compare(spec, work, rounds, phases))
