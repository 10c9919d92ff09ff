"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. The
directional-ordering criterion trains the full 3-seed experiment matrix and is
marked slow; everything else completes in seconds.
"""

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

from spherekd import autodiff as ad
from spherekd.autodiff import Tensor
from spherekd.cli import main as cli_main
from spherekd.checkpoint import load_checkpoint
from spherekd.config import DataConfig, RunConfig, apply_overrides
from spherekd.data import build_identification_protocol, build_verification_protocol, generate_dataset
from spherekd.engine import run_experiment_matrix, train_teacher
from spherekd.evaluate import rank1_identification, verification_accuracy
from spherekd.losses import (
    angular_distill_loss,
    build_lambda_schedule,
    composite_loss,
    l2_distill_loss,
)
from spherekd.nets import ArchConfig, ClassifierHead, StagedNetwork, build_reference_pair, freeze
from spherekd.rng import substream

from .conftest import make_toy_config
from .test_evaluate import oracle_rank1, oracle_verification, random_unit_embeddings


def report(num: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")
    assert passed, f"criterion {num} failed: {description}{suffix}"


def test_criterion_01_reproducibility_statement():
    """Published large-scale accuracy numbers are out of scope by design."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text().split())
    stated = "not reproducible at this scale" in text
    report(
        1,
        "reproducibility statement: large-scale benchmark numbers are not "
        "desk-scale reproducible; acceptance rests on the property suite "
        "plus directional ordering",
        stated,
        "statement present in README",
    )


@pytest.mark.slow
def test_criterion_02_directional_ordering(tmp_path):
    """Angular >= self-studied and teacher >= students, mean over 3 seeds."""
    cfg = apply_overrides(RunConfig().validate(), [f"output_dir={tmp_path / 'matrix'}"])
    t0 = time.perf_counter()
    matrix = run_experiment_matrix(cfg, [0, 1, 2])
    elapsed = time.perf_counter() - t0

    rows = matrix["rows"]
    means = {row: rows[row]["verification_accuracy"]["mean"] for row in rows}
    assert not matrix["failures"], f"matrix cells failed: {matrix['failures']}"
    gap = means["angular"] - means["self_studied"]
    ordering = (
        gap >= 0.0
        and means["teacher"] >= means["self_studied"]
        and means["teacher"] >= means["l2"]
        and means["teacher"] >= means["angular"]
    )
    detail = (
        f"teacher={means['teacher']:.4f} self={means['self_studied']:.4f} "
        f"l2={means['l2']:.4f} angular={means['angular']:.4f} "
        f"gap={gap:+.4f} runtime={elapsed:.0f}s"
    )
    report(2, "directional ordering on the default 3-seed benchmark", ordering, detail)
    report(2, "3-seed matrix runtime under 30 minutes", elapsed < 1800, f"{elapsed:.0f}s")


def test_criterion_03_gradient_correctness(capsys):
    """All ops and the composite loss pass central differences at 1e-4."""
    from spherekd.gradcheck import run_suite

    results = run_suite(group="all", instances=5)
    failing = [r.name for r in results if not r.passed]
    worst = max(r.max_rel_err for r in results)
    exit_code = cli_main(["grad-check", "--module", "all", "--instances", "5"])
    capsys.readouterr()
    report(
        3,
        "finite-difference gradient checks (5 instances/op, rel err < 1e-4) "
        "and grad-check exit 0",
        not failing and exit_code == 0,
        f"worst rel err {worst:.2e}",
    )


def test_criterion_04_angular_loss_identities():
    rng = np.random.default_rng(99)
    ok = True
    u = rng.normal(size=(1, 16))
    ok &= angular_distill_loss(Tensor(u), Tensor(u)).item() <= 1e-10
    e1 = np.zeros((1, 16)); e1[0, 0] = 1.0
    e2 = np.zeros((1, 16)); e2[0, 1] = 1.0
    ok &= abs(angular_distill_loss(Tensor(e1), Tensor(e2)).item() - 1.0) <= 1e-10
    ok &= abs(angular_distill_loss(Tensor(u), Tensor(-u)).item() - 4.0) <= 1e-10
    worst_gap = 0.0
    for _ in range(100):
        t, s = rng.normal(size=(2, 8)), rng.normal(size=(2, 8))
        alpha, beta = rng.uniform(0.01, 100, size=2)
        base = angular_distill_loss(Tensor(t), Tensor(s)).item()
        scaled = angular_distill_loss(Tensor(alpha * t), Tensor(beta * s)).item()
        worst_gap = max(worst_gap, abs(base - scaled))
    ok &= worst_gap <= 1e-10
    report(
        4,
        "angular identities loss(u,u)=0, loss(u,perp)=1, loss(u,-u)=4 and "
        "positive-scale invariance over 100 pairs, all within 1e-10",
        bool(ok),
        f"worst scale-invariance gap {worst_gap:.2e}",
    )


def test_criterion_05_lambda_schedule_exactness():
    angular = build_lambda_schedule(1.0, 4)
    exact = angular == (0.125, 0.25, 0.5, 1.0)
    l2 = build_lambda_schedule(0.001, 4)
    close = all(
        abs(a - b) <= 1e-15
        for a, b in zip(l2, [0.000125, 0.00025, 0.0005, 0.001])
    )
    report(
        5,
        "lambda halving: build(1,4) == [0.125,0.25,0.5,1.0] exactly and "
        "build(0.001,4) within 1e-15",
        exact and close,
    )


def test_criterion_06_frozen_teacher(tmp_path):
    cfg = make_toy_config(tmp_path / "run")
    teacher_path, _ = train_teacher(cfg)
    before_bytes = teacher_path.read_bytes()
    before = load_checkpoint(teacher_path)
    code = cli_main(
        ["distill", "--out", str(tmp_path / "run"), "--teacher", str(teacher_path),
         "--kind", "angular"]
        + sum((["--set", o] for o in _toy_overrides()), [])
    )
    after_bytes = teacher_path.read_bytes()
    after = load_checkpoint(teacher_path)
    unchanged = code == 0 and before_bytes == after_bytes and all(
        np.array_equal(before.tensors[k], after.tensors[k]) for k in before.tensors
    )
    report(
        6,
        "distill run leaves teacher checkpoint bytes and parameters bitwise "
        "unchanged",
        unchanged,
    )


def _toy_overrides():
    from .conftest import TOY_OVERRIDES

    return TOY_OVERRIDES


def test_criterion_07_oracle_equivalence():
    ds = generate_dataset(3, DataConfig(
        num_train_classes=3, num_test_classes=5, samples_per_class=4,
        latent_dim=6, noise_sigma=0.3, image_size=8, num_distractors=10,
    ))
    iprot = build_identification_protocol(ds, seed=0)
    assert len(iprot.gallery_indices) <= 20
    all_ok = True
    for seed in range(20):
        vprot = build_verification_protocol(ds, pairs_per_side=20, folds=2, seed=seed)
        assert vprot.num_pairs <= 50
        e = random_unit_embeddings(ds.num_samples, 8, seed + 1000)
        got = verification_accuracy(e, vprot)
        want = oracle_verification(e, vprot)
        all_ok &= got == want
        all_ok &= rank1_identification(e, iprot) == oracle_rank1(e, iprot)
    report(
        7,
        "verification and rank-1 equal brute-force oracles exactly "
        "(<=50 pairs, <=20 gallery, 20 seeds)",
        bool(all_ok),
    )


def test_criterion_08_composition_invariant():
    arch = ArchConfig()
    net = StagedNetwork(arch, arch.teacher_channels, substream(5, "teacher-init"))
    freeze(net)
    rng = np.random.default_rng(41)
    split_ok = True
    for _ in range(10):
        x = Tensor(rng.normal(size=(2, 16, 16, 1)))
        feats, emb = net.forward(x)
        for split in range(1, net.num_stages + 1):
            y = feats[split - 1]
            for units in net.stages[split:]:
                for unit in units:
                    y = unit.forward(y)
            split_ok &= np.array_equal(net.head(y).data, emb.data)

    tiny = ArchConfig(
        input_size=8, in_channels=1, num_stages=2, teacher_channels=(4, 6),
        student_channels=(2, 3), block_depth=1, embedding_dim=4,
    )
    teacher, student, transforms = build_reference_pair(tiny, seed=6)
    freeze(teacher)
    head = ClassifierHead(4, tiny.embedding_dim, "normalized", 16.0, substream(6, "cls"))
    x = Tensor(rng.normal(size=(3, 8, 8, 1)))
    labels = rng.integers(0, 4, size=3)
    n = teacher.num_stages
    lambdas = build_lambda_schedule(1.0, n)
    _, parts = composite_loss(x, labels, teacher, student, transforms, head, "angular", lambdas)
    feats_t, _ = teacher.forward(x)
    feats_s, _ = student.forward(x)
    stage_ok = True
    for i in range(1, n):
        e_t = teacher.tail(i, feats_t[i - 1])
        e_s = teacher.tail(i, transforms[i - 1].forward(feats_s[i - 1]))
        stage_ok &= abs(parts[f"stage_{i}"] - angular_distill_loss(e_t, e_s).item()) <= 1e-12
    report(
        8,
        "stage-split forward is bitwise equal to full forward (10 inputs, all "
        "splits); each stage-i angular term of the composite loss (i < n) equals "
        "the angular loss on both features' teacher-tail embeddings within 1e-12",
        split_ok and stage_ok,
    )


def test_criterion_09_determinism(tmp_path):
    def run_all(out):
        assert cli_main(["gen-data", "--out", str(out)]
                        + sum((["--set", o] for o in _toy_overrides()), [])) == 0
        assert cli_main(["compare", "--out", str(out), "--seeds", "0"]
                        + sum((["--set", o] for o in _toy_overrides()), [])) == 0
        digests = {}
        for p in sorted(out.rglob("*")):
            if p.is_file():
                digests[str(p.relative_to(out))] = hashlib.sha256(p.read_bytes()).hexdigest()
        return digests

    out = tmp_path / "run"
    first = run_all(out)
    second = run_all(out)
    same = first == second
    report(
        9,
        "re-running identical commands reproduces every artifact bitwise "
        "(checkpoints, metrics, reports, caches)",
        same,
        f"{len(first)} files compared",
    )


def test_criterion_10_l2_vs_angular_contrast():
    rng = np.random.default_rng(77)
    t = rng.normal(size=(6, 16))
    s = 3.0 * t
    angular = angular_distill_loss(Tensor(t), Tensor(s)).item()
    exact = l2_distill_loss(Tensor(t), Tensor(s)).item()
    report(
        10,
        "student features = 3x teacher features: angular loss 0, squared "
        "distance strictly positive (the softer-constraint contrast)",
        angular <= 1e-10 and exact > 0.0,
        f"angular={angular:.2e} l2={exact:.3f}",
    )
