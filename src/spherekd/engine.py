"""Training orchestration: runs, checkpoints, metrics, and the experiment matrix.

A run is fully determined by its RunConfig. All randomness flows through named
substreams of the master seed, metrics logs carry no timestamps, and
checkpoints serialize every tensor plus optimizer and RNG state, so identical
configs reproduce identical bytes.
"""

from __future__ import annotations

import json
import math
import traceback
from pathlib import Path

import numpy as np

from . import rng as rngmod
from .autodiff import Tensor, check_finite, no_grad, softmax_cross_entropy
from .checkpoint import Checkpoint, fingerprint_arch, load_checkpoint, save_checkpoint
from .config import RunConfig, config_from_tree
from .data import (
    SyntheticIdentityDataset,
    build_identification_protocol,
    build_verification_protocol,
    generate_dataset,
)
from .errors import ConfigError, NumericError
from .evaluate import extract_embeddings, rank1_identification, verification_accuracy
from .losses import LambdaSchedule, build_lambda_schedule, composite_loss
from .nets import ClassifierHead, StagedNetwork, StudentTransform
from .optim import LrSchedule, SgdMomentum
from .rng import substream

MATRIX_KINDS = ("none", "l2", "angular")
ROW_NAMES = {"none": "self_studied", "l2": "l2", "angular": "angular"}


class MetricsLogger:
    """Append-only JSONL stream; one self-describing record per line."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w")

    def write(self, record: dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")

    def close(self) -> None:
        self._fh.close()


# -- dataset / protocol assembly ------------------------------------------------


def dataset_from_config(cfg: RunConfig) -> SyntheticIdentityDataset:
    d = cfg.data
    return generate_dataset(
        seed=cfg.seed,
        num_train_classes=d.num_train_classes,
        num_test_classes=d.num_test_classes,
        samples_per_class=d.samples_per_class,
        latent_dim=d.latent_dim,
        noise_sigma=d.noise_sigma,
        image_size=d.image_size,
        num_distractors=d.num_distractors,
        renderer_hidden=d.renderer_hidden,
    )


def protocols_from_config(cfg: RunConfig, dataset: SyntheticIdentityDataset):
    vprot = build_verification_protocol(
        dataset, cfg.data.pairs_per_side, cfg.data.folds, seed=cfg.seed
    )
    iprot = build_identification_protocol(dataset, seed=cfg.seed)
    return vprot, iprot


# -- training loop ---------------------------------------------------------------


def _batches(perm: np.ndarray, batch_size: int) -> list[np.ndarray]:
    out = []
    for start in range(0, len(perm), batch_size):
        chunk = perm[start : start + batch_size]
        if len(chunk) >= 2:  # batch norm needs a batch
            out.append(chunk)
    return out


def _schedule_for(cfg: RunConfig, total_steps: int) -> LrSchedule:
    decay_steps = tuple(int(math.floor(f * total_steps)) for f in cfg.train.decay_at)
    return LrSchedule(cfg.train.learning_rate, decay_steps, cfg.train.decay_factor)


def _train_eval_stats(net, head, images, labels, batch_size=64) -> tuple[float, float]:
    """Eval-mode classification loss and accuracy over the given samples."""
    losses, hits = [], 0
    with no_grad():
        for start in range(0, len(labels), batch_size):
            x = Tensor(images[start : start + batch_size])
            y = labels[start : start + batch_size]
            _, emb = net.forward(x, train=False)
            logits = head.logits(emb)
            losses.append(softmax_cross_entropy(logits, y).data)
            hits += int(np.sum(np.argmax(logits.data, axis=1) == y))
    all_losses = np.concatenate(losses)
    return float(all_losses.mean()), hits / len(labels)


def _precompute_teacher(teacher: StagedNetwork, images: np.ndarray, kind: str, batch_size=64):
    """Eval-mode teacher outputs for the whole training set.

    The teacher is frozen, so its features per sample never change during the
    student's training; caching them once avoids a forward pass per step.
    """
    if kind == "none" or teacher is None:
        return None, None
    emb_rows, feat_rows = [], [[] for _ in range(teacher.num_stages)]
    with no_grad():
        for start in range(0, images.shape[0], batch_size):
            x = Tensor(images[start : start + batch_size])
            feats, emb = teacher.forward(x, train=False)
            emb_rows.append(emb.data)
            if kind == "l2":
                for s, f in enumerate(feats):
                    feat_rows[s].append(f.data)
    emb_all = np.concatenate(emb_rows, axis=0)
    feats_all = None
    if kind == "l2":
        feats_all = [np.concatenate(rows, axis=0) for rows in feat_rows]
    return feats_all, emb_all


def _training_run(
    *,
    cfg: RunConfig,
    role: str,
    net: StagedNetwork,
    head: ClassifierHead,
    transforms: list[StudentTransform],
    teacher: StagedNetwork | None,
    kind: str,
    schedule: LambdaSchedule,
    images: np.ndarray,
    labels: np.ndarray,
    epochs: int,
    shuffle_purpose: str,
    logger: MetricsLogger,
    resume: Checkpoint | None = None,
) -> dict:
    params: dict[str, Tensor] = {f"net.{k}": v for k, v in net.trainable_params().items()}
    params["classifier.weight"] = head.weight
    if kind != "none":
        for tr in transforms[: net.num_stages - 1]:
            for k, v in tr.trainable_params().items():
                params[k] = v

    n_samples = len(labels)
    steps_per_epoch = len(_batches(np.arange(n_samples), cfg.train.batch_size))
    total_steps = epochs * steps_per_epoch
    opt = SgdMomentum(params, _schedule_for(cfg, total_steps), cfg.train.momentum)
    shuffle_rng = substream(cfg.seed, shuffle_purpose)
    start_epoch = 0

    if resume is not None:
        for name, p in params.items():
            p.data = resume.tensors[name].copy()
        net.load_buffers(
            {k[len("net.") :]: v for k, v in resume.tensors.items() if ".running_" in k and k.startswith("net.")}
        )
        for tr in transforms:
            keys = tr.buffers().keys()
            if all(k in resume.tensors for k in keys):
                tr.load_buffers({k: resume.tensors[k] for k in keys})
        # velocities and step position come from the checkpoint; the lr
        # schedule is always derived from the current config's total steps
        opt.step_count = resume.meta["optimizer"]["step_count"]
        for name in opt.velocity:
            opt.velocity[name] = resume.velocities[name].copy()
        shuffle_rng = rngmod.restore_generator(resume.meta["rng_state"])
        start_epoch = resume.meta["epoch"]

    logger.write(
        {
            "type": "meta",
            "role": role,
            "kind": kind,
            "lambdas": list(schedule.weights) if kind != "none" else [],
            "epochs": epochs,
            "steps_per_epoch": steps_per_epoch,
            "config": cfg.canonical(),
        }
    )

    feats_cache, emb_cache = _precompute_teacher(teacher, images, kind)
    step = opt.step_count
    for epoch in range(start_epoch, epochs):
        perm = shuffle_rng.permutation(n_samples)
        epoch_totals = []
        for batch_no, idx in enumerate(_batches(perm, cfg.train.batch_size)):
            x = Tensor(images[idx])
            y = labels[idx]
            teacher_out = None
            if kind != "none":
                feats = None
                if feats_cache is not None:
                    feats = [Tensor(f[idx]) for f in feats_cache]
                teacher_out = (feats, Tensor(emb_cache[idx]))
            total, parts = composite_loss(
                x, y, teacher, net, transforms, head, kind, schedule,
                train=True, teacher_out=teacher_out,
            )
            try:
                check_finite(total, "loss")
            except NumericError as exc:
                raise NumericError(
                    f"{role} run: non-finite loss at epoch {epoch} batch {batch_no}"
                ) from exc
            opt.zero_grad()
            total.backward()
            lr = opt.step()
            epoch_totals.append(total.item())
            logger.write(
                {"type": "step", "step": step, "lr": lr, "total": total.item(), "parts": parts}
            )
            step += 1
        logger.write(
            {"type": "epoch", "epoch": epoch, "mean_total": float(np.mean(epoch_totals))}
        )

    final_loss, final_acc = _train_eval_stats(net, head, images, labels)
    logger.write(
        {"type": "final", "train_loss": final_loss, "train_accuracy": final_acc, "epochs": epochs}
    )
    return {
        "train_loss": final_loss,
        "train_accuracy": final_acc,
        "optimizer": opt,
        "shuffle_rng": shuffle_rng,
        "epochs": epochs,
    }


def _collect_tensors(net, head, transforms, kind) -> dict[str, np.ndarray]:
    tensors: dict[str, np.ndarray] = {}
    for k, v in net.trainable_params().items():
        tensors[f"net.{k}"] = v.data
    for k, v in net.buffers().items():
        tensors[f"net.{k}"] = v
    tensors["classifier.weight"] = head.weight.data
    if kind != "none":
        for tr in transforms:
            for k, v in tr.trainable_params().items():
                tensors[k] = v.data
            for k, v in tr.buffers().items():
                tensors[k] = v
    return tensors


def train_teacher(cfg: RunConfig, out_dir: str | Path | None = None, resume: Checkpoint | None = None):
    """Train the wide network with classification loss only; persist checkpoint."""
    cfg.validate()
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset = dataset_from_config(cfg)
    train_idx = dataset.train_indices
    images, labels = dataset.images[train_idx], dataset.labels[train_idx]

    net = StagedNetwork(cfg.arch, cfg.arch.teacher_channels, substream(cfg.seed, "teacher-init"))
    head = ClassifierHead(
        cfg.data.num_train_classes,
        cfg.arch.embedding_dim,
        cfg.classifier.mode,
        cfg.classifier.scale,
        substream(cfg.seed, "teacher-classifier-init"),
    )
    logger = MetricsLogger(out / "teacher_metrics.jsonl")
    try:
        summary = _training_run(
            cfg=cfg, role="teacher", net=net, head=head, transforms=[], teacher=None,
            kind="none", schedule=build_lambda_schedule(0.0, cfg.arch.num_stages),
            images=images, labels=labels, epochs=cfg.train.teacher_epochs,
            shuffle_purpose="teacher-shuffle", logger=logger, resume=resume,
        )
    finally:
        logger.close()

    ckpt = Checkpoint(
        fingerprint=fingerprint_arch(cfg.arch),
        tensors=_collect_tensors(net, head, [], "none"),
        meta={
            "role": "teacher",
            "epoch": summary["epochs"],
            "optimizer": summary["optimizer"].state(),
            "rng_state": rngmod.generator_state(summary["shuffle_rng"]),
            "train_loss": summary["train_loss"],
            "train_accuracy": summary["train_accuracy"],
            "classifier": {"mode": cfg.classifier.mode, "scale": cfg.classifier.scale},
        },
        velocities=summary["optimizer"].velocity,
    )
    path = save_checkpoint(out / "teacher.ckpt", ckpt)
    return path, {
        "train_loss": summary["train_loss"],
        "train_accuracy": summary["train_accuracy"],
    }


def _rebuild_network(cfg: RunConfig, ckpt: Checkpoint) -> tuple[StagedNetwork, ClassifierHead]:
    role = ckpt.meta["role"]
    channels = cfg.arch.teacher_channels if role == "teacher" else cfg.arch.student_channels
    net = StagedNetwork(cfg.arch, channels, substream(0, "rebuild"))
    for k, v in net.trainable_params().items():
        v.data = ckpt.tensors[f"net.{k}"].copy()
    net.load_buffers(
        {k[len("net.") :]: v for k, v in ckpt.tensors.items() if k.startswith("net.") and ".running_" in k}
    )
    cls_meta = ckpt.meta.get("classifier", {})
    head = ClassifierHead(
        ckpt.tensors["classifier.weight"].shape[0],
        cfg.arch.embedding_dim,
        cls_meta.get("mode", cfg.classifier.mode),
        cls_meta.get("scale", cfg.classifier.scale),
        substream(0, "rebuild"),
    )
    head.weight.data = ckpt.tensors["classifier.weight"].copy()
    return net, head


def load_teacher(cfg: RunConfig, path: str | Path) -> StagedNetwork:
    """Load, verify, and freeze a teacher checkpoint for distillation."""
    ckpt = load_checkpoint(path)
    if ckpt.meta.get("role") != "teacher":
        raise ConfigError(f"{path}: checkpoint role is {ckpt.meta.get('role')!r}, not teacher")
    expected = fingerprint_arch(cfg.arch)
    if ckpt.fingerprint != expected:
        raise ConfigError(
            f"{path}: architecture fingerprint mismatch "
            f"(checkpoint {ckpt.fingerprint[:12]}.., config {expected[:12]}..)"
        )
    net, _ = _rebuild_network(cfg, ckpt)
    net.freeze()
    return net


def train_student(
    cfg: RunConfig,
    teacher_path: str | Path | None,
    out_dir: str | Path | None = None,
    resume: Checkpoint | None = None,
):
    """Train the narrow network under the configured distillation objective."""
    cfg.validate()
    kind = cfg.distill.kind
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset = dataset_from_config(cfg)
    train_idx = dataset.train_indices
    images, labels = dataset.images[train_idx], dataset.labels[train_idx]

    teacher = None
    if kind != "none":
        if teacher_path is None:
            raise ConfigError(f"distill kind {kind!r} requires --teacher")
        teacher = load_teacher(cfg, teacher_path)

    student = StagedNetwork(cfg.arch, cfg.arch.student_channels, substream(cfg.seed, "student-init"))
    t_rng = substream(cfg.seed, "transform-init")
    transforms = [
        StudentTransform(i + 1, cfg.arch.student_channels[i], cfg.arch.teacher_channels[i], t_rng)
        for i in range(cfg.arch.num_stages)
    ]
    head = ClassifierHead(
        cfg.data.num_train_classes,
        cfg.arch.embedding_dim,
        cfg.classifier.mode,
        cfg.classifier.scale,
        substream(cfg.seed, "student-classifier-init"),
    )
    lam = cfg.distill.resolved_lambda_n()
    schedule = build_lambda_schedule(lam, cfg.arch.num_stages)
    if cfg.distill.final_stage_only:
        schedule = LambdaSchedule((0.0,) * (cfg.arch.num_stages - 1) + (lam,))

    logger = MetricsLogger(out / f"student_{kind}_metrics.jsonl")
    try:
        summary = _training_run(
            cfg=cfg, role="student", net=student, head=head, transforms=transforms,
            teacher=teacher, kind=kind, schedule=schedule, images=images, labels=labels,
            epochs=cfg.train.student_epochs, shuffle_purpose="student-shuffle",
            logger=logger, resume=resume,
        )
    finally:
        logger.close()

    ckpt = Checkpoint(
        fingerprint=fingerprint_arch(cfg.arch),
        tensors=_collect_tensors(student, head, transforms, kind),
        meta={
            "role": "student",
            "kind": kind,
            "epoch": summary["epochs"],
            "optimizer": summary["optimizer"].state(),
            "rng_state": rngmod.generator_state(summary["shuffle_rng"]),
            "train_loss": summary["train_loss"],
            "train_accuracy": summary["train_accuracy"],
            "classifier": {"mode": cfg.classifier.mode, "scale": cfg.classifier.scale},
        },
        velocities=summary["optimizer"].velocity,
    )
    path = save_checkpoint(out / f"student_{kind}.ckpt", ckpt)
    return path, {
        "train_loss": summary["train_loss"],
        "train_accuracy": summary["train_accuracy"],
    }


# -- evaluation ------------------------------------------------------------------


def evaluate_network(net: StagedNetwork, dataset, vprot, iprot) -> dict:
    embeddings = extract_embeddings(net, dataset.images)
    acc, threshold = verification_accuracy(embeddings, vprot)
    rank1 = rank1_identification(embeddings, iprot)
    return {
        "verification_accuracy": acc,
        "verification_threshold": threshold,
        "rank1": rank1,
    }


def evaluate_checkpoint(cfg: RunConfig, ckpt_path: str | Path) -> dict:
    cfg.validate()
    ckpt = load_checkpoint(ckpt_path)
    expected = fingerprint_arch(cfg.arch)
    if ckpt.fingerprint != expected:
        raise ConfigError(f"{ckpt_path}: architecture fingerprint mismatch with config")
    net, _ = _rebuild_network(cfg, ckpt)
    dataset = dataset_from_config(cfg)
    vprot, iprot = protocols_from_config(cfg, dataset)
    return evaluate_network(net, dataset, vprot, iprot)


# -- experiment matrix -------------------------------------------------------------


def _with_updates(cfg: RunConfig, **scalars) -> RunConfig:
    tree = cfg.canonical()
    for key, value in scalars.items():
        node = tree
        parts = key.split(".")
        for p in parts[:-1]:
            node = node[p]
        node[parts[-1]] = value
    return config_from_tree(tree)


def run_seed_cells(cfg_tree: dict, seed: int) -> dict:
    """Train teacher + the three student variants for one seed; evaluate all."""
    base = config_from_tree(cfg_tree)
    cfg = _with_updates(base, **{"seed": seed, "output_dir": str(Path(base.output_dir) / f"seed{seed}")})
    dataset = dataset_from_config(cfg)
    vprot, iprot = protocols_from_config(cfg, dataset)
    cells: dict[str, dict] = {}

    try:
        teacher_path, t_summary = train_teacher(cfg)
        ckpt = load_checkpoint(teacher_path)
        net, _ = _rebuild_network(cfg, ckpt)
        cells["teacher"] = evaluate_network(net, dataset, vprot, iprot) | {
            "train_accuracy": t_summary["train_accuracy"]
        }
    except Exception:
        cells["teacher"] = {"error": traceback.format_exc(limit=5)}
        return cells

    for kind in MATRIX_KINDS:
        row = ROW_NAMES[kind]
        try:
            cfg_k = _with_updates(cfg, **{"distill.kind": kind, "distill.lambda_n": cfg.distill.lambda_n})
            student_path, s_summary = train_student(cfg_k, teacher_path)
            ckpt = load_checkpoint(student_path)
            net, _ = _rebuild_network(cfg_k, ckpt)
            cells[row] = evaluate_network(net, dataset, vprot, iprot) | {
                "train_accuracy": s_summary["train_accuracy"]
            }
        except Exception:
            cells[row] = {"error": traceback.format_exc(limit=5)}
    return cells


def run_experiment_matrix(cfg: RunConfig, seeds: list[int], parallel: int = 1) -> dict:
    """Teacher plus self-studied / exact-match / angular students per seed."""
    cfg.validate()
    if not seeds:
        raise ConfigError("need at least one seed")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    tree = cfg.canonical()

    if parallel > 1 and len(seeds) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=parallel) as pool:
            futures = [pool.submit(run_seed_cells, tree, s) for s in seeds]
            per_seed = {s: f.result() for s, f in zip(seeds, futures)}
    else:
        per_seed = {s: run_seed_cells(tree, s) for s in seeds}

    rows = ["teacher", "self_studied", "l2", "angular"]
    metrics = ["verification_accuracy", "rank1"]
    report: dict = {"seeds": list(seeds), "rows": {}, "failures": {}}
    for row in rows:
        report["rows"][row] = {}
        for metric in metrics:
            values = {}
            for s in seeds:
                cell = per_seed[s].get(row, {})
                if "error" in cell:
                    report["failures"].setdefault(str(s), {})[row] = cell["error"]
                elif cell:
                    values[str(s)] = cell[metric]
            report["rows"][row][metric] = {
                "per_seed": values,
                "mean": float(np.mean(list(values.values()))) if values else None,
            }

    (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    (out / "summary.txt").write_text(format_report(report))
    return report


def format_report(report: dict) -> str:
    lines = []
    seeds = report["seeds"]
    header = f"{'model':14s} {'verif.acc':>10s} {'rank1':>10s}   per-seed verif"
    lines.append(header)
    lines.append("-" * len(header))
    for row in ("teacher", "self_studied", "l2", "angular"):
        cells = report["rows"][row]
        va = cells["verification_accuracy"]["mean"]
        r1 = cells["rank1"]["mean"]
        per = cells["verification_accuracy"]["per_seed"]
        per_txt = " ".join(f"{per[str(s)]:.4f}" if str(s) in per else "fail" for s in seeds)
        va_txt = f"{va:.4f}" if va is not None else "fail"
        r1_txt = f"{r1:.4f}" if r1 is not None else "fail"
        lines.append(f"{row:14s} {va_txt:>10s} {r1_txt:>10s}   {per_txt}")
    if report["failures"]:
        lines.append("")
        lines.append(f"failures: {sorted(report['failures'])}")
    return "\n".join(lines) + "\n"
