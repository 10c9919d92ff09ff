"""Training orchestration: runs, checkpoints, metrics, and the experiment matrix.

A run is fully determined by its RunConfig. All randomness flows through named
substreams of the master seed, metrics logs carry no timestamps, and
checkpoints hold only the trained network, its classifier and a short meta,
so identical configs reproduce identical bytes.
"""

from __future__ import annotations

import json
import math
import traceback
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

import numpy as np

from .autodiff import Tensor, check_finite, softmax_cross_entropy
from .checkpoint import (
    Checkpoint,
    atomic_open,
    fingerprint_arch,
    load_checkpoint,
    restore,
    save_checkpoint,
)
from .config import RunConfig
from .data import (
    SyntheticIdentityDataset,
    build_identification_protocol,
    build_verification_protocol,
    generate_dataset,
)
from .errors import ConfigError, NumericError
from .evaluate import extract_embeddings, frozen_pass, rank1_identification, verification_accuracy
from .losses import DISTILL_KINDS, build_lambda_schedule, composite_loss
from .nets import (
    ClassifierHead,
    StagedNetwork,
    freeze,
    parameters,
    stage_transforms,
    state_arrays,
)
from .optim import LrSchedule, SgdMomentum
from .parallel import keep_freed_memory, process_pool
from .rng import substream

# report row of each distillation kind; the teacher's row comes first
ROW_NAMES = {kind: "self_studied" if kind == "none" else kind for kind in DISTILL_KINDS}
ROWS = ["teacher", *ROW_NAMES.values()]


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


def _data_params(cfg: RunConfig) -> dict:
    """The seed and the generation fields of `cfg.data`: the dataset's `params`."""
    params = {"seed": cfg.seed, **asdict(cfg.data)}
    del params["pairs_per_side"], params["folds"]  # protocol fields
    return params


def dataset_from_config(cfg: RunConfig) -> SyntheticIdentityDataset:
    return generate_dataset(**_data_params(cfg))


def protocols_from_config(cfg: RunConfig, dataset: SyntheticIdentityDataset):
    vprot = build_verification_protocol(
        dataset, cfg.data.pairs_per_side, cfg.data.folds, seed=cfg.seed
    )
    iprot = build_identification_protocol(dataset, seed=cfg.seed)
    return vprot, iprot


# -- training loop ---------------------------------------------------------------


def _batches(perm: np.ndarray, batch_size: int) -> list[np.ndarray]:
    # batch norm needs a batch, so a last chunk of one sample is dropped
    starts = range(0, len(perm) - 1, batch_size)
    return [perm[start : start + batch_size] for start in starts]


def _schedule_for(cfg: RunConfig, total_steps: int) -> LrSchedule:
    decay_steps = tuple(int(math.floor(f * total_steps)) for f in cfg.train.decay_at)
    return LrSchedule(cfg.train.learning_rate, decay_steps, cfg.train.decay_factor)


def _train_eval_stats(net, head, images, labels) -> tuple[float, float]:
    """Eval-mode classification loss and accuracy of the frozen `net` over the given samples.

    The embeddings come from `frozen_pass`; the head, its weight already a
    constant, then scores all rows at once.
    """
    embeddings = np.empty((len(labels), net.arch.embedding_dim))
    frozen_pass(net, images, np.arange(len(labels)), embeddings)
    logits = head.logits(Tensor(embeddings))
    hits = int(np.count_nonzero(np.argmax(logits.data, axis=1) == labels))
    return float(softmax_cross_entropy(logits, labels).data.mean()), hits / len(labels)


def _precompute_teacher(teacher: StagedNetwork, images: np.ndarray, kind: str):
    """Eval-mode outputs of the frozen teacher for the whole training set.

    The teacher is frozen, so its features per sample never change during the
    student's training; caching them once avoids a forward pass per step.
    `frozen_pass` writes them into arrays allocated once for the whole set.
    """
    if kind == "none":
        return None, None
    n, arch = images.shape[0], teacher.arch
    emb_all = np.empty((n, arch.embedding_dim))
    feats_all = None
    if kind == "l2":  # composite_loss reads stages 1..n-1 only
        sides = arch.stage_sizes()[:-1]
        feats_all = [np.empty((n, s, s, c)) for s, c in zip(sides, teacher.channels)]
    frozen_pass(teacher, images, np.arange(n), emb_all, feats_all or ())
    return feats_all, emb_all


def _fit(cfg: RunConfig, role: str, kind: str, teacher, modules, lambdas, images, labels, epochs,
         logger) -> None:
    """SGD on `modules` (network, head, transforms) over `epochs` shuffled passes.

    Writes the metrics log's meta record, then one record per step and per
    epoch. The teacher cache, the optimizer and its velocities live only in
    here, and a step's graph, teacher outputs and gradients only in `step`,
    so none of them outlives what reads it.
    """
    keep_freed_memory()
    net, head, *transforms = modules
    n_samples, batch_size = len(labels), cfg.train.batch_size
    steps_per_epoch = len(_batches(np.arange(n_samples), batch_size))
    logger.write(
        {
            "type": "meta",
            "role": role,
            "kind": kind,
            "lambdas": list(lambdas) if kind != "none" else [],
            "epochs": epochs,
            "steps_per_epoch": steps_per_epoch,
            "config": asdict(cfg),
        }
    )
    feats_cache, emb_cache = _precompute_teacher(teacher, images, kind)
    opt = SgdMomentum(
        parameters(*modules), _schedule_for(cfg, epochs * steps_per_epoch), cfg.train.momentum
    )
    shuffle_rng = substream(cfg.seed, f"{role}-shuffle")

    def step(idx: np.ndarray, where: str) -> tuple[float, dict[str, float], float]:
        """One update on the samples `idx`: the loss, its terms and the learning rate."""
        teacher_out = None
        if emb_cache is not None:
            feats = None if feats_cache is None else [Tensor(f[idx]) for f in feats_cache]
            teacher_out = (feats, Tensor(emb_cache[idx]))
        total, parts = composite_loss(
            Tensor(images[idx]), labels[idx], teacher, net, transforms, head, kind,
            lambdas, teacher_out=teacher_out,
        )
        try:
            check_finite(total, "loss")
        except NumericError as exc:
            raise NumericError(f"{role} run: non-finite loss at {where}") from exc
        total.backward()
        lr = opt.step()
        opt.zero_grad()
        return total.item(), parts, lr

    for epoch in range(epochs):
        perm = shuffle_rng.permutation(n_samples)
        epoch_totals = []
        for batch_no, idx in enumerate(_batches(perm, batch_size)):
            total, parts, lr = step(idx, f"epoch {epoch} batch {batch_no}")
            epoch_totals.append(total)
            step_no = epoch * steps_per_epoch + batch_no
            logger.write({"type": "step", "step": step_no, "lr": lr, "total": total, "parts": parts})
        logger.write({"type": "epoch", "epoch": epoch, "mean_total": float(np.mean(epoch_totals))})


def _train(cfg: RunConfig, role: str, teacher_path, dataset):
    """Train one network and persist its checkpoint and metrics log.

    Teacher and students share this scheme. A student differs only in width
    and in the distillation terms its loss adds, which need the frozen
    teacher and the transforms of stages 1..n-1 (the final stage compares
    embeddings directly). The checkpoint holds the network and the
    classifier, not the transforms, and goes to `cfg.output_dir`; its
    arrays are taken before the network is frozen and the classifier weight
    made a constant for the final train-set statistics, so that pass records
    no graph.
    `dataset`, if given, must be the config's own; None generates it.
    """
    cfg.validate()
    student = role == "student"
    kind = cfg.distill.kind if student else "none"
    stem = f"student_{kind}" if student else "teacher"
    if dataset is None:
        dataset = dataset_from_config(cfg)
    elif dataset.params != _data_params(cfg):
        raise ConfigError(f"dataset {dataset.params} is not the config's {_data_params(cfg)}")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_idx = dataset.train_indices
    images, labels = dataset.images[train_idx], dataset.labels[train_idx]

    teacher = None
    if kind != "none":
        if teacher_path is None:
            raise ConfigError(f"distill kind {kind!r} requires --teacher")
        teacher = load_network(cfg, teacher_path, role="teacher")  # frozen

    arch = cfg.arch
    channels = arch.student_channels if student else arch.teacher_channels
    net = StagedNetwork(arch, channels, substream(cfg.seed, f"{role}-init"))
    head = ClassifierHead(
        cfg.data.num_train_classes,
        arch.embedding_dim,
        cfg.classifier.mode,
        cfg.classifier.scale,
        substream(cfg.seed, f"{role}-classifier-init"),
    )
    transforms = stage_transforms(arch, cfg.seed)[:-1] if kind != "none" else []
    lam = cfg.distill.resolved_lambda_n() if student else 0.0
    lambdas = build_lambda_schedule(lam, arch.num_stages)
    if cfg.distill.final_stage_only:
        lambdas = (0.0,) * (arch.num_stages - 1) + (lam,)

    modules = [net, head, *transforms]
    epochs = cfg.train.student_epochs if student else cfg.train.teacher_epochs
    logger = MetricsLogger(out / f"{stem}_metrics.jsonl")
    try:
        _fit(cfg, role, kind, teacher, modules, lambdas, images, labels, epochs, logger)
        tensors = state_arrays(net, head)
        freeze(net)
        head.weight = Tensor(head.weight.data)
        train_loss, train_accuracy = _train_eval_stats(net, head, images, labels)
        logger.write(
            {
                "type": "final",
                "train_loss": train_loss,
                "train_accuracy": train_accuracy,
                "epochs": epochs,
            }
        )
    finally:
        logger.close()

    meta = {
        "role": role,
        "epoch": epochs,
        "train_loss": train_loss,
        "train_accuracy": train_accuracy,
        "classifier": {"mode": cfg.classifier.mode, "scale": cfg.classifier.scale},
    }
    if student:
        meta["kind"] = kind
    ckpt = Checkpoint(fingerprint_arch(arch), tensors, meta)
    path = save_checkpoint(out / f"{stem}.ckpt", ckpt)
    return path, {"train_loss": train_loss, "train_accuracy": train_accuracy}


def train_teacher(cfg: RunConfig, dataset: SyntheticIdentityDataset | None = None):
    """Train the wide network with classification loss only; persist checkpoint."""
    return _train(cfg, "teacher", None, dataset)


def train_student(
    cfg: RunConfig,
    teacher_path: str | Path | None,
    dataset: SyntheticIdentityDataset | None = None,
):
    """Train the narrow network under the configured distillation objective."""
    return _train(cfg, "student", teacher_path, dataset)


def _rebuild_network(cfg: RunConfig, ckpt: Checkpoint) -> tuple[StagedNetwork, None]:
    """The checkpoint's network, frozen, and, in place of its classifier, None.

    Only the network's own tensors are read: evaluation never uses the
    classifier, so a checkpoint without `classifier.weight` loads the same.
    A loaded network is only evaluated or distilled from, never trained, so
    it is frozen here: it keeps its folded units and its head, and the
    unfolded values restored from the checkpoint are dropped.
    """
    teacher = ckpt.meta.get("role") == "teacher"
    channels = cfg.arch.teacher_channels if teacher else cfg.arch.student_channels
    net = StagedNetwork(cfg.arch, channels, substream(0, "rebuild"))
    restore(state_arrays(net), ckpt.tensors)
    freeze(net)
    return net, None


def load_network(cfg: RunConfig, path: str | Path, role: str | None = None) -> StagedNetwork:
    """The network of the checkpoint at `path`, checked against the config's architecture.

    The network comes back frozen (see `_rebuild_network`): folded units and
    a constant head only.
    """
    ckpt = load_checkpoint(path)
    if role is not None and ckpt.meta.get("role") != role:
        raise ConfigError(f"{path}: checkpoint role is {ckpt.meta.get('role')!r}, not {role}")
    expected = fingerprint_arch(cfg.arch)
    if ckpt.fingerprint != expected:
        raise ConfigError(
            f"{path}: architecture fingerprint mismatch "
            f"(checkpoint {ckpt.fingerprint[:12]}.., config {expected[:12]}..)"
        )
    return _rebuild_network(cfg, ckpt)[0]


# -- evaluation ------------------------------------------------------------------


def evaluate_network(net: StagedNetwork, dataset, vprot, iprot) -> dict:
    """Both open-set metrics; only the samples the protocols score are embedded."""
    scored = np.unique(
        np.concatenate([vprot.index_a, vprot.index_b, iprot.gallery_indices, iprot.probe_indices])
    )
    embeddings = extract_embeddings(net, dataset.images, scored)
    acc, threshold = verification_accuracy(embeddings, vprot)
    rank1 = rank1_identification(embeddings, iprot)
    return {
        "verification_accuracy": acc,
        "verification_threshold": threshold,
        "rank1": rank1,
    }


def evaluate_checkpoint(cfg: RunConfig, ckpt_path: str | Path) -> dict:
    cfg.validate()
    net = load_network(cfg, ckpt_path)
    dataset = dataset_from_config(cfg)
    vprot, iprot = protocols_from_config(cfg, dataset)
    return evaluate_network(net, dataset, vprot, iprot)


def train_and_score(cfg: RunConfig, role: str, teacher_path, dataset, vprot, iprot):
    """Train one network on `dataset`, then score its checkpoint on the protocols.

    Returns the checkpoint path and the metrics.
    """
    if role == "teacher":
        path, _ = train_teacher(cfg, dataset=dataset)
    else:
        path, _ = train_student(cfg, teacher_path, dataset=dataset)
    net = load_network(cfg, path)
    return path, evaluate_network(net, dataset, vprot, iprot)


# -- experiment matrix -------------------------------------------------------------


def run_seed_cells(base: RunConfig, seed: int) -> dict:
    """Train teacher + the three student variants for one seed; evaluate all."""
    cfg = replace(base, seed=seed, output_dir=str(Path(base.output_dir) / f"seed{seed}"))
    dataset = dataset_from_config(cfg)
    protocols = protocols_from_config(cfg, dataset)
    runs = [("teacher", "teacher", cfg)] + [
        (row, "student", replace(cfg, distill=replace(cfg.distill, kind=kind)))
        for kind, row in ROW_NAMES.items()
    ]
    cells: dict[str, dict] = {}
    teacher_path = None
    for row, role, cfg_k in runs:
        try:
            path, cells[row] = train_and_score(cfg_k, role, teacher_path, dataset, *protocols)
        except Exception:
            cells[row] = {"error": traceback.format_exc(limit=5)}
            if role == "teacher":
                break  # every student needs the teacher
        if role == "teacher":
            teacher_path = path
    return cells


def check_matrix_arguments(cfg: RunConfig, seeds: list[int], parallel: int) -> None:
    """Raise ConfigError unless `run_experiment_matrix` can run `cfg` over these arguments.

    `compare` calls it before it writes anything to the output directory.
    """
    cfg.validate()
    if not seeds:
        raise ConfigError("need at least one seed")
    for s in seeds:
        replace(cfg, seed=s).validate()
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"duplicate seeds in {seeds}: each seed writes its own seed<N>/ files")
    if parallel < 1:
        raise ConfigError(f"parallel must be >= 1, got {parallel}")


def run_experiment_matrix(cfg: RunConfig, seeds: list[int], parallel: int = 1) -> dict:
    """Teacher plus self-studied / exact-match / angular students per seed.

    With `parallel` > 1 the seed cells run in at most one spawned process
    per seed, each with its share of the BLAS threads.
    """
    check_matrix_arguments(cfg, seeds, parallel)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    workers = min(parallel, len(seeds))
    if workers > 1:
        with process_pool(workers) as pool:
            per_seed = dict(zip(seeds, pool.map(partial(run_seed_cells, cfg), seeds)))
    else:
        per_seed = {s: run_seed_cells(cfg, s) for s in seeds}

    metrics = ["verification_accuracy", "rank1"]
    report: dict = {"seeds": list(seeds), "rows": {}, "failures": {}}
    for row in ROWS:
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

    with atomic_open(out / "report.json") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    with atomic_open(out / "summary.txt") as fh:
        fh.write(format_report(report))
    return report


def format_report(report: dict) -> str:
    lines = []
    seeds = report["seeds"]
    header = f"{'model':14s} {'verif.acc':>10s} {'rank1':>10s}   per-seed verif"
    lines.append(header)
    lines.append("-" * len(header))
    for row in ROWS:
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
