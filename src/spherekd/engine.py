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
from concurrent.futures import as_completed
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .autodiff import Tensor, check_finite, quiet_float_errors, softmax_cross_entropy
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
    dataset_params,
    generate_dataset,
)
from .errors import ConfigError, NumericError, describe
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

# the rows of `compare`'s report in order, each with the distill kind it trains;
# None is the teacher, which the seed's students read
ROWS = {"teacher": None, **{"self_studied" if k == "none" else k: k for k in DISTILL_KINDS}}
METRICS = ("verification_accuracy", "rank1")


# -- dataset / protocol assembly ------------------------------------------------


def dataset_from_config(cfg: RunConfig) -> SyntheticIdentityDataset:
    return generate_dataset(cfg.seed, cfg.data)


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


def _log(log, **record) -> None:
    """Write one metrics record to the open log `log`: a JSON object on a line of its own."""
    log.write(json.dumps(record, sort_keys=True) + "\n")


def _fit(cfg: RunConfig, role: str, kind: str, teacher, modules, lambdas, images, labels, epochs,
         log) -> None:
    """SGD on `modules` (network, head, transforms) over `epochs` shuffled passes.

    Writes the meta record to the open metrics log `log`, then one record
    per step and per epoch as they end. The teacher cache, the optimizer and
    its velocities live only in here, and a step's graph, teacher outputs
    and gradients only in `step`, so none of them outlives what reads it.
    """
    keep_freed_memory()
    net, head, *transforms = modules
    n_samples, batch_size = len(labels), cfg.train.batch_size
    steps_per_epoch = len(_batches(np.arange(n_samples), batch_size))
    _log(log, type="meta", role=role, kind=kind, lambdas=list(lambdas) if kind != "none" else [],
         epochs=epochs, steps_per_epoch=steps_per_epoch, config=asdict(cfg))
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
            _log(log, type="step", step=step_no, lr=lr, total=total, parts=parts)
        _log(log, type="epoch", epoch=epoch, mean_total=float(np.mean(epoch_totals)))


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
    The metrics log streams to a temporary file (`atomic_open`) that
    replaces `<stem>_metrics.jsonl` only once the checkpoint is saved, so a
    run that fails anywhere leaves the previous log and checkpoint as they
    were. Floating-point errors pass without a warning, and a NumericError
    reports them: a teacher that folds to non-finite values, a non-finite
    loss at a step, or non-finite train-set statistics at the end.
    `dataset`, if given, must be the config's own; None generates it.
    """
    cfg.validate()
    student = role == "student"
    kind = cfg.distill.kind if student else "none"
    stem = f"student_{kind}" if student else "teacher"
    if dataset is None:
        dataset = dataset_from_config(cfg)
    elif dataset.params != (params := dataset_params(cfg.seed, cfg.data)):
        raise ConfigError(f"dataset {dataset.params} is not the config's {params}")
    out = Path(cfg.output_dir)
    train_idx = dataset.train_indices
    images, labels = dataset.images[train_idx], dataset.labels[train_idx]

    teacher = None
    if kind != "none":
        if teacher_path is None:
            raise ConfigError(f"distill kind {kind!r} requires --teacher")
        teacher = load_network(cfg, teacher_path, role="teacher")  # frozen
        folded = [a for stage in teacher.stages for u in stage for a in (u.wmat, u.shift, u.slope)]
        if not all(np.isfinite(a).all() for a in [*folded, teacher.head_weight.data]):
            raise NumericError(f"{teacher_path}: the teacher's network folds to non-finite values")

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
    transforms = stage_transforms(arch, cfg.seed) if kind != "none" else []
    lam = cfg.distill.resolved_lambda_n() if student else 0.0
    lambdas = build_lambda_schedule(lam, arch.num_stages)
    if cfg.distill.final_stage_only:
        lambdas = (0.0,) * (arch.num_stages - 1) + (lam,)

    modules = [net, head, *transforms]
    epochs = cfg.train.student_epochs if student else cfg.train.teacher_epochs
    with quiet_float_errors(), atomic_open(out / f"{stem}_metrics.jsonl") as log:
        _fit(cfg, role, kind, teacher, modules, lambdas, images, labels, epochs, log)
        tensors = state_arrays(net, head)
        freeze(net)
        head.weight = Tensor(head.weight.data)
        train_loss, train_accuracy = _train_eval_stats(net, head, images, labels)
        if not np.isfinite([train_loss, train_accuracy]).all():
            raise NumericError(
                f"{role} run: non-finite train-set loss {train_loss} or accuracy {train_accuracy}"
            )
        summary = {"train_loss": train_loss, "train_accuracy": train_accuracy}
        _log(log, type="final", **summary, epochs=epochs)
        meta = {"role": role, "epoch": epochs, **summary, "classifier": asdict(cfg.classifier)}
        if student:
            meta["kind"] = kind
        log.flush()  # a full disk shows here, before the checkpoint replaces the old one
        path = save_checkpoint(out / f"{stem}.ckpt", Checkpoint(fingerprint_arch(arch), tensors, meta))
    return path, summary


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


# -- experiment matrix -------------------------------------------------------------


def run_seed_cells(base: RunConfig, seed: int) -> dict:
    """Train and score the network of each of the seed's `ROWS`, the teacher first."""
    cfg = replace(base, seed=seed, output_dir=str(Path(base.output_dir) / f"seed{seed}"))
    dataset = dataset_from_config(cfg)
    protocols = protocols_from_config(cfg, dataset)
    cells: dict[str, dict] = {}
    for row, kind in ROWS.items():
        try:
            if kind is None:
                path = teacher_path = train_teacher(cfg, dataset=dataset)[0]
            else:
                student = replace(cfg, distill=replace(cfg.distill, kind=kind))
                path = train_student(student, teacher_path, dataset=dataset)[0]
            cells[row] = evaluate_network(load_network(cfg, path), dataset, *protocols)
        except Exception as exc:
            cells[row] = {"error": f"{describe(exc)}\n{traceback.format_exc(limit=5)}"}
            if kind is None:
                break  # every student needs the teacher
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
    """Train and score the networks of `ROWS` for each seed; write and return their report.

    With `parallel` > 1 the seed cells run in at most one spawned process
    per seed, each with its share of the BLAS threads. An exception that
    escapes a seed's cells cancels the seeds the pool has not yet handed on
    (see `process_pool`); the others finish before it reaches the caller.
    """
    check_matrix_arguments(cfg, seeds, parallel)
    out = Path(cfg.output_dir)

    workers = min(parallel, len(seeds))
    if workers > 1:
        with process_pool(workers) as pool:
            seed_of = {pool.submit(run_seed_cells, cfg, s): s for s in seeds}
            # in the order the seeds end, so that an exception leaves the pool at once
            per_seed = {seed_of[f]: f.result() for f in as_completed(seed_of)}
    else:
        per_seed = {s: run_seed_cells(cfg, s) for s in seeds}

    report: dict = {"seeds": list(seeds), "rows": {}, "failures": {}}
    for row in ROWS:
        per_metric = {metric: {} for metric in METRICS}
        for s in seeds:
            cell = per_seed[s].get(row, {})
            if "error" in cell:
                report["failures"].setdefault(str(s), {})[row] = cell["error"]
            elif cell:
                for metric, values in per_metric.items():
                    values[str(s)] = cell[metric]
        report["rows"][row] = {
            metric: {"per_seed": v, "mean": float(np.mean(list(v.values()))) if v else None}
            for metric, v in per_metric.items()
        }

    with atomic_open(out / "report.json") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    with atomic_open(out / "summary.txt") as fh:
        fh.write(format_report(report))
    return report


def format_report(report: dict) -> str:
    def fmt(value):
        return "fail" if value is None else f"{value:.4f}"

    header = f"{'model':14s} {'verif.acc':>10s} {'rank1':>10s}   per-seed verif"
    lines = [header, "-" * len(header)]
    for row, cells in report["rows"].items():
        va, r1 = (fmt(cells[metric]["mean"]) for metric in METRICS)
        per = cells["verification_accuracy"]["per_seed"]
        per_txt = " ".join(fmt(per.get(str(s))) for s in report["seeds"])
        lines.append(f"{row:14s} {va:>10s} {r1:>10s}   {per_txt}")
    if report["failures"]:
        lines.append("")
        lines.append(f"failures: {sorted(report['failures'])}")
    return "\n".join(lines) + "\n"
