"""Output checks computed apart from the program.

Nothing here calls spherekd. Checkpoints are parsed from their documented
binary layout, embeddings come from a direct numpy forward pass, and the
open-set metrics are recomputed with vectorized code of this file's own. Each
check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

BN_EPS = 1e-5  # nets.BatchNorm default
NORM_EPS = 1e-12  # floor of the embedding norm in evaluation
EMBED_TOL = 1e-10  # max abs difference between unit embeddings
LOSS_RTOL = 1e-12  # relative tolerance of the loss decomposition


# -- checkpoint parsing ---------------------------------------------------------


def _tensors(blob: bytes, pos: int) -> tuple[dict[str, np.ndarray], int]:
    (count,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    out = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", blob, pos)
        name = blob[pos + 4 : pos + 4 + name_len].decode("utf-8")
        pos += 4 + name_len
        (rank,) = struct.unpack_from("<I", blob, pos)
        dims = struct.unpack_from(f"<{rank}I", blob, pos + 4)
        pos += 4 + 4 * rank
        size = int(np.prod(dims, dtype=np.int64))
        out[name] = np.frombuffer(blob, dtype="<f8", count=size, offset=pos).reshape(dims)
        pos += 8 * size
    return out, pos


def read_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Tensors and metadata of a `STNT` checkpoint file."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"STNT":
        raise ValueError(f"{path}: bad checkpoint magic")
    (fp_len,) = struct.unpack_from("<I", blob, 8)
    tensors, pos = _tensors(blob, 12 + fp_len)
    (meta_len,) = struct.unpack_from("<I", blob, pos)
    meta = json.loads(blob[pos + 4 : pos + 4 + meta_len])
    return tensors, meta


# -- reference forward pass -------------------------------------------------------


def conv3x3_direct(x: np.ndarray, w: np.ndarray, stride: int) -> np.ndarray:
    """Zero-padded 3x3 convolution, channels-last, summed over every tap at once."""
    batch, h, wd, _ = x.shape
    xpad = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    h_out, w_out = (h - 1) // stride + 1, (wd - 1) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(xpad, (3, 3), axis=(1, 2))
    windows = windows[:, : (h_out - 1) * stride + 1 : stride, : (w_out - 1) * stride + 1 : stride]
    # windows: [batch, h_out, w_out, c_in, 3, 3]; w: [3, 3, c_in, c_out]
    return np.einsum("bijcuv,uvco->bijo", windows, w, optimize=True)


def reference_embeddings(tensors: dict[str, np.ndarray], images: np.ndarray, batch: int = 256) -> np.ndarray:
    """Unit-normalized eval-mode embeddings built from a checkpoint's tensors."""
    blocks = sorted({int(k.split(".")[1][5:]) for k in tensors if k.startswith("net.block")})
    units = []
    for b in blocks:
        depth = len([k for k in tensors if k.startswith(f"net.block{b}.conv") and k.endswith(".weight")])
        for u in range(1, depth + 1):
            p = f"net.block{b}."
            units.append(
                (
                    tensors[f"{p}conv{u}.weight"],
                    2 if u == 1 else 1,
                    tensors[f"{p}bn{u}.running_mean"],
                    tensors[f"{p}bn{u}.running_var"],
                    tensors[f"{p}bn{u}.gamma"],
                    tensors[f"{p}bn{u}.beta"],
                    tensors[f"{p}prelu{u}.slope"],
                )
            )
    head = tensors["net.head.weight"]
    rows = []
    for start in range(0, images.shape[0], batch):
        x = images[start : start + batch]
        for weight, stride, mean, var, gamma, beta, slope in units:
            y = conv3x3_direct(x, weight, stride)
            y = (y - mean) / np.sqrt(var + BN_EPS) * gamma + beta
            x = np.where(y > 0.0, y, slope * y)
        rows.append(x.reshape(x.shape[0], -1) @ head)
    emb = np.concatenate(rows)
    return emb / np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), NORM_EPS)


def check_embeddings(tensors, images, program_rows, label) -> list[str]:
    """The program's embeddings of `images` match the reference forward pass."""
    ref = reference_embeddings(tensors, images)
    err = float(np.max(np.abs(ref - program_rows)))
    if not err <= EMBED_TOL:
        return [f"{label}: embeddings differ from the reference by {err:.3g} (> {EMBED_TOL:g})"]
    return []


# -- open-set metrics ---------------------------------------------------------------


def verification(emb, index_a, index_b, same, fold, folds) -> tuple[float, float]:
    """k-fold accuracy and mean threshold; thresholds are -1, midpoints of the
    distinct training similarities, and +1, with ties going to the smallest."""
    sims = np.sum(emb[index_a] * emb[index_b], axis=1)
    accs, thresholds = [], []
    for f in range(folds):
        held = fold == f
        tr_sims, tr_same = sims[~held], same[~held]
        uniq = np.unique(tr_sims)
        cand = np.concatenate([[-1.0], (uniq[:-1] + uniq[1:]) / 2.0, [1.0]])
        hits = ((tr_sims[None, :] >= cand[:, None]) == tr_same[None, :]).sum(axis=1)
        best = cand[int(np.argmax(hits))]
        thresholds.append(best)
        accs.append(float(np.mean((sims[held] >= best) == same[held])))
    return float(np.mean(accs)), float(np.mean(thresholds))


def rank1(emb, gallery_idx, gallery_cls, probe_idx, probe_cls) -> float:
    """Share of probes whose single most similar gallery entry is their own class."""
    sims = emb[probe_idx] @ emb[gallery_idx].T
    best = sims.max(axis=1)
    unique_best = (sims == best[:, None]).sum(axis=1) == 1
    own = gallery_cls[sims.argmax(axis=1)] == probe_cls
    return int(np.count_nonzero(unique_best & own)) / len(probe_idx)


def recompute_metrics(emb, vprot, iprot) -> dict:
    acc, thr = verification(emb, vprot.index_a, vprot.index_b, vprot.same, vprot.fold, vprot.folds)
    r1 = rank1(emb, iprot.gallery_indices, iprot.gallery_classes, iprot.probe_indices, iprot.probe_classes)
    return {"verification_accuracy": acc, "verification_threshold": thr, "rank1": r1}


def check_metrics(expected: dict, program: dict, label: str, thr_tol: float = 0.0) -> list[str]:
    """Each program metric equals the recomputed one (the threshold within `thr_tol`)."""
    failures = []
    for key in program:
        tol = thr_tol if key == "verification_threshold" else 0.0
        if not abs(program[key] - expected[key]) <= tol:
            failures.append(f"{label}: {key} is {program[key]!r}, recomputed {expected[key]!r}")
    return failures


def scored_indices(vprot, iprot) -> np.ndarray:
    """Every sample that some protocol scores."""
    return np.unique(
        np.concatenate([vprot.index_a, vprot.index_b, iprot.gallery_indices, iprot.probe_indices])
    )


# -- protocol properties ---------------------------------------------------------------


def check_protocols(labels, num_train_classes, num_distractors, vprot, iprot) -> list[str]:
    """The open-set properties the method's evaluation rests on."""
    failures = []
    counts = np.bincount(labels)
    train = np.arange(num_train_classes)
    singles = np.nonzero(counts == 1)[0]
    distractors = np.nonzero(np.isin(labels, singles))[0]
    test_classes = np.setdiff1d(np.nonzero(counts > 1)[0], train)

    if not np.array_equal(labels[iprot.gallery_indices], iprot.gallery_classes):
        failures.append("identification: gallery classes disagree with sample labels")
    if not np.array_equal(labels[iprot.probe_indices], iprot.probe_classes):
        failures.append("identification: probe classes disagree with sample labels")
    used = np.concatenate([iprot.gallery_classes, iprot.probe_classes, labels[vprot.index_a], labels[vprot.index_b]])
    if np.isin(used, train).any():
        failures.append("protocols: a probe, gallery or pair class is a training class")
    enrolled = np.bincount(iprot.gallery_classes, minlength=counts.size)[test_classes]
    if not (enrolled == 1).all():
        failures.append(f"identification: test classes enrolled {sorted(set(enrolled.tolist()))} times, not once")
    if not np.array_equal(np.unique(iprot.probe_classes), test_classes):
        failures.append("identification: probe classes are not exactly the test classes")
    if np.intersect1d(iprot.probe_indices, iprot.gallery_indices).size:
        failures.append("identification: a sample is both probe and gallery")
    if len(distractors) != num_distractors or not np.isin(distractors, iprot.gallery_indices).all():
        failures.append(f"identification: not all {num_distractors} distractors are in the gallery")
    if not np.array_equal(labels[vprot.index_a] == labels[vprot.index_b], vprot.same):
        failures.append("verification: same flags disagree with sample labels")
    for f in range(vprot.folds):
        in_fold = vprot.same[vprot.fold == f]
        if in_fold.sum() * 2 != in_fold.size:
            failures.append(f"verification: fold {f} is not balanced")
            break
    return failures


# -- training logs ------------------------------------------------------------------------


def read_records(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def check_loss_decomposition(records: list[dict], label: str) -> list[str]:
    """Every step's total equals cls + sum_i lambda_i * stage_i, lambdas from meta."""
    lambdas = next(r for r in records if r["type"] == "meta")["lambdas"]
    steps = [r for r in records if r["type"] == "step"]
    if not steps:
        return [f"{label}: no step records"]
    for r in steps:
        parts = r["parts"]
        expected = parts["cls"]
        for i, lam in enumerate(lambdas, start=1):
            expected = expected + lam * parts[f"stage_{i}"]
        if set(parts) != {"cls"} | {f"stage_{i}" for i in range(1, len(lambdas) + 1)}:
            return [f"{label}: step {r['step']} has parts {sorted(parts)} for {len(lambdas)} lambdas"]
        if not abs(r["total"] - expected) <= LOSS_RTOL * max(1.0, abs(expected)):
            return [f"{label}: step {r['step']} total {r['total']!r} != decomposition {expected!r}"]
    return []


def check_loss_decreases(records: list[dict], label: str) -> list[str]:
    epochs = [r["mean_total"] for r in records if r["type"] == "epoch"]
    if len(epochs) < 2 or not epochs[-1] < epochs[0]:
        return [f"{label}: epoch mean losses {epochs} do not decrease"]
    return []
