"""Open-set metrics: threshold verification and rank-1 identification.

Both metrics operate on unit-normalized embeddings, so cosine similarity is a
plain dot product. Verification picks its threshold by k-fold cross-validation
over candidate midpoints; identification counts a probe as correct only when
its single nearest gallery entry is of the probe's own class (ties fail).
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, no_grad
from .data import IdentificationProtocol, VerificationProtocol
from .errors import DimensionError, NumericError
from .nets import StagedNetwork
from .parallel import cpu_count, in_worker, spawn_pool

# probes per similarity block in rank-1 identification: the block takes
# PROBE_BLOCK x gallery float64s (5.1 MB at 20,016 gallery entries)
PROBE_BLOCK = 32

# embedding runs in a pool from this many rows per worker on. Starting two
# workers takes about 0.3 s on 2 vCPUs, about what the second core saves on
# 4,096 rows of the default teacher (a student saves less)
ROWS_PER_WORKER = 2048
# batches per chunk sent to a pool worker (512 rows, 1 MB at the default input)
CHUNK_BATCHES = 8


def _embed(net: StagedNetwork, images: np.ndarray, order: np.ndarray, batch_size: int) -> np.ndarray:
    """Raw eval-mode embeddings of `images[order]`, batch_size rows at a time."""
    picked = np.empty((len(order), net.arch.embedding_dim))
    with no_grad():
        for start in range(0, len(order), batch_size):
            stop = start + batch_size
            picked[start:stop] = net.forward(Tensor(images[order[start:stop]]), train=False)[1].data
    return picked


_worker_state: tuple[StagedNetwork, int] | None = None  # set in each pool worker


def _init_worker(net: StagedNetwork, batch_size: int) -> None:
    global _worker_state
    _worker_state = (net, batch_size)


def _embed_chunk(chunk: np.ndarray) -> np.ndarray:
    net, batch_size = _worker_state
    return _embed(net, chunk, np.arange(len(chunk)), batch_size)


def _embed_in_pool(net, images, order, batch_size, workers) -> np.ndarray:
    """`_embed` with the rows spread over `workers` spawned processes.

    Chunks are whole batches, so every batch holds the rows it holds in
    `_embed`, and each chunk is gathered only when the pool sends it.
    """
    step = batch_size * CHUNK_BATCHES
    starts = range(0, len(order), step)
    chunks = (images[order[start : start + step]] for start in starts)
    picked = np.empty((len(order), net.arch.embedding_dim))
    with spawn_pool(workers, _init_worker, (net, batch_size)) as imap:
        for start, part in zip(starts, imap(_embed_chunk, chunks)):
            picked[start : start + len(part)] = part
    return picked


def extract_embeddings(
    net: StagedNetwork, images: np.ndarray, rows: np.ndarray | None = None, batch_size: int = 64
) -> np.ndarray:
    """Unit-normalized eval-mode embeddings, one row per image.

    With `rows`, only those images are embedded, batched in the given order;
    the other rows of the table stay zero. From ROWS_PER_WORKER rows per
    worker on, the batches run in spawned processes, one per CPU at most,
    unless this process is itself a worker. Raises NumericError when an
    embedded row is not finite.
    """
    if images.ndim != 4:
        raise DimensionError(f"expected images [N,h,w,c], got {images.shape}")
    n = images.shape[0]
    order = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
    workers = min(cpu_count(), len(order) // ROWS_PER_WORKER)
    if workers > 1 and not in_worker():
        picked = _embed_in_pool(net, images, order, batch_size, workers)
    else:
        picked = _embed(net, images, order, batch_size)
    bad = ~np.isfinite(picked).all(axis=1)
    if bad.any():
        raise NumericError(
            f"non-finite embeddings for {int(bad.sum())} of {len(order)} samples "
            f"(first: sample {int(order[np.argmax(bad)])})"
        )
    picked /= np.maximum(np.linalg.norm(picked, axis=1, keepdims=True), 1e-12)
    table = np.zeros((n, picked.shape[1]))
    table[order] = picked
    return table


def _pair_similarities(embeddings: np.ndarray, protocol: VerificationProtocol) -> np.ndarray:
    a = embeddings[protocol.index_a]
    b = embeddings[protocol.index_b]
    return np.sum(a * b, axis=1)


def _threshold_candidates(similarities: np.ndarray) -> np.ndarray:
    """-1, midpoints between distinct consecutive sorted values, +1."""
    uniq = np.unique(similarities)
    mids = (uniq[:-1] + uniq[1:]) / 2.0
    return np.concatenate([[-1.0], mids, [1.0]])


def _accuracy_at(threshold: float, sims: np.ndarray, same: np.ndarray) -> float:
    predicted = sims >= threshold
    return float(np.mean(predicted == same))


def _best_threshold(sims: np.ndarray, same: np.ndarray) -> float:
    """The first candidate at which `sims >= t` gets the most pairs right.

    One sort serves every candidate: the pairs below `t` are a prefix of the
    sorted similarities, so a cumulative count of same-class pairs gives the
    right answers on both sides of `t`.
    """
    candidates = _threshold_candidates(sims)
    order = np.argsort(sims, kind="stable")
    below = np.searchsorted(sims[order], candidates, side="left")
    same_below = np.concatenate([[0], np.cumsum(same[order])])[below]
    right = (np.count_nonzero(same) - same_below) + (below - same_below)
    return candidates[int(np.argmax(right))]  # the first max: the smallest t


def verification_accuracy(
    embeddings: np.ndarray, protocol: VerificationProtocol
) -> tuple[float, float]:
    """k-fold cross-validated pair accuracy and the mean selected threshold.

    For each fold, the threshold maximizing accuracy on the other folds is
    applied to the held-out fold. Threshold ties break toward the smaller
    candidate.
    """
    sims = _pair_similarities(embeddings, protocol)
    fold_accs, thresholds = [], []
    for f in range(protocol.folds):
        held = protocol.fold == f
        best = _best_threshold(sims[~held], protocol.same[~held])
        thresholds.append(best)
        fold_accs.append(_accuracy_at(best, sims[held], protocol.same[held]))
    return float(np.mean(fold_accs)), float(np.mean(thresholds))


def rank1_identification(
    embeddings: np.ndarray, protocol: IdentificationProtocol
) -> float:
    """Fraction of probes whose unique nearest gallery entry is their own class.

    Probes are scored PROBE_BLOCK at a time against the whole gallery.
    """
    gallery = embeddings[protocol.gallery_indices]
    probes, classes = protocol.probe_indices, protocol.probe_classes
    correct = 0
    for start in range(0, len(probes), PROBE_BLOCK):
        stop = start + PROBE_BLOCK
        sims = embeddings[probes[start:stop]] @ gallery.T
        best = sims.max(axis=1)
        unique = np.count_nonzero(sims == best[:, None], axis=1) == 1  # a tie fails
        own = protocol.gallery_classes[sims.argmax(axis=1)] == classes[start:stop]
        correct += int(np.count_nonzero(unique & own))
    return correct / len(probes)
