"""Open-set metrics: threshold verification and rank-1 identification.

Both metrics operate on unit-normalized embeddings, so cosine similarity is a
plain dot product. Verification picks its threshold by k-fold cross-validation
over candidate midpoints; identification counts a probe as correct only when
its single nearest gallery entry is of the probe's own class (ties fail).
Embedding a large set of rows is spread over threads of the calling process.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .autodiff import Tensor
from .data import IdentificationProtocol, VerificationProtocol, chunk_bounds
from .errors import ContractError, DimensionError, NumericError
from .nets import StagedNetwork
from .parallel import blas_threads, cpu_count, hold_blas_threads

# probes per similarity block in rank-1 identification: the block takes
# PROBE_BLOCK x gallery float64s (5.1 MB at 20,016 gallery entries)
PROBE_BLOCK = 32

# embedding runs on threads from this many rows per thread on. A thread
# starts at no cost, but each embeds batches of batch_size // threads rows,
# which cost more per row. On 2 vCPUs, folded random-init default networks,
# medians of runs alternating one thread with two: the teacher took 0.17 s for
# 820 rows on either (0.16 s against 0.17 s in a second run), 0.58 s against
# 0.74 s for 4,096 rows and 2.6 s against 3.7 s for 20,320; the student took
# 0.033 s on two threads against 0.028 s on one for 820 rows
ROWS_PER_WORKER = 2048


def _embed(
    net: StagedNetwork, images: np.ndarray, order: np.ndarray, batch_size: int, out: np.ndarray
) -> None:
    """Write the raw embeddings of `images[order]` to `out`, batch_size rows at a time.

    A last batch of fewer than batch_size // 2 rows joins the one before
    (see `chunk_bounds`), so that the last rows are not embedded in a small
    block, and a row's embedding does not depend on how the rows were split
    into parts.
    """
    bounds = chunk_bounds(len(order), batch_size, batch_size // 2)
    for start, stop in zip(bounds, bounds[1:]):
        out[start:stop] = net.forward(Tensor(images[order[start:stop]]))[1].data


def extract_embeddings(
    net: StagedNetwork, images: np.ndarray, rows: np.ndarray | None = None, batch_size: int = 64
) -> np.ndarray:
    """Unit-normalized eval-mode embeddings of the frozen `net`, one row per image.

    A network that is not frozen (see `nets.freeze`) raises ContractError:
    its forward would run in train mode. A frozen network holds only
    constants, so embedding records no graph, on any thread. With `rows`,
    only those images are embedded, in the given order; the other rows of
    the table stay zero. From ROWS_PER_WORKER rows per thread on, the rows
    are split into contiguous parts, one per thread, with at most one
    thread per CPU and per BLAS thread; each thread embeds its part in
    batches of batch_size // threads rows, so batch_size rows are in
    flight, and OpenBLAS is held at one thread meanwhile. Raises
    NumericError when an embedded row is not finite.
    """
    if not net.frozen:
        raise ContractError("extract_embeddings: the network is not frozen (see nets.freeze)")
    if images.ndim != 4:
        raise DimensionError(f"expected images [N,h,w,c], got {images.shape}")
    n = images.shape[0]
    order = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
    picked = np.empty((len(order), net.arch.embedding_dim))
    threads = min(cpu_count(), blas_threads(), len(order) // ROWS_PER_WORKER)
    if threads > 1:
        parts = zip(np.array_split(order, threads), np.array_split(picked, threads))
        step = max(1, batch_size // threads)
        with hold_blas_threads(1), ThreadPoolExecutor(threads) as pool:
            for done in [pool.submit(_embed, net, images, o, step, out) for o, out in parts]:
                done.result()
    else:
        _embed(net, images, order, batch_size, picked)
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
