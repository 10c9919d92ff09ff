"""Open-set metrics: threshold verification and rank-1 identification.

Both metrics operate on unit-normalized embeddings, so cosine similarity is a
plain dot product. Verification picks its threshold by k-fold cross-validation
over candidate midpoints; identification counts a probe as correct only when
its single nearest gallery entry is of the probe's own class (ties fail).
`frozen_pass` is the one batched pass over a frozen network, for training's
teacher cache and statistics as for evaluation. Embedding a large set of
rows is spread over threads of the calling process.
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

# rows per forward in `frozen_pass`; 32-row batches keep the largest column
# matrix (stage 1's second unit of the default teacher) at 4.7 MB
BATCH_ROWS = 32

# embedding runs on threads from this many rows per thread on. Each thread
# embeds its part in batches of BATCH_ROWS rows, as one thread does, and the
# batch size costs nothing: on one thread, 820 rows of random-state folded
# default networks gave the same bytes in 32-row as in 64-row batches, the
# teacher in 133 against 137 ms, the student in 29.4 against 28.2 ms (2 vCPUs,
# medians of 12 alternating runs). Two threads against one, same networks:
# the teacher took 0.17 s for 820 rows on either, 0.58 s against 0.74 s for
# 4,096 rows and 2.6 s against 3.7 s for 20,320; the student took 0.033 s on
# two threads against 0.028 s on one for 820 rows
ROWS_PER_WORKER = 2048


def frozen_pass(
    net: StagedNetwork, images: np.ndarray, order: np.ndarray, embeddings: np.ndarray, features=()
) -> None:
    """Run the frozen `net` over `images[order]` into arrays the caller allocated.

    Row k of `embeddings` gets the raw embedding of image `order[k]`, and row
    k of each array in `features` the feature of stage 1, 2, ... in turn.
    The rows run BATCH_ROWS at a time, a last batch of fewer than
    BATCH_ROWS // 2 joining the one before (see `chunk_bounds`), so no row
    runs in a small block and a row's outputs do not depend on how the rows
    were split into parts. A network that is not frozen (see `nets.freeze`)
    raises ContractError: its forward would run in train mode and update its
    running estimates.
    """
    if not net.frozen:
        raise ContractError("frozen_pass: the network is not frozen (see nets.freeze)")
    bounds = chunk_bounds(len(order), BATCH_ROWS, BATCH_ROWS // 2)
    for start, stop in zip(bounds, bounds[1:]):
        feats, emb = net.forward(Tensor(images[order[start:stop]]))
        embeddings[start:stop] = emb.data
        for dst, f in zip(features, feats):
            dst[start:stop] = f.data
        del feats, emb  # so the next batch's forward runs without this one's activations


def extract_embeddings(
    net: StagedNetwork, images: np.ndarray, rows: np.ndarray | None = None
) -> np.ndarray:
    """Unit-normalized eval-mode embeddings of the frozen `net`, one row per image.

    A network that is not frozen raises ContractError (see `frozen_pass`).
    A frozen network holds only constants, so embedding records no graph,
    on any thread. With `rows`, only those images are embedded, in the
    given order; the other rows of the table stay zero. From
    ROWS_PER_WORKER rows per thread on, the rows are split into contiguous
    parts, one per thread, with at most one thread per CPU and per BLAS
    thread; each thread runs `frozen_pass` over its part, and OpenBLAS is
    held at one thread meanwhile. Raises NumericError when an embedded row
    is not finite.
    """
    if images.ndim != 4:
        raise DimensionError(f"expected images [N,h,w,c], got {images.shape}")
    n = images.shape[0]
    order = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
    picked = np.empty((len(order), net.arch.embedding_dim))
    threads = min(cpu_count(), blas_threads(), len(order) // ROWS_PER_WORKER)
    if threads > 1:
        parts = zip(np.array_split(order, threads), np.array_split(picked, threads))
        with hold_blas_threads(1), ThreadPoolExecutor(threads) as pool:
            for done in [pool.submit(frozen_pass, net, images, o, out) for o, out in parts]:
                done.result()
    else:
        frozen_pass(net, images, order, picked)
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
