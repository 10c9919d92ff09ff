"""Open-set metrics: threshold verification and rank-1 identification.

Both metrics operate on unit-normalized embeddings, so cosine similarity is a
plain dot product. Verification picks its threshold by k-fold cross-validation
over candidate midpoints; identification counts a probe as correct only when
its single nearest gallery entry is the probe's own enrollment (ties fail).
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, no_grad
from .data import IdentificationProtocol, VerificationProtocol
from .errors import DimensionError
from .nets import StagedNetwork


def extract_embeddings(
    net: StagedNetwork, images: np.ndarray, batch_size: int = 64
) -> np.ndarray:
    """Unit-normalized eval-mode embeddings, one row per image."""
    if images.ndim != 4:
        raise DimensionError(f"expected images [N,h,w,c], got {images.shape}")
    rows = []
    with no_grad():
        for start in range(0, images.shape[0], batch_size):
            batch = Tensor(images[start : start + batch_size])
            _, emb = net.forward(batch, train=False)
            rows.append(emb.data)
    table = np.concatenate(rows, axis=0)
    norms = np.maximum(np.linalg.norm(table, axis=1, keepdims=True), 1e-12)
    return table / norms


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
        train_sims, train_same = sims[~held], protocol.same[~held]
        candidates = _threshold_candidates(train_sims)
        accs = np.array([_accuracy_at(t, train_sims, train_same) for t in candidates])
        best = candidates[int(np.argmax(accs))]  # argmax returns first max: smallest t
        thresholds.append(best)
        fold_accs.append(_accuracy_at(best, sims[held], protocol.same[held]))
    return float(np.mean(fold_accs)), float(np.mean(thresholds))


def rank1_identification(
    embeddings: np.ndarray, protocol: IdentificationProtocol
) -> float:
    """Fraction of probes whose unique nearest gallery entry is their own class."""
    gallery = embeddings[protocol.gallery_indices]
    probes = embeddings[protocol.probe_indices]
    enroll_pos = {int(c): i for i, c in enumerate(protocol.gallery_classes)}
    sims = probes @ gallery.T
    correct = 0
    for row, cls in zip(sims, protocol.probe_classes):
        best = row.max()
        if np.count_nonzero(row == best) != 1:
            continue  # tie: conservative failure
        if row[enroll_pos[int(cls)]] == best:
            correct += 1
    return correct / len(protocol.probe_indices)
