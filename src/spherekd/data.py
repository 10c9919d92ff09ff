"""Synthetic open-set identity data and the evaluation protocols.

Identities are unit vectors in a latent space; samples perturb the identity
vector with Gaussian noise, renormalize, and render to an image through a
fixed random two-layer nonlinear map. Train, test, and distractor identities
are disjoint, so test-time evaluation exercises only the embedding geometry,
never the training classifier.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .checkpoint import atomic_open
from .config import DataConfig
from .errors import ConfigError
from .rng import substream

@dataclass
class SyntheticIdentityDataset:
    """Rendered images and their class ids; the latent codes are not kept."""

    images: np.ndarray  # [N, size, size, 1], per-image zero mean / unit variance
    labels: np.ndarray  # [N] global class id
    train_classes: np.ndarray
    test_classes: np.ndarray
    distractor_classes: np.ndarray
    params: dict

    @property
    def num_samples(self) -> int:
        return int(self.images.shape[0])

    def indices_of(self, classes: np.ndarray) -> np.ndarray:
        mask = np.isin(self.labels, classes)
        return np.nonzero(mask)[0]

    @property
    def train_indices(self) -> np.ndarray:
        return self.indices_of(self.train_classes)

    @property
    def test_indices(self) -> np.ndarray:
        return self.indices_of(self.test_classes)


# Gain of the renderer's hidden layer. The squared tanh is even, so images
# carry no linear trace of the latent code: recovering identity geometry
# needs multiplicative feature extraction, which is what gives network
# capacity something to buy.
RENDERER_GAIN = 2.0


# Rows generated at a time. Each row's noise, latent and image depend only on
# its own draws, so the images equal those of one block, and the temporaries
# of rendering stay one chunk's size however many distractors there are.
RENDER_CHUNK = 4096


def chunk_bounds(n: int, size: int, min_last: int = 2) -> list[int]:
    """The bounds 0, size, 2 * size, ..., n of n rows cut into chunks of `size`.

    A last chunk of fewer than `min_last` rows joins the one before. Each
    row's result of a matrix product is taken to be independent of the other
    rows, but that fails for a small block: numpy multiplies a single row by
    a vector-matrix product, and OpenBLAS runs small products on a kernel
    whose sums round differently once they are deep enough (on
    scipy-openblas 0.3.31, fewer than 8 rows through a 512-deep product).
    """
    bounds = [*range(0, n, size), n]
    if len(bounds) > 2 and n - bounds[-2] < min_last:
        del bounds[-2]
    return bounds


def _render(latents: np.ndarray, w1, w2, size: int) -> np.ndarray:
    """Fixed nonlinear map latent -> image, then per-image standardization."""
    hidden = np.tanh(RENDERER_GAIN * (latents @ w1)) ** 2
    flat = hidden @ w2
    flat -= flat.mean(axis=1, keepdims=True)
    flat /= np.maximum(flat.std(axis=1, keepdims=True), 1e-8)
    return flat.reshape(-1, size, size, 1)


def dataset_params(seed: int, cfg: DataConfig) -> dict:
    """What a dataset is generated from: the seed and every key of `cfg` but
    the protocols' `pairs_per_side` and `folds`."""
    params = {"seed": int(seed), **asdict(cfg)}
    del params["pairs_per_side"], params["folds"]
    return params


def generate_dataset(seed: int, cfg: DataConfig) -> SyntheticIdentityDataset:
    """Deterministic synthetic identity dataset, with every value from the run's `DataConfig`.

    The dataset is generated from `dataset_params(seed, cfg)`, which become
    its `params`. Class ids are assigned contiguously: train classes first (so
    a train label doubles as the classifier index), then test classes, then
    one distractor class per distractor sample. Each chunk's latent codes are
    rendered and then dropped: only the images and labels grow with the
    sample count. The values are not checked here: `RunConfig.validate`
    bounds each `data.*` key.
    """
    num_train_classes, latent_dim = cfg.num_train_classes, cfg.latent_dim
    renderer_hidden, image_size = cfg.renderer_hidden, cfg.image_size

    rng_renderer = substream(seed, "data-renderer")
    w1 = rng_renderer.normal(0.0, 1.0 / np.sqrt(latent_dim), size=(latent_dim, renderer_hidden))
    w2 = rng_renderer.normal(
        0.0, 1.0 / np.sqrt(renderer_hidden), size=(renderer_hidden, image_size * image_size)
    )

    n_classes = num_train_classes + cfg.num_test_classes + cfg.num_distractors
    prototypes = substream(seed, "data-prototypes").normal(size=(n_classes, latent_dim))
    prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)

    # train and test classes hold samples_per_class samples, distractors one
    first_distractor = num_train_classes + cfg.num_test_classes
    counts = np.where(np.arange(n_classes) < first_distractor, cfg.samples_per_class, 1)
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), counts)
    n = labels.shape[0]
    noise_rng = substream(seed, "data-noise")
    images = np.empty((n, image_size, image_size, 1))
    bounds = chunk_bounds(n, RENDER_CHUNK)
    for start, stop in zip(bounds, bounds[1:]):
        rows = slice(start, stop)
        noise = noise_rng.normal(size=(stop - start, latent_dim))
        z = prototypes[labels[rows]] + cfg.noise_sigma * noise
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        images[rows] = _render(z, w1, w2, image_size)

    return SyntheticIdentityDataset(
        images=images,
        labels=labels,
        train_classes=np.arange(num_train_classes, dtype=np.int64),
        test_classes=np.arange(num_train_classes, first_distractor, dtype=np.int64),
        distractor_classes=np.arange(first_distractor, n_classes, dtype=np.int64),
        params=dataset_params(seed, cfg),
    )


# -- evaluation protocols ------------------------------------------------------


@dataclass
class VerificationProtocol:
    """Balanced same/different pairs over test-class samples, in k folds."""

    index_a: np.ndarray
    index_b: np.ndarray
    same: np.ndarray  # bool
    fold: np.ndarray
    folds: int

    @property
    def num_pairs(self) -> int:
        return int(self.index_a.shape[0])


@dataclass
class IdentificationProtocol:
    """One gallery enrollment per test class plus distractors; rest are probes."""

    gallery_indices: np.ndarray
    gallery_classes: np.ndarray
    probe_indices: np.ndarray
    probe_classes: np.ndarray


def build_verification_protocol(
    dataset: SyntheticIdentityDataset,
    pairs_per_side: int,
    folds: int,
    seed: int,
) -> VerificationProtocol:
    rng = substream(seed, "protocol-verification")

    # every within-class pair (i < j), class by class in row-major order
    positives = []
    for c in dataset.test_classes:
        idx = dataset.indices_of([c])
        i, j = np.triu_indices(len(idx), k=1)
        positives.append(np.stack([idx[i], idx[j]], axis=1))
    positives = np.concatenate(positives)
    if len(positives) < pairs_per_side:
        raise ConfigError(
            f"only {len(positives)} within-class pairs available, need {pairs_per_side}"
        )
    within = len(positives)
    order = rng.permutation(within)[:pairs_per_side]
    positives = positives[order]

    test_idx = dataset.test_indices
    test_labels = dataset.labels[test_idx]
    total = len(test_idx)
    max_cross = (total * (total - 1)) // 2 - within
    if max_cross < pairs_per_side:
        raise ConfigError(
            f"only {max_cross} cross-class pairs available, need {pairs_per_side}"
        )
    negatives = []
    seen = set()
    while len(negatives) < pairs_per_side:
        a, b = rng.choice(len(test_idx), size=2, replace=False)
        if test_labels[a] == test_labels[b]:
            continue
        key = (min(test_idx[a], test_idx[b]), max(test_idx[a], test_idx[b]))
        if key in seen:
            continue
        seen.add(key)
        negatives.append(key)
    negatives = np.array(negatives, dtype=np.int64)

    index_a = np.concatenate([positives[:, 0], negatives[:, 0]])
    index_b = np.concatenate([positives[:, 1], negatives[:, 1]])
    same = dataset.labels[index_a] == dataset.labels[index_b]
    fold = np.tile(np.arange(pairs_per_side) % folds, 2)
    order = np.argsort(fold, kind="stable")
    return VerificationProtocol(
        index_a=index_a[order],
        index_b=index_b[order],
        same=same[order],
        fold=fold[order],
        folds=folds,
    )


def build_identification_protocol(
    dataset: SyntheticIdentityDataset, seed: int
) -> IdentificationProtocol:
    rng = substream(seed, "protocol-identification")
    enrolled, probes = [], []
    for c in dataset.test_classes:
        idx = dataset.indices_of([c])
        enrolled.append(idx[rng.integers(0, len(idx))])
        probes.append(idx[idx != enrolled[-1]])
    # labels run in contiguous class blocks, so the distractor rows come in class order
    gallery = np.concatenate([enrolled, dataset.indices_of(dataset.distractor_classes)])
    probe_indices = np.concatenate(probes)
    return IdentificationProtocol(
        gallery_indices=gallery,
        gallery_classes=dataset.labels[gallery],
        probe_indices=probe_indices,
        probe_classes=dataset.labels[probe_indices],
    )


# -- on-disk formats -----------------------------------------------------------


def save_verification_protocol(protocol: VerificationProtocol, path: str | Path) -> Path:
    lines = [f"# verification folds={protocol.folds} pairs={protocol.num_pairs}"]
    for a, b, s in zip(protocol.index_a, protocol.index_b, protocol.same):
        lines.append(f"{a} {b} {int(s)}")
    path = Path(path)
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def save_identification_protocol(protocol: IdentificationProtocol, path: str | Path) -> Path:
    lines = [
        f"# identification gallery={len(protocol.gallery_indices)} "
        f"probes={len(protocol.probe_indices)}"
    ]
    for idx, cls in zip(protocol.gallery_indices, protocol.gallery_classes):
        lines.append(f"gallery {idx} {cls}")
    for idx, cls in zip(protocol.probe_indices, protocol.probe_classes):
        lines.append(f"probe {idx} {cls}")
    path = Path(path)
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")
    return path

