"""Deterministic random-number substreams.

Every stochastic choice in the toolkit (data generation, weight init,
shuffling, noise) draws from its own named substream derived from one master
seed. Toggling a feature that consumes randomness therefore never shifts the
draws seen by unrelated features.
"""

from __future__ import annotations

import hashlib

import numpy as np


def substream(master_seed: int, purpose: str) -> np.random.Generator:
    """Generator for `purpose`, reproducibly derived from `master_seed`."""
    digest = hashlib.sha256(purpose.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    seq = np.random.SeedSequence([int(master_seed) & 0xFFFFFFFFFFFFFFFF, *words])
    return np.random.Generator(np.random.PCG64(seq))
