"""Binary checkpoint serialization.

Layout (all integers little-endian):

    magic            4 bytes  b"STNT"
    version          u32, 2
    fingerprint_len  u32, then that many bytes (hex sha-256 of the canonical
                     architecture config)
    n_tensors        u32, then per tensor:
        name_len u32, name utf-8, rank u32, dims u32 * rank, raw f64 data
    meta_len         u32, then a canonical JSON object, utf-8: role, epoch,
                     final training loss and accuracy, classifier settings,
                     and a student's distillation kind

The meta ends the file. Version 1 files, which still load, add one more
section in the tensor record format: SGD velocities, which loading discards.
Loading raises ConfigError for any file that does not follow this layout.

A checkpoint round-trips bitwise: save(load(save(x))) writes identical bytes.
Records are streamed to a temporary file beside the target, which then
replaces it (`atomic_open`, which the reports share), so a failed write never
leaves a partial checkpoint behind. `restore` copies saved arrays back into a
network's live state after checking each name and shape.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .nets import ArchConfig

MAGIC = b"STNT"
VERSION = 2


def fingerprint_arch(arch: ArchConfig) -> str:
    blob = json.dumps(asdict(arch), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class Checkpoint:
    fingerprint: str
    tensors: dict[str, np.ndarray]
    meta: dict


def _write_tensors(fh, tensors: dict[str, np.ndarray]) -> None:
    fh.write(struct.pack("<I", len(tensors)))
    for name, arr in tensors.items():
        encoded = name.encode("utf-8")
        arr = np.ascontiguousarray(arr, dtype="<f8")
        fh.write(struct.pack("<I", len(encoded)))
        fh.write(encoded)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.data)


class ByteReader:
    """Reads a blob front to back; reading past its end is a ConfigError."""

    def __init__(self, blob: bytes, what: str):
        self.blob = blob
        self.what = what
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise ConfigError(f"{self.what} truncated")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def _unpack_tensors(reader: ByteReader) -> dict[str, np.ndarray]:
    tensors: dict[str, np.ndarray] = {}
    count = reader.u32()
    for _ in range(count):
        name = reader.take(reader.u32()).decode("utf-8")
        rank = reader.u32()
        dims = struct.unpack(f"<{rank}I", reader.take(4 * rank)) if rank else ()
        size = math.prod(dims)  # a Python int: corrupt dims cannot overflow it
        data = np.frombuffer(reader.take(8 * size), dtype="<f8").reshape(dims)
        tensors[name] = data.astype(np.float64)
    return tensors


@contextmanager
def atomic_open(path: str | Path, mode: str = "w"):
    """Write through a temporary file beside `path` that then replaces it.

    A write that fails midway leaves neither a partial file nor the
    temporary one, and whatever `path` held before stays intact.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> Path:
    meta_blob = json.dumps(ckpt.meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    fp = ckpt.fingerprint.encode("ascii")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(fp)))
        fh.write(fp)
        _write_tensors(fh, ckpt.tensors)
        fh.write(struct.pack("<I", len(meta_blob)))
        fh.write(meta_blob)
    return Path(path)


def load_checkpoint(path: str | Path) -> Checkpoint:
    reader = ByteReader(Path(path).read_bytes(), f"{path}: checkpoint")
    if reader.take(4) != MAGIC:
        raise ConfigError(f"{path}: not a checkpoint file (bad magic)")
    version = reader.u32()
    if version not in (1, VERSION):
        raise ConfigError(f"{path}: unsupported checkpoint version {version}")
    try:
        fingerprint = reader.take(reader.u32()).decode("ascii")
        tensors = _unpack_tensors(reader)
        meta = json.loads(reader.take(reader.u32()).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: corrupt checkpoint: {exc}") from None
    if not isinstance(meta, dict):
        raise ConfigError(f"{path}: corrupt checkpoint: meta is not a JSON object")
    if version == 1:
        _unpack_tensors(reader)  # the SGD velocities
    if reader.pos != len(reader.blob):
        raise ConfigError(f"{path}: corrupt checkpoint: bytes after the last record")
    return Checkpoint(fingerprint, tensors, meta)


def restore(targets: dict[str, np.ndarray], saved: dict[str, np.ndarray]) -> None:
    """Copy each saved array into the target array of the same name.

    Every target must have a saved array of its own shape. Names the targets
    do not list are ignored: `classifier.weight`, which evaluation does not
    read, and the `transform<i>.*` records that student checkpoints of
    earlier versions hold.
    """
    for name, target in targets.items():
        if name not in saved:
            raise ConfigError(f"checkpoint has no tensor {name!r}")
        if saved[name].shape != target.shape:
            raise ConfigError(
                f"checkpoint tensor {name!r} has shape {saved[name].shape}, "
                f"the architecture needs {target.shape}"
            )
        target[...] = saved[name]
