"""A full disk: each verb, with `OSError(ENOSPC)` raised at one open, write or flush.

Every output file is opened for writing inside `checkpoint.atomic_open`, so
wrapping the `open` that `spherekd.checkpoint` calls reaches all of them. The
faults are raised in process, one per run: at the k-th open, separately at
the first or the last write to each file, and at the k-th flush that has
data to write (closing a file flushes it), which is where a real full disk
shows for writes that fit in the buffer. Each run starts from an empty
`--out` and again from one that a finished run of another config left.
"""

import errno
import json
import os
import shutil

import pytest

from spherekd import checkpoint
from spherekd.checkpoint import load_checkpoint
from spherekd.cli import main
from spherekd.config import load_config

from .test_cli import toy_args

# the finished run that a re-run replaces: another config, the same files
OTHER_RUN = ["data.noise_sigma=0.3"]
# `compare` rewrites these when a cell fails, to list the failure
FAILURE_LISTS = {"report.json", "summary.txt"}


class FullDisk:
    """Stands in for `open`: counts opens, writes and flushes, and raises ENOSPC at the
    `at`-th of the kind `on` ("open", "write" or "flush"); with `at` = 0 it never does."""

    def __init__(self, on="open", at=0):
        self.on, self.at = on, at
        self.counts = {"open": 0, "write": 0, "flush": 0}
        self.writes_per_file: list[list[int]] = []

    def count(self, kind: str) -> int:
        self.counts[kind] += 1
        if (kind, self.counts[kind]) == (self.on, self.at):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.counts[kind]

    def __call__(self, *args, **kwargs):
        self.count("open")
        return CountedFile(open(*args, **kwargs), self)

    def faults(self, on: str) -> list[int]:
        """The counts to raise at: every open and flush, or each file's first and last write."""
        if on != "write":
            return list(range(1, self.counts[on] + 1))
        return sorted({n for writes in self.writes_per_file if writes for n in (writes[0], writes[-1])})


class CountedFile:
    """A file `FullDisk` opened: counts its writes, and its flushes that have data to write."""

    def __init__(self, fh, disk: FullDisk):
        self.fh, self.disk = fh, disk
        self.writes: list[int] = []
        self.unflushed = False
        disk.writes_per_file.append(self.writes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        with self.fh:  # closed whatever the flush does
            if exc[0] is None:
                self.flush()

    def write(self, data):
        self.writes.append(self.disk.count("write"))
        self.unflushed = True
        return self.fh.write(data)

    def flush(self):
        if self.unflushed:
            self.disk.count("flush")
            self.unflushed = False
        self.fh.flush()


def verb_args(verb, out, teacher, extra=()):
    args = [verb, *toy_args(out, extra)]
    return args + {
        "train-teacher": [],
        "distill": ["--teacher", teacher, "--kind", "angular"],
        "evaluate": ["--checkpoint", teacher],
        "compare": ["--seeds", "0"],
    }[verb]


def run(monkeypatch, capsys, args, disk):
    with monkeypatch.context() as m:
        m.setattr(checkpoint, "open", disk, raising=False)
        code = main(args)
    return code, capsys.readouterr().err


def snapshot(out):
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def restore(out, files):
    shutil.rmtree(out, ignore_errors=True)
    for rel, data in files.items():
        (out / rel).parent.mkdir(parents=True, exist_ok=True)
        (out / rel).write_bytes(data)


def check_parses(path):
    if path.suffix == ".ckpt":
        load_checkpoint(path)
    elif path.suffix == ".jsonl":
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["type"] == "meta" and records[-1]["type"] == "final", path
    elif path.suffix == ".json":
        json.loads(path.read_text())
    elif path.suffix == ".yaml":
        load_config(path)
    elif path.name == "summary.txt":
        assert path.read_text().startswith("model"), path
    else:
        raise AssertionError(f"unexpected file {path}")


@pytest.fixture(scope="module")
def teacher(tmp_path_factory):
    out = tmp_path_factory.mktemp("teacher")
    assert main(["train-teacher", *toy_args(out)]) == 0
    return str(out / "teacher.ckpt")


@pytest.mark.parametrize("on", ["open", "write", "flush"])
@pytest.mark.parametrize("verb", ["train-teacher", "distill", "evaluate", "compare"])
def test_full_disk_exits_3_and_leaves_whole_files(verb, on, tmp_path, teacher, monkeypatch, capsys):
    out = tmp_path / "out"
    assert run(monkeypatch, capsys, verb_args(verb, out, teacher, OTHER_RUN), FullDisk())[0] == 0
    old = snapshot(out)
    shutil.rmtree(out)
    disk = FullDisk()
    assert run(monkeypatch, capsys, verb_args(verb, out, teacher), disk)[0] == 0
    new = snapshot(out)

    for at in disk.faults(on):
        for previous in ({}, old):
            restore(out, previous)
            code, err = run(monkeypatch, capsys, verb_args(verb, out, teacher), FullDisk(on, at))
            where = f"{verb}: disk full at {on} {at} of a {'re-run' if previous else 'first run'}"
            assert code == 3, where
            # one line; in `compare`, the line of a failed cell names its seed and row
            assert err.count("\n") == 1 and "i/o error: [Errno 28]" in err, (where, err)
            assert "Traceback" not in err, where
            assert not list(out.rglob("*.tmp")), where
            for path in out.rglob("*"):
                if path.is_file():
                    check_parses(path)

            def state(rel):
                data = (out / rel).read_bytes() if (out / rel).exists() else None
                return "old" if data == previous.get(rel) else "new" if data == new.get(rel) else "torn"

            for rel in new.keys() | previous.keys():
                if rel not in FAILURE_LISTS:
                    assert state(rel) != "torn", (where, rel)
                if rel.endswith(".ckpt"):  # a checkpoint and its log come from one run
                    log = rel.removesuffix(".ckpt") + "_metrics.jsonl"
                    assert state(rel) == state(log), (where, rel)
