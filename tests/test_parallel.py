"""Spawned pools: each worker's share of the BLAS threads, and nothing left behind."""

import multiprocessing
import os
import signal
import time

import pytest

from spherekd import parallel
from spherekd.parallel import BLAS_THREAD_VARS, spawn_pool


def blas_environment(_):
    return {name: os.environ.get(name) for name in BLAS_THREAD_VARS}, parallel.blas_threads()


@pytest.mark.parametrize("cpus, threads", [(4, "2"), (1, "1")])
def test_each_worker_starts_with_its_share_of_blas_threads(monkeypatch, cpus, threads):
    monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "64")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    environ = dict(os.environ)
    with spawn_pool(2) as imap:
        seen = list(imap(blas_environment, range(2)))
    assert [variables for variables, _ in seen] == [dict.fromkeys(BLAS_THREAD_VARS, threads)] * 2
    # the BLAS the worker loaded runs no more threads than its share
    assert all(1 <= running <= int(threads) for _, running in seen)
    assert dict(os.environ) == environ
    assert multiprocessing.active_children() == []


def test_failing_task_stops_the_workers():
    environ = dict(os.environ)
    with pytest.raises(TypeError):
        with spawn_pool(2) as imap:
            list(imap(abs, [1, "a"]))
    assert dict(os.environ) == environ
    assert multiprocessing.active_children() == []


def test_dead_worker_raises_instead_of_waiting():
    with pytest.raises(RuntimeError, match="exited with code -9"):
        with spawn_pool(2) as imap:
            results = imap(time.sleep, [60, 60])
            os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)
            next(results)
    assert multiprocessing.active_children() == []
