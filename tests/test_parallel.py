"""Process pools: each worker's share of the BLAS threads, and nothing left behind."""

import multiprocessing
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from spherekd import parallel
from spherekd.parallel import process_pool


def worker_blas_threads(_):
    return parallel.blas_threads()


@pytest.mark.parametrize("cpus, threads", [(4, 2), (1, 1)])
def test_each_worker_starts_with_its_share_of_blas_threads(monkeypatch, cpus, threads):
    monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
    # workers inherit another count, so only the pool's initializer can give the share
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(3 - threads))
    environ = dict(os.environ)
    with process_pool(2) as pool:
        seen = list(pool.map(worker_blas_threads, range(2)))
    assert seen == [threads] * 2
    assert dict(os.environ) == environ
    assert multiprocessing.active_children() == []


def test_failing_task_stops_the_workers():
    environ = dict(os.environ)
    with pytest.raises(TypeError):
        with process_pool(2) as pool:
            list(pool.map(abs, [1, "a"]))
    assert dict(os.environ) == environ
    assert multiprocessing.active_children() == []


def test_dead_worker_raises_instead_of_waiting():
    environ = dict(os.environ)
    start = time.monotonic()
    with pytest.raises(BrokenProcessPool):
        with process_pool(2) as pool:
            results = pool.map(time.sleep, [60, 60])
            os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)
            next(results)
    assert time.monotonic() - start < 30
    assert dict(os.environ) == environ
    assert multiprocessing.active_children() == []
