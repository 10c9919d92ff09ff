"""CPUs, the BLAS thread count, worker processes that each get their share, and
the C allocator's thresholds.

OpenBLAS's idle threads spin, so processes or threads that each drive a full
set of BLAS threads take the cores from one another. Both are given their
share through the OpenBLAS that numpy loaded: each worker of `process_pool`
sets its own count as it starts, and `hold_blas_threads(1)` holds this
process's at one thread while its Python threads share the CPUs. An MKL or
OpenMP BLAS is not reached and runs its default thread count. The process
pool's modules are imported only when a pool is asked for.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from functools import cache


def cpu_count() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


@cache
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS numpy loaded.

    Where none is found, the count reads 1 and setting it does nothing.
    """
    import numpy  # noqa: F401  (loads the BLAS whose file /proc/self/maps then lists)

    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return (lambda: 1), (lambda threads: None)


def blas_threads() -> int:
    """Threads of the OpenBLAS numpy loaded; 1 where it cannot be found."""
    return _openblas()[0]()


def set_blas_threads(threads: int) -> None:
    """Set the threads of the OpenBLAS numpy loaded; nothing where it cannot be found."""
    _openblas()[1](threads)


@contextmanager
def hold_blas_threads(threads: int):
    """Hold OpenBLAS at `threads` inside the block; the old count comes back after."""
    saved = blas_threads()
    set_blas_threads(threads)
    try:
        yield
    finally:
        set_blas_threads(saved)


# glibc mallopt parameters, and the top of glibc's own dynamic range for each
# on 64-bit: it raises the mmap threshold to the size of a freed mapped block,
# up to 32 MB, and the trim threshold to twice that
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD, TRIM_THRESHOLD = 32 << 20, 64 << 20


def keep_freed_memory() -> None:
    """Let malloc keep the memory a training step frees for the next step.

    A step frees its whole graph before the next one starts. From glibc's
    starting thresholds, malloc gives much of it back to the OS after each
    step and the next step faults it in again page by page: on a 2-vCPU VM
    a 2-epoch default teacher run took 349,000 minor faults, against 5,000
    when the previous step's graph was still held, and a fifth more time.
    This sets both thresholds at once to the top of the range glibc would
    raise them to itself. It holds for the whole process; where the C
    library has no `mallopt`, it does nothing.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


@contextmanager
def process_pool(workers: int):
    """`workers` spawned processes, each holding OpenBLAS at max(1, cpus // workers) threads.

    A task's exception reaches the caller when its result is read; a worker
    that dies breaks the pool, whose waiting results then raise
    `BrokenProcessPool` (a RuntimeError) and whose other workers are stopped.
    An exception that leaves the block cancels the tasks not yet handed on;
    the pool waits for those its workers run and the workers + 1 it queues.
    """
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    with ProcessPoolExecutor(
        workers,
        mp_context=get_context("spawn"),
        initializer=set_blas_threads,
        initargs=(max(1, cpu_count() // workers),),
    ) as pool:
        try:
            yield pool
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
