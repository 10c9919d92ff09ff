"""CPUs, the BLAS thread count, and worker processes that each get their share.

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


def process_pool(workers: int):
    """`workers` spawned processes, each holding OpenBLAS at max(1, cpus // workers) threads.

    A task's exception reaches the caller when its result is read; a worker
    that dies breaks the pool, whose waiting results then raise
    `BrokenProcessPool` (a RuntimeError) and whose other workers are stopped.
    """
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    return ProcessPoolExecutor(
        workers,
        mp_context=get_context("spawn"),
        initializer=set_blas_threads,
        initargs=(max(1, cpu_count() // workers),),
    )
