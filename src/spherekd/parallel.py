"""CPUs, the BLAS thread count, and worker processes that each get their share.

OpenBLAS's idle threads spin, so processes or threads that each drive a full
set of BLAS threads take the cores from one another. `spawn_pool` starts
processes with their share set in the environment they start from (OpenBLAS
reads it once, when numpy loads); `hold_blas_threads(1)` holds the OpenBLAS
that numpy loaded at one thread while Python threads of this process share
the CPUs. `multiprocessing` is imported only when a pool is asked for.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from functools import cache

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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


@contextmanager
def hold_blas_threads(threads: int):
    """Hold OpenBLAS at `threads` inside the block; the old count comes back after."""
    get, put = _openblas()
    saved = get()
    put(threads)
    try:
        yield
    finally:
        put(saved)


@contextmanager
def spawn_pool(workers: int):
    """Spawn `workers` processes with max(1, cpus // workers) BLAS threads each; yield `imap`.

    `imap(fn, items)` yields `fn(item)` for each item, in order, computed in
    the workers; it raises RuntimeError when a worker process dies, where a
    bare pool would wait forever for the task that died with it. The thread
    variables are set in `os.environ` only while the workers start. On
    leaving the block, normally or by an exception, the workers are stopped
    and joined.
    """
    import multiprocessing

    context = multiprocessing.get_context("spawn")
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    others = set(multiprocessing.active_children())
    try:
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, str(max(1, cpu_count() // workers))))
        pool = context.Pool(workers)
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    started = set(multiprocessing.active_children()) - others

    def imap(fn, items):
        results = pool.imap(fn, items)
        while True:
            try:
                result = results.next(timeout=0.5)
            except StopIteration:
                return
            except multiprocessing.TimeoutError:
                for process in started:
                    if not process.is_alive():
                        raise RuntimeError(
                            f"worker process {process.pid} exited with code {process.exitcode}"
                        ) from None
                continue
            yield result

    try:
        yield imap
    finally:
        pool.terminate()
        pool.join()
