"""Worker processes that each start with their share of the BLAS threads.

OpenBLAS reads its thread count once, when numpy loads, and its idle threads
spin: workers that each inherit one thread per CPU take the cores from one
another. So workers are spawned, not forked, with the thread count set in the
environment they start from. `multiprocessing` is imported only when a pool
is asked for.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_count() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def in_worker() -> bool:
    """True inside a worker process, which starts no pool of its own."""
    import multiprocessing

    return multiprocessing.parent_process() is not None


def _initialize(setup) -> None:
    initializer, initargs = setup.get()
    if initializer is not None:
        initializer(*initargs)


@contextmanager
def spawn_pool(workers: int, initializer=None, initargs=()):
    """Spawn `workers` processes with max(1, cpus // workers) BLAS threads each; yield `imap`.

    `imap(fn, items)` yields `fn(item)` for each item, in order, computed in
    the workers; it raises RuntimeError when a worker process dies, where a
    bare pool would wait forever for the task that died with it. The thread
    variables are set in `os.environ` only while the workers start.
    `initializer(*initargs)` runs once in each worker; its arguments go
    through a queue that the worker reads once it has started, so that a
    large argument does not hold up the start of the next worker. On leaving
    the block, normally or by an exception, the workers are stopped and
    joined.
    """
    import multiprocessing

    context = multiprocessing.get_context("spawn")
    setup = context.SimpleQueue()
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    others = set(multiprocessing.active_children())
    try:
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, str(max(1, cpu_count() // workers))))
        pool = context.Pool(workers, _initialize, (setup,))
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
        for _ in range(workers):
            setup.put((initializer, initargs))
        yield imap
    finally:
        pool.terminate()
        pool.join()
        setup.close()
