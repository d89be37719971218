"""Deterministic fan-out helpers.

Batch drivers (benchmark replications, bootstrap replicates) fan out across
forked worker processes and collect results in submission order, so serial
and parallel runs produce identical output.  A map stores its function and
items in a module global before the pool forks; the workers inherit them and
receive only task indices, so closures and large inputs are never pickled.
Only results and exceptions travel back, and an exception keeps its type.

The map runs serially in the calling process where the ``fork`` start method
does not exist, and when another map is already running: a map nested inside
a task, or one started by a second thread.  The BLAS pool is pinned to one
thread inside these regions when ``threadpoolctl`` imports: multithreaded
kernels may reorder reductions.  The ``RCEC_THREADS`` environment variable is
the one cap on the number of worker processes.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import os
import threading

THREADS_ENV = "RCEC_THREADS"

# Held while a map's pool runs.  A forked worker inherits it held, so a map
# nested inside a task runs serially.
_busy = threading.Lock()
# (fn, items) of the running map, read by the workers that fork from it.
_job = None


def worker_count(n_tasks: int, requested: int | None = None) -> int:
    """Resolve the worker count from the request, environment and task count."""
    if n_tasks <= 0:
        return 1
    limit = requested
    env = os.environ.get(THREADS_ENV)
    if env is not None:
        try:
            env_limit = int(env)
        except ValueError:
            raise ValueError(f"{THREADS_ENV} must be an integer, got {env!r}") from None
        if env_limit < 1:
            raise ValueError(f"{THREADS_ENV} must be >= 1, got {env_limit}")
        limit = env_limit if limit is None else min(limit, env_limit)
    if limit is None:
        limit = os.cpu_count() or 1
    return max(1, min(limit, n_tasks))


def single_threaded_blas():
    """Context manager pinning BLAS pools to one thread (no-op fallback)."""
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:  # threadpoolctl is optional; BLAS then keeps its own thread count
        return contextlib.nullcontext()
    return threadpool_limits(limits=1, user_api="blas")


def _fork_context():
    # Imported on first use, so commands that never fan out (estimate,
    # simulate) do not load multiprocessing: about 1 MB of peak memory.
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def _run(index: int):
    # Runs in a forked worker, on the job it inherited.
    fn, items = _job
    return fn(items[index])


def ordered_map(fn, items, workers: int | None = None) -> list:
    """Map ``fn`` over ``items`` with results in input order.

    Runs inside a single-threaded-BLAS region regardless of the worker
    count, so results are identical whether the map is serial or forked.
    The first task exception is raised in the caller with its type, and
    the tasks not yet started are cancelled.  A worker that dies, or an
    exception that cannot be unpickled, raises ``BrokenProcessPool``.
    """
    global _job
    items = list(items)
    n = worker_count(len(items), workers)
    with single_threaded_blas():
        context = _fork_context() if n > 1 else None
        if context is None or not _busy.acquire(blocking=False):
            return [fn(item) for item in items]
        _job = (fn, items)
        try:
            # With the fork context the executor forks all n workers on the
            # first submit, after _job is set and before its manager thread
            # starts.
            pool = concurrent.futures.ProcessPoolExecutor(n, mp_context=context)
            try:
                return list(pool.map(_run, range(len(items))))
            finally:
                pool.shutdown(cancel_futures=True)
        finally:
            _job = None
            _busy.release()
