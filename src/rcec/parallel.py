"""Deterministic fan-out helpers.

Batch drivers (benchmark replications, bootstrap replicates) fan out across
forked worker processes and collect results in submission order, so serial
and parallel runs produce identical output.  A map stores its function and
items in a module global before the pool forks; the workers inherit them and
receive only task indices, in chunks, so closures and large inputs are never
pickled.  Only results and exceptions travel back, and an exception keeps its
type; a task that raises ends its chunk.

The map runs serially in the calling process where the ``fork`` start method
does not exist, and when another map or a split is already running: a map
nested inside a task, or one started by a second thread.

One large array computation splits over threads with :func:`split_work`:
numpy releases the interpreter lock in its sorts, matrix products, gathers
and LAPACK calls.  The caller bounds the thread count from its own
measurements, and each thread writes its own part of the output, so the
bits do not depend on the split.  A split runs on the calling thread inside
a forked worker and while a map or another split runs.  The
``RCEC_THREADS`` environment variable is the one cap on the number of
worker processes and of split threads.

:func:`one_blas_thread` pins numpy's bundled OpenBLAS to one thread through
``ctypes``, since multithreaded kernels may reorder reductions.  It decorates
each library function that calls BLAS, so forked tasks and split parts are
pinned too; where that library is not found, it does nothing, and a split
that calls BLAS runs on the calling thread.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import contextvars
import functools
import os
import threading

THREADS_ENV = "RCEC_THREADS"

# Held while a map's pool or a split's threads run.  A forked worker inherits
# it held, so a map or a split inside a task runs serially.
_busy = threading.Lock()
# (fn, items) of the running map, read by the workers that fork from it.
_job = None


def worker_count(n_tasks: int, requested: int | None = None) -> int:
    """Resolve the worker count from the request, environment and task count."""
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
        # The CPUs this process may run on, where the OS reports them.
        affinity = getattr(os, "sched_getaffinity", None)
        limit = len(affinity(0)) if affinity else os.cpu_count() or 1
    return max(1, min(limit, n_tasks))


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

    Results are identical whether the map is serial or forked: a task
    reaches BLAS only through functions that pin it themselves.  Forked
    tasks go to the workers in chunks of ``len(items) // (16 * n)``, at
    least one, for ``n`` workers: each worker gets at least 16 chunks, so
    the last one finishes at most a chunk after the others, and each chunk
    makes one round trip through the pool's queues.  The first task
    exception in input order is raised in the caller with its type; the
    rest of its chunk does not run, and the chunks not yet started are
    cancelled.  A worker that dies, or an exception that cannot be
    unpickled, raises ``BrokenProcessPool``.
    """
    global _job
    items = list(items)
    n = worker_count(len(items), workers)
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
            chunk = max(1, len(items) // (16 * n))
            return list(pool.map(_run, range(len(items)), chunksize=chunk))
        finally:
            pool.shutdown(cancel_futures=True)
    finally:
        _job = None
        _busy.release()


@functools.cache
def _openblas():
    """``(get, set)`` for the thread count of numpy's bundled OpenBLAS, or None.

    Found once, on first use, in the ``numpy.libs`` directory that numpy's
    wheels ship; loading the library again returns the copy numpy uses.
    """
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):  # not loadable, or another OpenBLAS build
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Pin numpy's bundled OpenBLAS to one thread, and restore its count on
    exit, also on error; do nothing where that library is not found.  Used
    only as the decorator ``@one_blas_thread()``; the count is process-wide."""
    pin = _openblas()
    if pin is None:
        yield
        return
    get, set_ = pin
    old = get()
    set_(1)
    try:
        yield
    finally:
        set_(old)


def split_work(plan, threads: int, blas: bool = False) -> None:
    """Run one computation split over threads, each writing its own outputs.

    ``threads`` is the most threads the work can use, from the caller's own
    measurements; :func:`worker_count` caps it, and the count is 1 inside a
    forked worker and while a map or another split runs.  ``plan(count)``
    runs on the calling thread and returns ``part``; it allocates what the
    threads need there, so peak memory does not depend on thread timing.
    ``part(k)`` then runs once for each ``k`` in ``range(count)``, ``k = 0``
    on the calling thread.  With ``blas`` the parts call BLAS and the caller
    holds :func:`one_blas_thread`: they run on the calling thread unless
    numpy's bundled OpenBLAS is found.  An exception that a part raises
    reaches the caller with its type, after every thread has joined; part 0's
    comes first, then the others' in part order.
    """
    threads = worker_count(threads)
    if threads == 1 or (blas and _openblas() is None) or not _busy.acquire(blocking=False):
        plan(1)(0)
        return
    try:
        part = plan(threads)
        errors = [None] * threads

        def guarded(k, context):
            # numpy's error state lives in a context variable, which a new
            # thread would otherwise read at its default.
            try:
                context.run(part, k)
            except BaseException as error:  # raised again in the caller below
                errors[k] = error

        helpers = []
        try:
            for k in range(1, threads):
                helper = threading.Thread(target=guarded, args=(k, contextvars.copy_context()))
                helper.start()
                helpers.append(helper)
            part(0)
        finally:
            for helper in helpers:
                helper.join()
        for error in errors:
            if error is not None:
                raise error
    finally:
        _busy.release()
