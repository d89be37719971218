"""Deterministic fan-out helpers.

Batch drivers (benchmark replications, bootstrap replicates) fan out across a
thread pool and reduce results in submission order, so serial and parallel
runs produce identical output.  The BLAS pool is pinned to one thread inside
these regions when ``threadpoolctl`` imports: multithreaded kernels may
reorder reductions.  The ``RCEC_THREADS`` environment variable is the one
cap on the pool size.
"""

from __future__ import annotations

import contextlib
import os
from concurrent.futures import ThreadPoolExecutor

THREADS_ENV = "RCEC_THREADS"


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
    except ImportError:  # pragma: no cover - present in supported environments
        return contextlib.nullcontext()
    return threadpool_limits(limits=1, user_api="blas")


def ordered_map(fn, items, workers: int | None = None) -> list:
    """Map ``fn`` over ``items`` with results in input order.

    Runs inside a single-threaded-BLAS region regardless of the worker
    count, so results are identical whether the map is serial or threaded.
    """
    items = list(items)
    n = worker_count(len(items), workers)
    with single_threaded_blas():
        if n <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=n) as pool:
            return list(pool.map(fn, items))
