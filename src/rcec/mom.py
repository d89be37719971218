"""Median-of-means covariance estimation.

Heavy-tailed rows wreck the sample covariance: a single gross sample can move
entries arbitrarily far.  The median-of-means (MOM) estimator splits the
samples into blocks, averages within blocks, and takes the median across
blocks, entry by entry.  First and second moments are robustified
separately under one shared partition:

    gamma_ij = median_l( mean_{k in block l} W_ki W_kj )
             - median_l( mean_{k in block l} W_ki ) * median_l( mean W_kj )

With a single block the medians are plain means and the estimator collapses
to the sample covariance (divisor n).

The second-moment median runs on the packed upper triangle, p(p + 1) / 2
entries by m blocks with the block axis contiguous: the matrices are
symmetric, so the lower triangle is a mirror and needs no median of its own,
and the m x p x p stack ``np.median`` would take is never built.  The packed
rows are sorted rather than partitioned: the rows are short (m is about
3 ln p), and numpy sorts short contiguous rows several times faster than its
multi-``kth`` partition selects in them.  The median is then the mean of the
middle one or two sorted values, which is how ``np.median`` computes it, so
the result is bitwise equal to ``np.median`` over the block axis.
"""

from __future__ import annotations

import math

import numpy as np

from .compdata import _as_matrix


def default_block_count(p: int, L: float = 1.0, n_cap: int | None = None) -> int:
    """Default MOM block count ``ceil((2 + L) * ln p)``, clamped to ``n_cap``.

    ``L`` trades robustness (more blocks) against block-level stability
    (fewer, larger blocks); the caller passes the sample count as ``n_cap``
    so the partition never degenerates below one sample per block.
    """
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if not (L > 0):
        raise ValueError(f"L must be > 0, got {L!r}")
    m = math.ceil((2.0 + L) * math.log(p))
    if n_cap is not None:
        if n_cap < 1:
            raise ValueError(f"n_cap must be >= 1, got {n_cap}")
        m = min(m, int(n_cap))
    return int(m)


def _block_moments(block: np.ndarray):
    # Shared by the sample and MOM paths so that MOM with one block is
    # bitwise identical to the sample covariance.
    mean = block.mean(axis=0)
    second = block.T @ block / block.shape[0]
    return mean, second


def _symmetrize(a: np.ndarray) -> np.ndarray:
    # Exact no-op when a is already bitwise symmetric.
    return (a + a.T) / 2.0


def sample_covariance(W) -> np.ndarray:
    """Sample covariance with divisor n (not n - 1)."""
    mean, second = _block_moments(_as_matrix(W, "data matrix", min_rows=2))
    return _symmetrize(second - np.outer(mean, mean))


def mom_covariance(W, block_count: int) -> np.ndarray:
    """Median-of-means covariance over contiguous near-equal blocks.

    Parameters
    ----------
    W : ClrMatrix or array_like
        Data matrix, one sample per row, in stored order.
    block_count : int
        Number of blocks; must not exceed the sample count.  The first
        ``n mod block_count`` blocks hold one sample more than the rest.
        One block reproduces the sample covariance exactly.

    Returns
    -------
    numpy.ndarray
        Symmetric p x p estimate.  Not necessarily positive semidefinite;
        regularization happens downstream.
    """
    arr = _as_matrix(W, "data matrix", min_rows=2)
    n, p = arr.shape
    block_count = int(block_count)
    if block_count < 1:
        raise ValueError(f"block_count must be >= 1, got {block_count}")
    if block_count > n:
        raise ValueError(f"block_count {block_count} exceeds sample count {n}")
    upper = np.triu(np.ones((p, p), dtype=bool))
    means = np.empty((block_count, p))
    seconds = np.empty((block_count, p * (p + 1) // 2))
    for l, block in enumerate(np.array_split(arr, block_count)):
        means[l], second = _block_moments(block)
        seconds[l] = second[upper]
    seconds = np.ascontiguousarray(seconds.T)
    seconds.sort(axis=1)
    middle = seconds[:, (block_count - 1) // 2 : block_count // 2 + 1].mean(axis=1)
    med_second = np.empty((p, p))
    med_second[upper] = middle
    med_second.T[upper] = middle
    med_mean = np.median(means, axis=0)
    return _symmetrize(med_second - np.outer(med_mean, med_mean))
