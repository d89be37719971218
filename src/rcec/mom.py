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

The second-moment median runs on a boolean entry mask, one block-major
m by k buffer over the k masked entries in row-major order, filled one block
at a time.  ``mom_covariance`` masks the upper triangle: the matrices are
symmetric, so the lower triangle is a mirror and needs no median of its own,
and the m x p x p stack ``np.median`` would take is never built.  A caller
that reads only some entries (a bootstrap replicate reads its baseline edges
and the diagonal) masks just those.  Each block's undivided ``block.T @
block`` is gathered at the mask and then divided by the block size; the
division is elementwise, so gathering first gives the same bits and divides
only the kept entries.  The buffer is sorted in place along its block axis
rather than partitioned: the columns are short (m is about 3 ln p), numpy
sorts short columns faster than its multi-``kth`` partition selects in them,
and the sort needs no second buffer.  The median is then the mean of the
middle one or two sorted values, which is how ``np.median`` computes it, so
the result is bitwise equal to ``np.median`` over the block axis.

Both estimators are bitwise symmetric with no symmetrizing pass:
``block.T @ block`` runs as a BLAS rank-k update that computes one triangle
and mirrors it (numpy's own loop sums (i, j) and (j, i) in the same order),
the packed median is written to both triangles, and the outer product of
the means is symmetric because multiplication commutes.
"""

from __future__ import annotations

import math

import numpy as np

from .compdata import _as_matrix, _check_count


def _check_L(L) -> float:
    """The package's one check of ``L``: a finite real number > 0, not a bool or a string."""
    if not isinstance(L, (int, float, np.integer, np.floating)) or isinstance(L, bool):
        raise ValueError(f"L must be a real number, got {L!r}")
    try:
        value = float(L)
    except OverflowError:  # an int too large for a float
        value = math.inf
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"L must be finite and > 0, got {L!r}")
    return value


def default_block_count(p: int, L: float = 1.0, n_cap: int | None = None) -> int:
    """Default MOM block count ``ceil((2 + L) * ln p)``, clamped to ``n_cap``.

    ``L`` trades robustness (more blocks) against block-level stability
    (fewer, larger blocks); the caller passes the sample count as ``n_cap``
    so the partition never degenerates below one sample per block.
    """
    p = _check_count(p, "p", 2)
    m = math.ceil((2.0 + _check_L(L)) * math.log(p))
    if n_cap is not None:
        m = min(m, _check_count(n_cap, "n_cap", 1))
    return m


def _block_moments(block: np.ndarray):
    # Shared by the sample and MOM paths so that MOM with one block is
    # bitwise identical to the sample covariance.  The second moment is
    # left undivided: each caller divides the entries it keeps.
    return block.mean(axis=0), block.T @ block


def _median_moments(arr: np.ndarray, block_count: int, mask: np.ndarray):
    """Median-of-means first moments, and second moments at ``mask``.

    ``arr`` is a validated n x p data matrix with ``1 <= block_count <= n``
    and ``mask`` a p x p boolean array.  Returns the length-p median of the
    block means and the median of the block second moments at the masked
    entries, in row-major order.
    """
    means = np.empty((block_count, arr.shape[1]))
    seconds = np.empty((block_count, np.count_nonzero(mask)))
    for l, block in enumerate(np.array_split(arr, block_count)):
        means[l], second = _block_moments(block)
        seconds[l] = second[mask]
        seconds[l] /= block.shape[0]
    seconds.sort(axis=0)
    middle = seconds[(block_count - 1) // 2 : block_count // 2 + 1].mean(axis=0)
    return np.median(means, axis=0), middle


def sample_covariance(W) -> np.ndarray:
    """Sample covariance with divisor n (not n - 1)."""
    arr = _as_matrix(W, "data matrix", min_rows=2)
    mean, second = _block_moments(arr)
    second /= arr.shape[0]
    return second - np.outer(mean, mean)


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
    block_count = _check_count(block_count, "block_count", 1)
    if block_count > n:
        raise ValueError(f"block_count {block_count} exceeds sample count {n}")
    upper = np.triu(np.ones((p, p), dtype=bool))
    med_mean, middle = _median_moments(arr, block_count, upper)
    med_second = np.empty((p, p))
    med_second[upper] = middle
    med_second.T[upper] = middle
    return med_second - np.outer(med_mean, med_mean)
