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

The kernel returns the covariance at the k entries of a boolean mask, in
row-major order; its second-moment median fills one block-major m by k
buffer, one block at a time.  ``mom_covariance`` masks the upper triangle and
mirrors it: the matrices are symmetric, so the lower triangle needs no median
of its own, and the m x p x p stack ``np.median`` would take is never built.
A caller that reads only some entries (a bootstrap replicate reads its
baseline edges and the diagonal) masks just those.  Each block's undivided
``block.T @ block`` is gathered at the mask and then divided by the block
size; the division is elementwise, so gathering first gives the same bits and
divides only the kept entries.  The buffer is sorted along its block axis
rather than partitioned: the columns are short (m is about 3 ln p), and
numpy sorts short columns faster than its multi-``kth`` partition selects in
them.  Each thread copies its columns, ``_SORT_TILE`` values at a time,
into rows of a tile of its own, sorts the rows and copies them back.  The
rows are contiguous, so numpy sorts them where they are with the sort
function it runs on a column's copy, and takes no buffer of its own: those
come from a cache that all threads share, and two threads whose buffers
shared a cache line sorted about four times slower.  The median is then the
mean of the middle one or two sorted values, which is how ``np.median``
computes it, so the result is bitwise equal to ``np.median`` over the block
axis.

Both phases, forming the block moments and sorting the buffer, split over
threads through :func:`rcec.parallel.split_work`, which ``RCEC_THREADS``
caps; the threads run under the caller's one-thread BLAS pin.  The blocks
alternate between the threads, and each thread forms its products in its
own p x p buffer and gathers them into its own rows of the block-major
buffer; the sort runs on disjoint column ranges, each thread through its
own tile.  Every value comes from the same numpy call however the work is
split, so the bits do not depend on the thread count.

Both estimators are bitwise symmetric with no symmetrizing pass:
``block.T @ block`` runs as a BLAS rank-k update that computes one triangle
and mirrors it (numpy's own loop sums (i, j) and (j, i) in the same order),
and the product of the mean medians at (i, j) is that at (j, i) because
multiplication commutes, so the MOM triangle is written to both.
"""

from __future__ import annotations

import math

import numpy as np

from .compdata import _as_matrix, _check_count
from .parallel import one_blas_thread, split_work

# Values of the block-major buffer that a sort thread copies into its tile
# at once, whole columns of m values each: 128 kB, a small share of the
# buffer.  Smaller tiles sort slower, from the per-tile numpy calls.
_SORT_TILE = 16384


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


def _block_product(block: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``block.T @ block`` written to ``out``, bit for bit.

    Shared by the sample and MOM paths, so that MOM with one block is
    bitwise the sample covariance.  The product is left undivided: each
    caller divides the entries it keeps.
    """
    if block.shape[0] == 1:
        # numpy's matmul is slow at k = 1.  einsum, like the matmul, sums
        # the products onto a zeroed output, so a -0.0 product reads +0.0
        # in both; and it allocates none of the iteration buffers (about
        # 130 kB) of a broadcast np.multiply.
        np.einsum("i,j->ij", block[0], block[0], out=out)
    else:
        np.matmul(block.T, block, out=out)
    return out


@one_blas_thread()
def _median_covariance(arr: np.ndarray, block_count: int, mask: np.ndarray) -> np.ndarray:
    """Median-of-means covariance at ``mask``.

    ``arr`` is a validated n x p data matrix with ``1 <= block_count <= n``
    and ``mask`` a p x p boolean array.  Returns the masked entries in
    row-major order: the median of the block second moments less the
    product of the medians of the block means.
    """
    p = arr.shape[1]
    blocks = np.array_split(arr, block_count)
    index = np.flatnonzero(mask)
    means = np.empty((block_count, p))
    seconds = np.empty((block_count, index.size))

    def block_phase(threads):
        products = np.empty((threads, p, p))

        def part(k):
            for l in range(k, block_count, threads):
                block = blocks[l]
                block.mean(axis=0, out=means[l])
                _block_product(block, products[k]).take(index, out=seconds[l], mode="clip")
                seconds[l] /= block.shape[0]

        return part

    def sort_phase(threads):
        edges = [k * index.size // threads for k in range(threads + 1)]
        width = max(1, _SORT_TILE // block_count)
        tiles = [np.empty((min(width, edges[k + 1] - edges[k]), block_count)) for k in range(threads)]

        def part(k):
            for start in range(edges[k], edges[k + 1], width):
                columns = seconds[:, start : min(start + width, edges[k + 1])]
                rows = tiles[k][: columns.shape[1]]
                np.copyto(rows.T, columns)
                rows.sort(axis=1)
                np.copyto(columns, rows.T)

        return part

    split_work(block_phase, block_count, seconds.size, blas=True)
    split_work(sort_phase, index.size, seconds.size)
    middle = seconds[(block_count - 1) // 2 : block_count // 2 + 1].mean(axis=0)
    med_mean = np.median(means, axis=0)
    return middle - np.outer(med_mean, med_mean).take(index)


@one_blas_thread()
def sample_covariance(W) -> np.ndarray:
    """Sample covariance with divisor n (not n - 1)."""
    arr = _as_matrix(W, "data matrix", min_rows=2)
    n, p = arr.shape
    mean, second = arr.mean(axis=0), _block_product(arr, np.empty((p, p)))
    second /= n
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
    packed = _median_covariance(arr, block_count, upper)
    gamma = np.empty((p, p))
    gamma[upper] = packed
    gamma.T[upper] = packed
    return gamma
