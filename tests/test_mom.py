"""Median-of-means covariance, its block partition, and the sample covariance."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rcec import default_block_count, mom, mom_covariance, parallel, sample_covariance
from rcec.mom import _block_product, _median_covariance


def _mom_reference(w, sizes):
    # Straight-line MOM over explicitly sized contiguous blocks.
    bounds = np.cumsum([0] + list(sizes))
    blocks = [w[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    med_mean = np.median([b.mean(axis=0) for b in blocks], axis=0)
    med_second = np.median([b.T @ b / b.shape[0] for b in blocks], axis=0)
    g = med_second - np.outer(med_mean, med_mean)
    return (g + g.T) / 2.0


def _assert_bitwise_equal(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class TestRegularPartition:
    """mom_covariance splits the rows, in stored order, into contiguous
    blocks whose sizes differ by at most one, larger blocks first."""

    def test_even_split(self):
        # Blocks {1, 3}, {5, 7}, {9, 11}: means 2, 6, 10; second moments
        # 5, 37, 101; median 37 - 6**2 = 1.
        w = np.array([[1.0], [3.0], [5.0], [7.0], [9.0], [11.0]])
        assert mom_covariance(w, 3)[0, 0] == 1.0

    def test_uneven_split_larger_blocks_first(self):
        cases = [
            # n = 3, two blocks of sizes 2, 1: {1, 3}, {10}.  Means 2 and 10,
            # second moments 5 and 100; both medians are midpoints.
            (np.array([[1.0], [3.0], [10.0]]), 2, [[52.5 - 36.0]]),
            # n = 7, three blocks of sizes 3, 2, 2.  Block means (0, 1),
            # (1, 3), (2, -1); the entrywise medians give the result.
            (
                np.column_stack(
                    [[0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 2.0], [1.0, 1.0, 1.0, 3.0, 3.0, -1.0, -1.0]]
                ),
                3,
                [[0.0, -1.0], [-1.0, 0.0]],
            ),
        ]
        for w, block_count, expected in cases:
            np.testing.assert_array_equal(mom_covariance(w, block_count), expected)
            # The same rows cut with the smaller blocks first give another answer.
            base, extra = divmod(w.shape[0], block_count)
            smaller_first = [base] * (block_count - extra) + [base + 1] * extra
            assert not np.array_equal(_mom_reference(w, smaller_first), expected)

    def test_block_count_exceeding_n_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            mom_covariance(np.ones((3, 2)), 5)

    def test_block_count_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            mom_covariance(np.ones((3, 2)), 0)

    def test_single_block(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(5, 3))
        np.testing.assert_array_equal(mom_covariance(w, 1), _mom_reference(w, [5]))

    @given(st.integers(2, 60), st.integers(1, 60), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_blocks_partition_range(self, n, m, p, seed):
        w = np.random.default_rng(seed).normal(size=(n, p))
        if m > n:
            with pytest.raises(ValueError, match="exceeds"):
                mom_covariance(w, m)
            return
        base, extra = divmod(n, m)
        sizes = [base + 1] * extra + [base] * (m - extra)
        _assert_bitwise_equal(mom_covariance(w, m), _mom_reference(w, sizes))

    @given(
        st.integers(1, 4),
        st.integers(1, 12),
        st.integers(1, 3),
        st.integers(0, 11),
        st.integers(0, 2**32 - 1),
    )
    @example(p=2, m=1, base=2, extra=0, seed=0)
    @example(p=2, m=5, base=1, extra=0, seed=0)
    @example(p=2, m=6, base=1, extra=0, seed=1)
    def test_ties_and_signed_zeros_match_np_median(self, p, m, base, extra, seed):
        # Entries from {-1, -0.0, 0.0, 1, 2}: block moments tie often, and
        # zeros of both signs enter every moment.
        extra %= m
        n = max(m * base + extra, 2)
        values = np.array([-1.0, -0.0, 0.0, 1.0, 2.0])
        w = np.random.default_rng(seed).choice(values, size=(n, p))
        sizes = [base + 1] * extra + [base] * (m - extra)
        sizes[0] += n - sum(sizes)
        _assert_bitwise_equal(mom_covariance(w, m), _mom_reference(w, sizes))


class TestMedianOfMeans:
    """The median of block means, seen on one component (p = 1)."""

    def test_hand_example(self):
        # Blocks {1, 2}, {3, 4}, {5, 100}: median mean 3.5, median second
        # moment 12.5; the outlier moves neither.
        w = np.array([[1.0], [2.0], [3.0], [4.0], [5.0], [100.0]])
        assert mom_covariance(w, 3)[0, 0] == 12.5 - 3.5**2

    def test_single_block_is_mean(self):
        w = np.array([[1.0], [2.0], [4.0]])
        assert mom_covariance(w, 1)[0, 0] == pytest.approx(np.var(w))

    def test_n_blocks_is_sample_median(self):
        # One sample per block, even count: midpoints of the two central
        # order statistics, 3.5 for the values and 12.5 for their squares.
        w = np.array([[1.0], [2.0], [3.0], [4.0], [5.0], [100.0]])
        assert mom_covariance(w, 6)[0, 0] == 12.5 - 3.5**2

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least 2 samples"):
            mom_covariance(np.empty((0, 3)), 1)


class TestSampleCovariance:
    def test_hand_example(self):
        w = np.array([[1.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_allclose(sample_covariance(w), [[1, -1], [-1, 1]])

    def test_divisor_is_n(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(9, 4))
        np.testing.assert_allclose(
            sample_covariance(w), np.cov(w, rowvar=False, bias=True), atol=1e-12
        )

    def test_constant_column_has_zero_variance(self):
        w = np.column_stack([np.full(5, 3.0), np.arange(5.0)])
        assert sample_covariance(w)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError, match="at least 2 samples"):
            sample_covariance(np.ones((1, 3)))


class TestMomCovariance:
    def test_hand_example_exact(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(mom_covariance(w, 2), np.full((2, 2), 5.0))

    @given(st.integers(0, 2**32 - 1))
    def test_single_block_equals_sample_covariance_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_t(df=3, size=(rng.integers(2, 20), rng.integers(2, 6)))
        np.testing.assert_array_equal(mom_covariance(w, 1), sample_covariance(w))

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="must be a 2-d array, got ndim=1"):
            mom_covariance(np.ones(5), 1)

    def test_output_symmetric_exactly(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(30, 5))
        g = mom_covariance(w, 7)
        np.testing.assert_array_equal(g, g.T)

    def test_block_permutation_invariance(self):
        # Swapping whole blocks permutes block means inside the median,
        # which is order-free.
        rng = np.random.default_rng(4)
        w = rng.normal(size=(12, 3))
        swapped = np.vstack([w[4:8], w[0:4], w[8:12]])
        np.testing.assert_array_equal(mom_covariance(w, 3), mom_covariance(swapped, 3))

    def test_robust_to_gross_outlier(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(100, 4))
        w_bad = w.copy()
        w_bad[0] = 1e6
        clean = mom_covariance(w, 10)
        assert np.max(np.abs(mom_covariance(w_bad, 10) - clean)) < 1.0
        assert np.max(np.abs(sample_covariance(w_bad) - clean)) > 1e6

    def test_shuffle_seed_deterministic(self):
        # Blocks follow the stored row order; a caller wanting random blocks
        # shuffles the rows with a seeded generator first, and gets the
        # same answer for the same seed.
        rng = np.random.default_rng(6)
        w = rng.normal(size=(20, 3))
        shuffled = w[np.random.default_rng(9).permutation(20)]
        np.testing.assert_array_equal(mom_covariance(shuffled, 4), mom_covariance(shuffled, 4))
        assert not np.array_equal(mom_covariance(shuffled, 4), mom_covariance(w, 4))

    @pytest.mark.parametrize("m, p", [(60, 100), (120, 60)])
    def test_holds_one_packed_block_buffer(self, m, p):
        # The m x p(p + 1)/2 second-moment buffer is sorted where it lies;
        # a transposed copy would double the peak.
        w = np.random.default_rng(7).normal(size=(m, p))
        mom_covariance(w, m)  # warm-up: first-call allocations are not the kernel's
        tracemalloc.start()
        try:
            mom_covariance(w, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * m * (p * (p + 1) // 2) * 8

    def test_accepts_clr_matrix(self):
        from rcec import clr_transform

        x = np.array([[0.2, 0.3, 0.5], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2], [0.25, 0.5, 0.25]])
        w = clr_transform(x)
        np.testing.assert_array_equal(mom_covariance(w, 2), mom_covariance(w.values, 2))


class TestMedianMoments:
    """The masked kernel gives the full estimators' bits at its entries."""

    @given(
        n=st.integers(2, 40),
        p=st.integers(1, 8),
        m=st.integers(1, 40),
        ties=st.booleans(),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=6, p=3, m=1, ties=True, density=1.0, seed=0)
    @example(n=6, p=3, m=4, ties=True, density=0.0, seed=0)
    def test_matches_full_estimators_at_the_mask(self, n, p, m, ties, density, seed):
        rng = np.random.default_rng(seed)
        m = min(m, n)
        if ties:
            w = rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0], size=(n, p))
        else:
            w = rng.standard_t(df=3, size=(n, p))
        # Random entries of both triangles and the diagonal; density 0 masks none.
        mask = rng.random((p, p)) < density
        full = mom_covariance(w, m) if m > 1 else sample_covariance(w)
        _assert_bitwise_equal(_median_covariance(w, m, mask), full[mask])


class TestThreadSplit:
    """The kernel's bits do not depend on how many threads share its work."""

    # (n, m): odd and even block counts; blocks of 1, 2 and >= 3 rows, alone
    # and mixed.
    SHAPES = [(5, 5), (6, 6), (7, 6), (10, 5), (12, 6), (16, 5), (19, 6), (40, 7), (9, 1)]

    def _run(self, monkeypatch, threads, w, m, mask):
        monkeypatch.setenv("RCEC_THREADS", threads)
        seen = set()

        def recording_product(block, out):
            seen.add(threading.get_ident())
            return _block_product(block, out)

        with monkeypatch.context() as patch:
            patch.setattr(mom, "_block_product", recording_product)
            results = (mom_covariance(w, m), _median_covariance(w, m, mask))
        # Whether a block product ran off the calling thread.
        return results, bool(seen - {threading.get_ident()})

    @pytest.mark.parametrize("n, m", SHAPES)
    @pytest.mark.parametrize("ties", [False, True])
    def test_same_bits_under_one_and_two_threads(self, monkeypatch, n, m, ties):
        monkeypatch.setattr(mom, "_THREAD_SHARE", 1)
        rng = np.random.default_rng(n * 100 + m)
        p = 13
        if ties:
            w = rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0], size=(n, p))
        else:
            w = rng.standard_t(df=3, size=(n, p))
        for mask in (np.triu(np.ones((p, p), dtype=bool)), rng.random((p, p)) < 0.2):
            one, one_split = self._run(monkeypatch, "1", w, m, mask)
            two, two_split = self._run(monkeypatch, "2", w, m, mask)
            assert not one_split
            if m > 1 and parallel._openblas() is not None:
                assert two_split
            for got, want in zip(two, one):
                _assert_bitwise_equal(got, want)

    @pytest.mark.parametrize("n, m", SHAPES)
    @pytest.mark.parametrize("threads", ["1", "3"])
    @pytest.mark.parametrize("tile", [1, 2, 7])
    def test_sort_tiles_match_np_median(self, monkeypatch, n, m, threads, tile):
        # Tiles of one, two or seven columns, so tile edges fall inside every
        # thread's range.
        monkeypatch.setattr(mom, "_THREAD_SHARE", 1)
        monkeypatch.setattr(mom, "_SORT_TILE", tile * m)
        monkeypatch.setenv("RCEC_THREADS", threads)
        rng = np.random.default_rng(n * 100 + m)
        w = rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0], size=(n, 13))
        sizes = [n // m + 1] * (n % m) + [n // m] * (m - n % m)
        _assert_bitwise_equal(mom_covariance(w, m), _mom_reference(w, sizes))

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch):
        # Threads writing next to each other in the shared buffers: a lost
        # or misplaced write would change the bits.
        monkeypatch.setattr(mom, "_THREAD_SHARE", 1)
        w = np.random.default_rng(4).standard_t(df=3, size=(23, 31))
        mask = np.random.default_rng(5).random((31, 31)) < 0.5
        want, _ = self._run(monkeypatch, "1", w, 11, mask)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                got, _ = self._run(monkeypatch, "5", w, 11, mask)
                for g, x in zip(got, want):
                    _assert_bitwise_equal(g, x)
        finally:
            sys.setswitchinterval(interval)

    def test_block_phase_stays_inline_without_the_blas_pin(self, monkeypatch):
        monkeypatch.setattr(mom, "_THREAD_SHARE", 1)
        w = np.random.default_rng(3).standard_t(df=3, size=(19, 13))
        mask = np.triu(np.ones((13, 13), dtype=bool))
        pinned, _ = self._run(monkeypatch, "2", w, 6, mask)
        monkeypatch.setattr(parallel, "_openblas", lambda: None)
        unpinned, split = self._run(monkeypatch, "2", w, 6, mask)
        assert not split
        for got, want in zip(unpinned, pinned):
            _assert_bitwise_equal(got, want)


_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-300, -1e-300,
                1e-160, 1e160, 1e300, -1e300, 1.7976931348623157e308]


class TestBlockProduct:
    @given(
        row=st.lists(
            st.sampled_from(_EDGE_VALUES) | st.floats(allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=40,
        )
    )
    @example(row=[-0.0, 1.0, -1.0, 0.0])
    def test_single_row_product_equals_matmul_bitwise(self, row):
        block = np.array([row])
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            want = block.T @ block
            got = _block_product(block, np.empty_like(want))
        assert got.tobytes() == want.tobytes()


class TestExactSymmetry:
    """Both kernels return bitwise-symmetric matrices with no symmetrizing
    pass; the comparison is on the bits, so signed zeros count."""

    @given(
        n=st.integers(2, 100),
        p=st.integers(2, 200),
        m=st.integers(1, 21),
        ties=st.booleans(),
        constant=st.integers(0, 3),
        subset=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=5, p=3, m=5, ties=True, constant=1, subset=False, seed=0)
    @example(n=21, p=200, m=21, ties=False, constant=2, subset=True, seed=1)
    def test_bitwise_symmetric(self, n, p, m, ties, constant, subset, seed):
        rng = np.random.default_rng(seed)
        rows = n + n // 4 if subset else n
        if ties:
            w = rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0], size=(rows, p))
        else:
            w = rng.standard_t(df=3, size=(rows, p))
        w[:, :constant] = rng.choice([-0.0, 0.0, 2.5])
        if subset:
            # A fold's training rows: a boolean-mask subset of a larger table.
            keep = np.ones(rows, dtype=bool)
            keep[rng.choice(rows, rows - n, replace=False)] = False
            w = w[keep]
        for g in (sample_covariance(w), mom_covariance(w, min(m, n))):
            assert np.array_equal(g.view(np.int64), g.T.view(np.int64))


class TestDefaultBlockCount:
    def test_reference_values(self):
        assert default_block_count(100) == 14
        assert default_block_count(50) == 12

    def test_clamped_by_sample_count(self):
        assert default_block_count(100, n_cap=10) == 10

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="p must be"):
            default_block_count(1)
        with pytest.raises(ValueError, match="L must be"):
            default_block_count(10, L=0.0)

    @pytest.mark.parametrize("L", [True, "2", float("inf"), float("nan")])
    def test_rejects_L_that_is_not_a_finite_positive_real(self, L):
        with pytest.raises(ValueError, match="L must be"):
            default_block_count(10, L=L)
