"""Matrix losses, support recovery, and eigenvalue utilities."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rcec import (
    build_omega0,
    clr_proxy_gap,
    frobenius_loss,
    matrix_l1_loss,
    min_eigenvalue,
    spectral_loss,
    support_metrics,
)
from rcec.metrics import centering_matrix


def _symmetric(p, seed):
    a = np.random.default_rng(seed).normal(size=(p, p))
    return (a + a.T) / 2


symmetric_pairs = st.integers(0, 10_000).map(
    lambda s: (_symmetric(5, s), _symmetric(5, s + 50_000))
)


class TestLosses:
    def test_zero_on_equal_inputs(self):
        a = _symmetric(4, 0)
        assert matrix_l1_loss(a, a) == 0.0
        assert spectral_loss(a, a) == 0.0
        assert frobenius_loss(a, a) == 0.0

    def test_matrix_l1_hand_value(self):
        a = np.array([[1.0, -2.0], [-2.0, 0.0]])
        assert matrix_l1_loss(a, np.zeros((2, 2))) == 3.0

    def test_matrix_l1_symmetric_equals_max_row_sum(self):
        a = _symmetric(6, 1)
        assert matrix_l1_loss(a, np.zeros((6, 6))) == pytest.approx(
            np.abs(a).sum(axis=1).max()
        )

    def test_spectral_hand_value(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert spectral_loss(a, np.zeros((2, 2))) == pytest.approx(3.0)

    def test_spectral_scaled_identity(self):
        assert spectral_loss(-2.5 * np.eye(7), np.zeros((7, 7))) == pytest.approx(2.5)

    def test_frobenius_hand_value(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert frobenius_loss(a, np.zeros((2, 2))) == pytest.approx(np.sqrt(10))

    def test_frobenius_rank_one(self):
        u = np.array([1.0, 2.0, 3.0])
        assert frobenius_loss(np.outer(u, u), np.zeros((3, 3))) == pytest.approx(
            float(u @ u)
        )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            matrix_l1_loss(np.eye(2), np.eye(3))
        with pytest.raises(ValueError, match="square"):
            spectral_loss(np.ones((2, 3)), np.ones((2, 3)))

    @given(symmetric_pairs)
    def test_losses_symmetric_in_arguments(self, pair):
        a, b = pair
        for loss in (matrix_l1_loss, spectral_loss, frobenius_loss):
            assert loss(a, b) == pytest.approx(loss(b, a))

    @given(symmetric_pairs, st.integers(0, 10_000))
    def test_triangle_inequality(self, pair, seed):
        a, b = pair
        c = _symmetric(5, seed + 100_000)
        for loss in (matrix_l1_loss, spectral_loss, frobenius_loss):
            assert loss(a, b) <= loss(a, c) + loss(c, b) + 1e-9

    @given(symmetric_pairs)
    def test_spectral_below_matrix_l1(self, pair):
        a, b = pair
        assert spectral_loss(a, b) <= matrix_l1_loss(a, b) + 1e-9


class TestSupportMetrics:
    def test_hand_example(self):
        est = np.zeros((3, 3))
        est[0, 1] = est[1, 0] = 0.4
        est[0, 2] = est[2, 0] = -0.1
        tru = np.zeros((3, 3))
        tru[0, 1] = tru[1, 0] = 1.0
        m = support_metrics(est, tru)
        assert m.tpr == 1.0
        assert m.fpr == 0.5
        assert m.true_edges == 1
        assert m.estimated_edges == 2

    def test_perfect_recovery(self):
        tru = build_omega0(10)
        m = support_metrics(tru, tru)
        assert (m.tpr, m.fpr, m.sign_consistent) == (1.0, 0.0, True)

    def test_fully_dense_estimate(self):
        tru = build_omega0(10)
        m = support_metrics(np.ones((10, 10)), tru)
        assert (m.tpr, m.fpr) == (1.0, 1.0)

    def test_degenerate_truths_flagged(self):
        diag = np.diag([1.0, 2.0, 3.0])
        m = support_metrics(np.zeros((3, 3)), diag)
        assert m.tpr == 1.0 and m.tpr_degenerate and not m.fpr_degenerate
        dense = np.ones((3, 3))
        m = support_metrics(np.zeros((3, 3)), dense)
        assert m.fpr == 0.0 and m.fpr_degenerate and not m.tpr_degenerate

    def test_sign_consistency_requires_matching_sign(self):
        tru = np.zeros((3, 3))
        tru[0, 1] = tru[1, 0] = 1.0
        est = np.zeros((3, 3))
        est[0, 1] = est[1, 0] = -0.5
        assert not support_metrics(est, tru).sign_consistent
        est[0, 1] = est[1, 0] = 0.5
        assert support_metrics(est, tru).sign_consistent


class TestMinEigenvalue:
    def test_reference_values(self):
        assert min_eigenvalue(np.eye(5)) == pytest.approx(1.0)
        assert min_eigenvalue([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(1.0)
        assert min_eigenvalue(np.diag([4.0, -1.0])) == pytest.approx(-1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            min_eigenvalue([[np.nan, 0.0], [0.0, 1.0]])

    def test_huge_finite_entries_do_not_overflow(self):
        # The helpers read one triangle: a symmetrizing copy (x + x.T) / 2
        # would overflow to inf here and give nan, with a RuntimeWarning.
        big = np.diag([1e308, 1.0])
        assert min_eigenvalue(big) == 1.0
        assert spectral_loss(big, np.zeros((2, 2))) == 1e308


class TestEigensolver:
    @pytest.mark.parametrize("p", [3, 10, 40])
    def test_reconstruction_and_trace(self, p):
        a = _symmetric(p, p)
        eigenvalues, q = np.linalg.eigh(a)
        reconstructed = (q * eigenvalues) @ q.T
        scale = np.abs(a).max()
        assert np.max(np.abs(reconstructed - a)) <= 1e-8 * scale
        assert eigenvalues.sum() == pytest.approx(np.trace(a), rel=1e-8)


class TestClrProxyGap:
    def test_identity_p4(self):
        gap, bound = clr_proxy_gap(np.eye(4))
        assert gap == pytest.approx(0.25)
        assert bound == pytest.approx(0.75)

    def test_centered_matrix_has_zero_gap(self):
        g = centering_matrix(6)
        gap, _ = clr_proxy_gap(3.0 * g)
        assert gap == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", [50, 100, 200])
    def test_bound_holds_for_benchmark_truth(self, p):
        gap, bound = clr_proxy_gap(build_omega0(p))
        assert gap <= bound

    def test_centering_matrix_properties(self):
        g = centering_matrix(5)
        np.testing.assert_allclose(g @ g, g, atol=1e-12)
        np.testing.assert_allclose(g @ np.ones(5), 0.0, atol=1e-12)
