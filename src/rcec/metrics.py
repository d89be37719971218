"""Loss functions and support-recovery metrics for covariance estimates.

All matrix losses act on the symmetric difference of two square matrices.
Support metrics compare the off-diagonal sparsity patterns of an estimate
and a reference, counting each unordered pair once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compdata import _as_matrix, _check_count


def _pair(a, b):
    a = _as_matrix(a, "first matrix", square=True)
    b = _as_matrix(b, "second matrix", square=True)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def matrix_l1_loss(a, b) -> float:
    """Matrix L1 (operator 1-norm) of ``a - b``: max absolute column sum."""
    a, b = _pair(a, b)
    return float(np.abs(a - b).sum(axis=0).max())


def spectral_loss(a, b) -> float:
    """Spectral norm of ``a - b`` for symmetric inputs.

    Equals the largest absolute eigenvalue of the (symmetrized) difference.
    """
    a, b = _pair(a, b)
    d = a - b
    d = (d + d.T) / 2.0
    eigs = np.linalg.eigvalsh(d)
    return float(max(abs(eigs[0]), abs(eigs[-1])))


def frobenius_loss(a, b) -> float:
    """Frobenius norm of ``a - b``."""
    a, b = _pair(a, b)
    return float(np.linalg.norm(a - b, "fro"))


def min_eigenvalue(a) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    arr = _as_matrix(a, "matrix", square=True)
    arr = (arr + arr.T) / 2.0
    return float(np.linalg.eigvalsh(arr)[0])


@dataclass(frozen=True)
class SupportMetrics:
    """Off-diagonal support comparison over unordered pairs i < j.

    ``tpr_degenerate`` flags a reference with no nonzero off-diagonal
    entries (TPR reported as 1); ``fpr_degenerate`` flags a reference with
    no zero off-diagonal entries (FPR reported as 0).
    """

    tpr: float
    fpr: float
    sign_consistent: bool
    true_edges: int
    estimated_edges: int
    tpr_degenerate: bool
    fpr_degenerate: bool


def support_metrics(estimate, truth) -> SupportMetrics:
    """True/false positive rates and sign agreement of an estimated support.

    An entry of either matrix is in the support when it is nonzero.
    ``sign_consistent`` is true when every pair i < j matches in sign
    under the convention sgn(0) = 0.
    """
    est, tru = _pair(estimate, truth)
    iu = np.triu_indices(est.shape[0], k=1)
    est_off = est[iu]
    tru_off = tru[iu]
    est_nz = est_off != 0.0
    tru_nz = tru_off != 0.0

    n_true = int(tru_nz.sum())
    n_null = int((~tru_nz).sum())
    tpr_degenerate = n_true == 0
    fpr_degenerate = n_null == 0
    tpr = 1.0 if tpr_degenerate else float((est_nz & tru_nz).sum() / n_true)
    fpr = 0.0 if fpr_degenerate else float((est_nz & ~tru_nz).sum() / n_null)

    sign_consistent = bool(np.all(np.sign(est_off) == np.sign(tru_off)))
    return SupportMetrics(
        tpr=tpr,
        fpr=fpr,
        sign_consistent=sign_consistent,
        true_edges=n_true,
        estimated_edges=int(est_nz.sum()),
        tpr_degenerate=tpr_degenerate,
        fpr_degenerate=fpr_degenerate,
    )


def centering_matrix(p: int) -> np.ndarray:
    """``G = I - J/p``, the projection removing the all-ones direction."""
    p = _check_count(p, "p", 2)
    return np.eye(p) - np.full((p, p), 1.0 / p)


def clr_proxy_gap(omega0) -> tuple:
    """Distance between a basis covariance and its clr-projected proxy.

    Returns ``(gap, bound)`` where ``gap = max |omega0 - G omega0 G|`` and
    ``bound = 3 ||omega0||_L1 / p``.  The proxy is what clr-based estimators
    actually target; the bound shows the gap vanishing as p grows for
    sparse-enough omega0.
    """
    arr = _as_matrix(omega0, "omega0", square=True)
    p = arr.shape[0]
    g = centering_matrix(p)
    proxy = g @ arr @ g
    gap = float(np.abs(arr - proxy).max())
    bound = float(3.0 * np.abs(arr).sum(axis=0).max() / p)
    return gap, bound
