"""Synthetic data generation for covariance estimation benchmarks.

The ground-truth basis covariance is block diagonal: a banded Toeplitz block
with linearly decaying entries (correlated taxa) alongside a scaled identity
block (independent taxa).  Log-basis samples are drawn from one of four row
distributions of increasing difficulty (Gaussian, heavy tailed, skewed heavy
tailed, and skewed heavy tailed with gross contamination) and then mapped to
compositions by closure of the exponentiated rows.

All draws come from a seeded 64-bit PCG generator.  For a fixed case, n, p
and seed the output is bit-for-bit reproducible; the draw order per case is
documented in :func:`sample_case`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compdata import CompositionMatrix, _as_matrix, _check_count, _check_seed

# Band radius of the Toeplitz block: entry (i, j) is (1 - |i - j| / 10)+.
BAND_DECAY = 10.0
IDENTITY_SCALE = 4.0


@dataclass(frozen=True)
class SimulationCase:
    """Row distribution for the latent log-basis samples.

    kind
        ``"gaussian"``, ``"student_t"``, ``"skew_t"`` or
        ``"contaminated_skew_t"``.
    df
        Degrees of freedom for the t and skew-t kinds.
    alpha
        Skew-t shape, applied equally to every coordinate.
    contamination
        Row-level probability of replacement by the contaminant.
    shift
        Mean of the contaminant rows (isotropic unit-variance Gaussian).
    """

    kind: str
    df: float = 0.0
    alpha: float = 0.0
    contamination: float = 0.0
    shift: float = 0.0

    def __post_init__(self):
        kinds = ("gaussian", "student_t", "skew_t", "contaminated_skew_t")
        if self.kind not in kinds:
            raise ValueError(f"unknown case kind {self.kind!r}; expected one of {kinds}")
        if self.kind != "gaussian" and not (self.df > 0):
            raise ValueError(f"df must be > 0, got {self.df!r}")
        if not (0.0 <= self.contamination < 1.0):
            raise ValueError(f"contamination must be in [0, 1), got {self.contamination!r}")


# Benchmark cases 1-4, ordered by difficulty.
CASES = {
    1: SimulationCase(kind="gaussian"),
    2: SimulationCase(kind="student_t", df=3.5),
    3: SimulationCase(kind="skew_t", df=4.0, alpha=20.0),
    4: SimulationCase(
        kind="contaminated_skew_t", df=4.0, alpha=10.0, contamination=0.05, shift=-8.0
    ),
}


def get_case(case) -> SimulationCase:
    """Resolve a case number (1-4) or pass a SimulationCase through."""
    if isinstance(case, SimulationCase):
        return case
    try:
        return CASES[int(case)]
    except (KeyError, TypeError, ValueError):
        raise ValueError(
            f"unknown simulation case {case!r}; expected 1-4 or a SimulationCase"
        ) from None


def _check_dimension(p: int) -> int:
    """``p`` as an int, if :func:`build_omega0` can build a truth of that size."""
    if not isinstance(p, (int, np.integer)) or isinstance(p, bool) or p < 4 or p % 2 != 0:
        raise ValueError(f"p must be an even integer >= 4, got {p}")
    return int(p)


def build_omega0(p: int) -> np.ndarray:
    """Ground-truth basis covariance: banded Toeplitz block plus 4I block.

    ``p`` must be even and at least 4; each block has size p / 2.  The first
    block has entries ``(1 - |i - j| / 10)+`` (so the band width is 9 on each
    side), the second is four times the identity.
    """
    p = _check_dimension(p)
    half = p // 2
    idx = np.arange(half)
    banded = np.maximum(1.0 - np.abs(idx[:, None] - idx[None, :]) / BAND_DECAY, 0.0)
    omega = np.zeros((p, p))
    omega[:half, :half] = banded
    omega[half:, half:] = IDENTITY_SCALE * np.eye(half)
    return omega


def _cholesky(matrix: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        raise ValueError(f"{what} is not positive definite") from None


def _skew_t_rows(
    rng: np.random.Generator, n: int, omega0: np.ndarray, alpha: float, df: float
) -> np.ndarray:
    # Additive skew-normal construction on the correlation scale, then a
    # per-row chi-square divisor for the t tails:
    #   delta = corr @ shape / sqrt(1 + shape' corr shape)
    #   Z = delta |u0| + V,  V ~ N(0, corr - delta delta')
    #   row = sd * Z / sqrt(chi2_df / df)
    # Draw order: u0 (n), V normals (n x p), chi-square (n).
    sd = np.sqrt(np.diag(omega0))
    corr = omega0 / np.outer(sd, sd)
    shape = np.full(omega0.shape[0], float(alpha))
    corr_shape = corr @ shape
    delta = corr_shape / np.sqrt(1.0 + shape @ corr_shape)
    residual_chol = _cholesky(corr - np.outer(delta, delta), "skew residual scale")
    u0 = rng.standard_normal(n)
    v = rng.standard_normal((n, omega0.shape[0])) @ residual_chol.T
    z = np.abs(u0)[:, None] * delta[None, :] + v
    w = rng.chisquare(df, n) / df
    return (z * sd[None, :]) / np.sqrt(w)[:, None]


def sample_case(case, n: int, p: int, seed: int) -> np.ndarray:
    """Draw n latent log-basis rows under the given case.

    Parameters
    ----------
    case : int or SimulationCase
        Case number 1-4 or an explicit case description.
    n, p : int
        Sample count and dimension; the scale matrix is
        :func:`build_omega0` of ``p``.
    seed : int
        Seed for a fresh ``numpy.random.default_rng`` (PCG64) generator.

    Returns
    -------
    numpy.ndarray
        n x p latent matrix Y.  Map to compositions with
        :func:`basis_to_composition`.

    Notes
    -----
    Draw order per case, for reproducibility:

    - gaussian: one n x p standard-normal block.
    - student_t: n x p normals, then n chi-square divisors.
    - skew_t: n skew latents, n x p normals, n chi-square divisors.
    - contaminated_skew_t: the skew_t block above, then n x p contaminant
      normals, then n uniforms for the contamination mask.
    """
    case = get_case(case)
    n = _check_count(n, "n", 1)
    omega0 = build_omega0(p)
    rng = np.random.default_rng(_check_seed(seed))

    if case.kind == "gaussian":
        chol = _cholesky(omega0, "omega0")
        return rng.standard_normal((n, p)) @ chol.T
    if case.kind == "student_t":
        chol = _cholesky(omega0, "omega0")
        normals = rng.standard_normal((n, p)) @ chol.T
        w = rng.chisquare(case.df, n) / case.df
        return normals / np.sqrt(w)[:, None]
    if case.kind == "skew_t":
        return _skew_t_rows(rng, n, omega0, case.alpha, case.df)
    # contaminated_skew_t
    clean = _skew_t_rows(rng, n, omega0, case.alpha, case.df)
    contaminant = rng.standard_normal((n, p)) + case.shift
    mask = rng.random(n) < case.contamination
    return np.where(mask[:, None], contaminant, clean)


def basis_to_composition(y) -> CompositionMatrix:
    """Close exponentiated log-basis rows to compositions.

    Computed with a per-row shift (log-sum-exp style) so large entries never
    overflow.  Entries more than roughly 700 below their row maximum
    underflow to zero and are rejected by composition validation.
    """
    arr = _as_matrix(y, "basis matrix")
    shifted = np.exp(arr - arr.max(axis=1, keepdims=True))
    return CompositionMatrix(shifted / shifted.sum(axis=1, keepdims=True))
