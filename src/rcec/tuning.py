"""Tuning-parameter selection and the full estimation pipeline.

The pipeline: clr-transform the compositions, form a robust (median-of-means)
or plain sample covariance, build a linear grid of candidate tuning values,
optionally restrict the grid to the region where the full-data thresholded
estimate is positive definite, pick the tuning value by V-fold
cross-validation, and threshold the full-data covariance at the winner.

Cross-validation compares, per fold, the thresholded covariance fitted on
the complement against the un-thresholded covariance of the held-out fold in
squared Frobenius norm, averaged over folds.  Ties in the CV curve resolve
toward the largest (sparsest) candidate.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field, fields

import numpy as np

from .compdata import _as_matrix, _check_count, _check_flag, _check_seed, clr_transform
from .metrics import min_eigenvalue
from .mom import _check_L, default_block_count, mom_covariance, sample_covariance
from .parallel import one_blas_thread, split_work
from .threshold import (
    ThresholdRule,
    _apply,
    _clamp_notes,
    _entry_scale,
    threshold_matrix,
)

ESTIMATOR_KINDS = ("rcec", "coat")

# Strict positivity margin for the positive-definiteness floor.
PD_TOL = 1e-10

# Half-width of the band around PD_TOL, in units of p * eps * ||omega||_1,
# inside which a Cholesky factorization is not trusted to decide the PD floor.
_CHOLESKY_MARGIN = 64.0

# The least p that each thread of the PD scan gets: the scan's cost is its
# O(p^3) factorizations.  On 2 cores, two threads against one made a
# 50-value soft scan slower at p = 100 (2.80 -> 3.21 ms), broke even at
# p = 120-136 and made it faster from p = 150 (5.4 -> 4.7 ms; p = 200: 8.3 ->
# 6.4 ms; p = 300: 25.5 -> 15.7 ms; p = 400: 45.5 -> 27.6 ms).
_SCAN_THREAD_P = 75

# Upper end of the degenerate grid used when no off-diagonal signal exists.
DEGENERATE_GRID_MAX = 1e-12


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs of the estimation pipeline; frozen, so one default instance is shared.

    estimator
        ``"rcec"`` (median-of-means covariance) or ``"coat"`` (sample
        covariance); both share the thresholding and tuning stages.
    rule
        Thresholding rule applied entrywise.
    folds
        Cross-validation fold count V; requires at least 2 samples per fold.
    grid_size
        Number of candidate tuning values on the linear grid.
    L
        Block-count aggressiveness for the median-of-means estimator.
    enforce_pd
        Restrict the grid to tuning values whose full-data estimate is
        positive definite before cross-validating.
    threshold_diagonal
        Also threshold variance entries (off by default).
    seed
        Seed for the fold-assignment shuffle.
    block_count
        Explicit median-of-means block count, overriding the default
        formula.  One block degenerates to the sample covariance.
    """

    estimator: str = "rcec"
    rule: ThresholdRule = field(default_factory=ThresholdRule.soft)
    folds: int = 5
    grid_size: int = 50
    L: float = 1.0
    enforce_pd: bool = True
    threshold_diagonal: bool = False
    seed: int = 0
    block_count: int | None = None

    def __post_init__(self):
        if self.estimator not in ESTIMATOR_KINDS:
            raise ValueError(
                f"unknown estimator {self.estimator!r}; expected one of {ESTIMATOR_KINDS}"
            )
        if not isinstance(self.rule, ThresholdRule):
            raise ValueError(f"rule must be a ThresholdRule, got {self.rule!r}")
        # Store the Python numbers the checks return, so to_dict() stays JSON-ready.
        object.__setattr__(self, "folds", _check_count(self.folds, "folds", 2))
        object.__setattr__(self, "grid_size", _check_count(self.grid_size, "grid_size", 2))
        object.__setattr__(self, "L", _check_L(self.L))
        for name in ("enforce_pd", "threshold_diagonal"):
            object.__setattr__(self, name, _check_flag(getattr(self, name), name))
        object.__setattr__(self, "seed", _check_seed(self.seed))
        if self.block_count is not None:
            object.__setattr__(self, "block_count", _check_count(self.block_count, "block_count", 1))

    def to_dict(self) -> dict:
        """Field values in declaration order, the rule as its spec string."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.spec() if isinstance(value, ThresholdRule) else value
        return out


def _parse_kv(text: str) -> dict:
    # The fields a kv text sets, parsed to their types.
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in kwargs:
            raise ValueError(f"line {lineno}: duplicate config key {key!r}")
        try:
            kwargs[key] = _parse_kv_value(key, value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return kwargs


def _parse_kv_value(key: str, value: str):
    kind = _FIELD_TYPES[key]
    if typing.get_args(kind):  # ``T | None``
        if value.lower() in ("none", ""):
            return None
        kind = typing.get_args(kind)[0]
    if kind is ThresholdRule:
        return ThresholdRule.parse(value)
    if kind is bool:
        lowered = value.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ValueError(f"expected a boolean for {key}, got {value!r}")
    return kind(value)


# The config schema: field name -> type, in declaration order.
_FIELD_TYPES = typing.get_type_hints(EstimatorConfig)


@dataclass
class EstimateResult:
    """Output of the estimation pipeline.

    omega
        Final thresholded covariance estimate.
    lambda_star
        Selected tuning value (member of the evaluated grid).
    cv_curve
        Array of shape (grid, 2): candidate value and mean CV error.
    min_eig
        Smallest eigenvalue of ``omega``.
    block_count
        Median-of-means block count actually used (1 for ``coat``).
    warnings
        Human-readable notes (diagonal clamping, PD floor fallbacks).
    """

    omega: np.ndarray
    lambda_star: float
    cv_curve: np.ndarray
    min_eig: float
    block_count: int
    warnings: list


def _effective_block_count(config: EstimatorConfig, p: int, n_sub: int) -> int:
    if config.estimator == "coat":
        return 1
    if config.block_count is not None:
        return min(config.block_count, n_sub)
    return default_block_count(p, config.L, n_cap=n_sub)


def _subset_covariance(values: np.ndarray, config: EstimatorConfig) -> np.ndarray:
    m = _effective_block_count(config, values.shape[1], values.shape[0])
    if m == 1:
        return sample_covariance(values)
    return mom_covariance(values, m)


def lambda_grid(gamma, n: int, grid_size: int = 50) -> np.ndarray:
    """Linear grid of candidate tuning values from 0 to the smallest
    all-zeroing value.

    The upper end is ``max_{i != j} |gamma_ij| / sqrt(gamma_ii gamma_jj
    log(p) / n)``, the diagonal floored at ``DIAG_FLOOR``: at that value the
    entry-dependent threshold covers every off-diagonal entry, so under soft
    thresholding the estimate is exactly diagonal.  Without off-diagonal
    signal the grid degenerates to ``[0, 1e-12]``.
    """
    arr = _as_matrix(gamma, "covariance", square=True)
    grid_size = _check_count(grid_size, "grid_size", 2)
    scale = _entry_scale(arr, n)
    off = ~np.eye(arr.shape[0], dtype=bool)
    lam_max = float((np.abs(arr)[off] / scale[off]).max())
    if lam_max <= 0.0:
        lam_max = DEGENERATE_GRID_MAX
    return np.linspace(0.0, lam_max, grid_size)


def _as_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("grid must be a nonempty 1-d array")
    if not np.all(grid >= 0):
        raise ValueError(f"grid values must be nonnegative, got {float(grid.min())!r}")
    return grid


# Live entries a sweep thresholds at once.  Its per-step arrays then stay in
# cache: at p = 400, 8192 ran the CV sweeps about 4% faster than one chunk of
# every entry, and about as fast as 16384.
_SWEEP_CHUNK = 8192


def _live_entries(p: int, threshold_diagonal: bool) -> np.ndarray:
    # The flat indices of the p x p entries that thresholding changes.
    live = np.arange(p * p)
    if not threshold_diagonal:
        live = np.delete(live, np.s_[:: p + 1])
    return live


def _sweep(arr, scale, grid, rule: ThresholdRule, live, write):
    # The estimate at every grid value, as writes of the entries that can
    # still change.  Walks the grid in increasing order; at each value it
    # calls write(idx, values) once per chunk of at most _SWEEP_CHUNK live
    # entries, idx their flat indices (valid during the call only) and values
    # their thresholded values (a new array from _apply that write may
    # scribble on), then yields the grid index.  live starts as
    # _live_entries; z and the scale are gathered per chunk from the full
    # arrays.  An entry at or below its threshold is zero, with the same
    # bits, at every larger value, so it is then dropped, compacting live in
    # place; a NaN threshold keeps it live.  The sweep holds one chunk's
    # arrays, and the rules are elementwise, so chunks change no bits.  The
    # covariance and the grid are validated.
    flat_z, flat_scale = arr.reshape(-1), scale.reshape(-1)
    count = live.size
    for g in np.argsort(grid, kind="stable"):
        kept = 0
        for start in range(0, count, _SWEEP_CHUNK):
            idx = live[start : min(start + _SWEEP_CHUNK, count)]
            z = flat_z[idx]
            t = np.multiply(grid[g], flat_scale[idx])
            absz = np.abs(z)
            write(idx, _apply(rule, z, absz, t))
            keep = idx[np.logical_not(np.less_equal(absz, t))]
            live[kept : kept + keep.size] = keep
            kept += keep.size
        count = kept
        yield g


def make_folds(n: int, folds: int, seed: int) -> list:
    """Shuffle sample indices with a seeded generator and split into
    ``folds`` contiguous chunks of near-equal size (larger chunks first).

    Each fold is returned in increasing index order, so subsets preserve the
    stored sample order.
    """
    n = _check_count(n, "n", 1)
    folds = _check_count(folds, "folds", 2)
    seed = _check_seed(seed)
    if n < 2 * folds:
        raise ValueError(f"need n >= 2 * folds = {2 * folds}, got n = {n}")
    order = np.random.default_rng(seed).permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(order, folds)]


def _fold_errors(values, test_idx, grid, config: EstimatorConfig) -> np.ndarray:
    # One fold's squared Frobenius distance at every grid value.  The p x p
    # error array is rewritten only where the sweep changes the estimate and
    # summed whole, in the order a fresh array would be; the fold's arrays
    # are freed before the next fold's covariance is formed.
    train = np.delete(values, test_idx, axis=0)
    gamma_train = _subset_covariance(train, config)
    gamma_test = _subset_covariance(values[test_idx], config)
    err = np.subtract(gamma_train, gamma_test)
    np.multiply(err, err, out=err)
    flat_err, flat_test = err.reshape(-1), gamma_test.reshape(-1)

    def write(idx, fitted):
        np.subtract(fitted, flat_test[idx], out=fitted)
        flat_err[idx] = np.multiply(fitted, fitted, out=fitted)

    row = np.empty(grid.size)
    scale = _entry_scale(gamma_train, train.shape[0])
    live = _live_entries(gamma_train.shape[0], config.threshold_diagonal)
    for g in _sweep(gamma_train, scale, grid, config.rule, live, write):
        row[g] = float(err.sum())
    return row


def cv_select(W, config: EstimatorConfig, *, grid=None):
    """Pick the tuning value by V-fold cross-validation.

    Parameters
    ----------
    W : ClrMatrix or array_like
        Data matrix the covariance estimators run on.
    config : EstimatorConfig
        Estimator kind, rule, fold count and fold seed.
    grid : array_like, optional
        Candidate values to evaluate.  Defaults to :func:`lambda_grid` on
        the full-data covariance.

    Returns
    -------
    (float, numpy.ndarray)
        The winning value and the CV curve as an array of
        ``(candidate, mean error)`` rows.  Ties resolve to the largest
        candidate.

    Notes
    -----
    Each fold sweeps the grid in increasing order and rethresholds only
    the entries not yet zeroed, rewriting their squared errors in one
    p x p array that is then summed whole; a grid given unsorted or with
    repeats is swept sorted and scored back in its own order.  The curve
    is the same bits as thresholding the whole matrix at every value.
    """
    values = _as_matrix(W, "data matrix")
    n = values.shape[0]
    fold_indices = make_folds(n, config.folds, config.seed)
    if grid is None:
        grid = lambda_grid(_subset_covariance(values, config), n, config.grid_size)
    grid = _as_grid(grid)

    errors = np.stack([_fold_errors(values, test_idx, grid, config) for test_idx in fold_indices])
    mean_errors = errors.mean(axis=0)
    if not np.all(np.isfinite(mean_errors)):
        raise ValueError("cross-validation error is not finite; the fold covariances overflow")
    best = int(np.flatnonzero(mean_errors == mean_errors.min())[-1])
    curve = np.column_stack([grid, mean_errors])
    return float(grid[best]), curve


def _factors(work: np.ndarray, diag: np.ndarray, shift: float) -> bool:
    # Whether the Cholesky factorization succeeds of the workspace holding
    # omega with its diagonal set to diag - shift, the same bits as omega's
    # diagonal less the shift.  Runs under pd_floor_scan's BLAS pin, as does
    # _is_pd.
    work.flat[:: work.shape[0] + 1] = diag - shift
    try:
        np.linalg.cholesky(work)
    except np.linalg.LinAlgError:
        return False
    return True


def _is_pd(omega: np.ndarray, work: np.ndarray) -> bool:
    """Whether ``min_eigenvalue(omega) > PD_TOL``, mostly without a spectrum.

    The Cholesky factorization of ``omega - s I`` succeeds when every
    eigenvalue exceeds ``s``, up to rounding of order ``p eps ||omega||``.
    Shifting by a ``delta`` well beyond that rounding on either side of
    ``PD_TOL`` settles every matrix whose smallest eigenvalue lies outside
    the band ``PD_TOL +- delta``; inside it the eigenvalue decides.  A
    symmetric ``omega`` whose Gershgorin lower bound on the eigenvalues
    already clears the band needs no factorization.  A matrix whose column
    sums are not finite does not qualify.  That covers NaN entries, which
    ``min_eigenvalue`` refuses and Cholesky factors into NaN without raising.

    ``work`` is a scratch array of ``omega``'s shape: it takes ``|omega|``
    for the column sums, then ``omega`` with each shifted diagonal in turn,
    so a decision allocates no p x p array of its own; the factorizations
    and, near the floor, the eigenvalues allocate theirs.
    """
    p = omega.shape[0]
    colsum = np.abs(omega, out=work).sum(axis=0)
    delta = _CHOLESKY_MARGIN * p * np.finfo(np.float64).eps * colsum.max()
    if not np.isfinite(delta):
        return False
    # Gershgorin: every eigenvalue is at least min_i (d_i - sum_{j != i}
    # |omega_ij|); the column sums already hold |d_i| + that sum.
    diag = np.diag(omega)
    if (diag + np.abs(diag) - colsum).min() > PD_TOL + delta:
        return True
    np.copyto(work, omega)
    if _factors(work, diag, PD_TOL + delta):
        return True
    if not _factors(work, diag, max(PD_TOL - delta, 0.0)):
        return False
    return min_eigenvalue(omega) > PD_TOL


@one_blas_thread()
def pd_floor_scan(gamma, grid, n: int, config: EstimatorConfig):
    """Restrict a tuning grid to values giving a positive definite estimate.

    Thresholds the full-data covariance ``gamma`` (from ``n`` samples, its
    diagonal floored at ``DIAG_FLOOR``) at every grid value and returns
    ``(restricted_grid, warnings)``: the suffix starting at the smallest
    value whose minimum eigenvalue exceeds ``PD_TOL``.  If no value
    qualifies the full grid is returned with a warning.  The qualifying set
    is expected to be a suffix (thresholding harder moves the estimate
    toward its diagonal); a warning reports any exception observed.

    Notes
    -----
    The values are decided independently, so the scan deals the sorted
    grid out round-robin over :func:`~rcec.parallel.split_work`: of ``T``
    threads, thread ``k`` takes sorted positions ``k, k + T, ...``.  Each
    thread sweeps its own values in increasing order on its own estimate,
    rewriting only the entries not yet zeroed, and decides each value with
    :func:`_is_pd` on its own workspace.  A sweep over any subsequence
    rebuilds the same matrix at each value as thresholding the whole matrix
    does, so the decisions, the restricted grid and the notes do not depend
    on ``T``.  Each thread gets at least ``_SCAN_THREAD_P`` of p, so the
    scan splits from p = 150.  Each thread holds a p x p estimate, a p x p
    workspace and its live indices, allocated on the calling thread; a
    helper thread's last Cholesky calls leave two p x p buffers free in its
    allocator arena (about 3 MB at p = 400, 16-19 MB at p = 1000).
    """
    arr = _as_matrix(gamma, "covariance", square=True)
    grid = _as_grid(grid)
    scale = _entry_scale(arr, n)
    order = np.argsort(grid, kind="stable")
    qualifies = np.empty(grid.size, dtype=bool)

    def plan(threads):
        spaces = [
            (arr.copy(), np.empty_like(arr), _live_entries(arr.shape[0], config.threshold_diagonal))
            for _ in range(threads)
        ]

        def part(k):
            omega, work, live = spaces[k]
            mine = order[k::threads]
            write = omega.reshape(-1).__setitem__
            for j in _sweep(arr, scale, grid[mine], config.rule, live, write):
                qualifies[mine[j]] = _is_pd(omega, work)

        return part

    split_work(plan, min(grid.size, arr.shape[0] // _SCAN_THREAD_P), blas=True)
    notes = []
    if not qualifies.any():
        notes.append(
            "no grid value produced a positive definite estimate; "
            "using the full grid"
        )
        return grid, notes
    first = int(np.flatnonzero(qualifies)[0])
    if not qualifies[first:].all():
        notes.append(
            "positive definiteness is not monotone over the grid; "
            "the restricted grid contains non-definite candidates"
        )
    return grid[first:], notes


def estimate(X, config: EstimatorConfig = EstimatorConfig()) -> EstimateResult:
    """Run the full pipeline on compositional data.

    ``X`` is a :class:`CompositionMatrix` (or validated as one).  The data
    are clr-transformed and handed to the covariance, grid and CV stages;
    see the module docstring for the stage order.
    """
    return _estimate_from_matrix(clr_transform(X).values, config)


def estimate_from_latent(Y, config: EstimatorConfig = EstimatorConfig()) -> EstimateResult:
    """Run the pipeline on rows that need no clr transform.

    ``Y`` holds latent (basis) rows, as in the oracle arm of benchmarks
    where the un-composed data are available, or clr rows already
    transformed, as in the bootstrap replicates.
    """
    return _estimate_from_matrix(_as_matrix(Y, "data matrix"), config)


def _estimate_from_matrix(values: np.ndarray, config: EstimatorConfig) -> EstimateResult:
    n, p = values.shape
    m = _effective_block_count(config, p, n)
    gamma = _subset_covariance(values, config)
    notes = _clamp_notes(gamma)
    grid = lambda_grid(gamma, n, config.grid_size)
    if config.enforce_pd:
        grid, pd_notes = pd_floor_scan(gamma, grid, n, config)
        notes.extend(pd_notes)
    lambda_star, curve = cv_select(values, config, grid=grid)
    omega = threshold_matrix(
        gamma,
        lambda_star,
        n,
        config.rule,
        threshold_diagonal=config.threshold_diagonal,
    )
    min_eig = min_eigenvalue(omega)
    if config.enforce_pd and not (min_eig > PD_TOL):
        notes.append(
            f"final estimate is not positive definite (min eigenvalue {min_eig:.3g})"
        )
    return EstimateResult(
        omega=omega,
        lambda_star=lambda_star,
        cv_curve=curve,
        min_eig=min_eig,
        block_count=m,
        warnings=notes,
    )
