"""Containers and transforms for compositional data.

A composition is a vector of strictly positive parts carrying only relative
information; each row lives on the open simplex.  Downstream estimation works
on centered log-ratio (clr) coordinates, where ordinary covariance machinery
applies.  The containers here validate the invariants that the estimators
rely on (positivity, row closure, clr row centering) at construction time, so
the numerical code can assume clean input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Closure tolerance: rows that do not sum to 1 within this bound are rejected
# rather than silently renormalized.
ROW_SUM_TOL = 1e-10

# clr rows are centered by construction; allow accumulated rounding only.
CLR_ROW_SUM_TOL = 1e-8

DEFAULT_ZERO_REPLACEMENT = 0.5


def _as_matrix(
    values, what: str, *, square: bool = False, min_rows: int = 0, min_cols: int = 0
) -> np.ndarray:
    """The package's one input check: a finite 2-d C-ordered float64 array.

    Accepts array_likes and the containers below (their ``values``).  Any
    other memory layout is copied to C order, so row reductions see the
    same summation order whatever the caller's layout.
    ``square`` asks for a p x p matrix; ``min_rows`` and ``min_cols`` bound
    the sample and component counts.
    """
    if isinstance(values, _Table):
        values = values.values
    arr = np.asarray(values, dtype=np.float64, order="C")
    if arr.ndim != 2:
        raise ValueError(f"{what} must be a 2-d array, got ndim={arr.ndim}")
    n, p = arr.shape
    if square and n != p:
        raise ValueError(f"{what} must be square, got shape {arr.shape}")
    if n < min_rows:
        raise ValueError(f"{what} needs at least {min_rows} samples, got n={n}")
    if p < min_cols:
        raise ValueError(f"{what} needs at least {min_cols} components, got p={p}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite entries")
    return arr


def _check_seed(seed) -> int:
    """The package's one seed check: a nonnegative integer, not a bool."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return int(seed)


def _check_count(value, name: str, minimum: int) -> int:
    """The package's one count check: an integer (not a bool or a float) >= ``minimum``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _check_flag(value, name: str) -> bool:
    """The package's one flag check: a bool or a numpy bool, returned as a bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


@dataclass(frozen=True)
class _Table:
    """Validated samples-by-components table (at least 2 of each)."""

    values: np.ndarray

    def _validated(self, what: str) -> np.ndarray:
        arr = _as_matrix(self.values, what, min_rows=2, min_cols=2)
        object.__setattr__(self, "values", arr)
        return arr

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class CountMatrix(_Table):
    """Nonnegative count table, one sample per row.

    Every row must contain at least one strictly positive entry; a row of
    all zeros carries no relative information and is rejected.
    """

    def __post_init__(self):
        arr = self._validated("count matrix")
        if np.any(arr < 0):
            raise ValueError("count matrix contains negative entries")
        if np.any(arr.sum(axis=1) <= 0):
            raise ValueError("count matrix contains a row of all zeros")


@dataclass(frozen=True)
class CompositionMatrix(_Table):
    """Strictly positive proportion table whose rows sum to one.

    Rows failing closure within ``ROW_SUM_TOL`` are rejected, not
    renormalized: silently rescaling would hide upstream unit mistakes.
    Zero entries are rejected as well; zeros must be handled before closure
    (see :func:`close_counts`).
    """

    def __post_init__(self):
        arr = self._validated("composition matrix")
        if np.any(arr <= 0):
            raise ValueError(
                "composition matrix entries must be strictly positive; "
                "replace zeros before closure (count input supports "
                "zero_replacement)"
            )
        row_sums = arr.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
            worst = int(np.argmax(np.abs(row_sums - 1.0)))
            raise ValueError(
                f"composition rows must sum to 1 within {ROW_SUM_TOL:g}; "
                f"row {worst} sums to {float(row_sums[worst])!r}"
            )


@dataclass(frozen=True)
class ClrMatrix(_Table):
    """Centered log-ratio coordinates, one sample per row.

    Rows sum to zero by construction of the clr transform; the tolerance is
    loose enough for accumulated rounding but catches uncentered input.
    """

    def __post_init__(self):
        row_sums = self._validated("clr matrix").sum(axis=1)
        if np.any(np.abs(row_sums) > CLR_ROW_SUM_TOL):
            worst = int(np.argmax(np.abs(row_sums)))
            raise ValueError(
                f"clr rows must sum to 0 within {CLR_ROW_SUM_TOL:g}; "
                f"row {worst} sums to {float(row_sums[worst])!r}"
            )


def close_counts(
    counts, zero_replacement: float = DEFAULT_ZERO_REPLACEMENT
) -> CompositionMatrix:
    """Replace zero counts and close rows to proportions.

    Parameters
    ----------
    counts : CountMatrix or array_like
        Nonnegative count table; every row needs a positive entry.
    zero_replacement : float
        Pseudo-count substituted for exact zeros before closure.  Must be
        strictly positive and finite.

    Returns
    -------
    CompositionMatrix
        Row-closed strictly positive proportions.
    """
    if not isinstance(counts, CountMatrix):
        counts = CountMatrix(counts)
    if not 0 < zero_replacement < np.inf:
        raise ValueError(
            f"zero_replacement must be strictly positive and finite, got {zero_replacement!r}"
        )
    filled = np.where(counts.values == 0, zero_replacement, counts.values)
    closed = filled / filled.sum(axis=1, keepdims=True)
    return CompositionMatrix(closed)


def clr_transform(composition) -> ClrMatrix:
    """Map compositions to centered log-ratio coordinates.

    Each entry becomes ``log x_kj - mean_i log x_ki`` (natural log); the
    subtraction of the row mean in log space divides by the geometric mean,
    so the result is invariant to positive rescaling of a row.
    """
    if not isinstance(composition, CompositionMatrix):
        composition = CompositionMatrix(composition)
    logs = np.log(composition.values)
    centered = logs - logs.mean(axis=1, keepdims=True)
    return ClrMatrix(centered)
