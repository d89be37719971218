"""Generalized thresholding of covariance entries.

A thresholding rule maps an entry z to a shrunk value tau_lam(z) that is
exactly zero for |z| <= lam and within lam of z everywhere.  Rules share the
support decision with soft thresholding but differ in how much bias they
leave on large entries: soft shrinks by lam uniformly, the adaptive-lasso
rule fades the shrinkage out polynomially, and the clipped quadratic rule
(a.k.a. SCAD) interpolates to the identity beyond ``a * lam``.

Entry-level thresholds follow the variance-adaptive recipe

    lam_ij = lam * sqrt(gamma_ii * gamma_jj * log(p) / n)

so a single scale-free tuning parameter ``lam`` serves all entries.

Every rule runs through one function, which takes ``z``, ``|z|`` and the
thresholds and returns the estimate in a new array.  :func:`apply_rule` and
:func:`threshold_matrix` run it on the whole array at a single threshold.
Tuning thresholds one covariance at a whole grid of ``lam`` values, and its
sweep touches only the entries that can still change: an entry at or below
its threshold is zero under every rule and stays zero at every larger
``lam``, so from then on the sweep passes the function the remaining
entries alone, with the ``|z|`` it compares to find them.  The estimates,
and every output, are the same bits as a pass over the whole matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compdata import _as_matrix, _check_count, _check_flag

# Floor applied to covariance diagonals when computing entry thresholds.
# A robust estimate can produce tiny or negative variances on degenerate
# components; the floor keeps thresholds real and finite.
DIAG_FLOOR = 1e-12

RULE_KINDS = ("soft", "alasso", "scad")


@dataclass(frozen=True)
class ThresholdRule:
    """Thresholding rule selector.

    kind
        ``"soft"``, ``"alasso"`` (adaptive lasso, exponent ``eta >= 1``) or
        ``"scad"`` (clipped interpolation with a finite knee ``a > 2``).
    eta
        Adaptive-lasso exponent; ``eta = 1`` reproduces soft thresholding
        exactly.
    a
        SCAD knee parameter; the conventional default is 3.7.
    """

    kind: str = "soft"
    eta: float = 1.0
    a: float = 3.7

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}; expected one of {RULE_KINDS}")
        if not (self.eta >= 1.0):
            raise ValueError(f"adaptive-lasso exponent eta must be >= 1, got {self.eta!r}")
        if not (2.0 < self.a < math.inf):
            raise ValueError(f"scad parameter a must be > 2 and finite, got {self.a!r}")

    @classmethod
    def soft(cls) -> "ThresholdRule":
        return cls(kind="soft")

    @classmethod
    def adaptive_lasso(cls, eta: float = 1.0) -> "ThresholdRule":
        return cls(kind="alasso", eta=float(eta))

    @classmethod
    def scad(cls, a: float = 3.7) -> "ThresholdRule":
        return cls(kind="scad", a=float(a))

    @classmethod
    def parse(cls, text: str) -> "ThresholdRule":
        """Parse ``soft``, ``alasso[:eta]`` or ``scad[:a]``."""
        head, _, param = text.strip().partition(":")
        head = head.lower()
        try:
            if head == "soft":
                if param:
                    raise ValueError("soft takes no parameter")
                return cls.soft()
            if head == "alasso":
                return cls.adaptive_lasso(float(param) if param else 1.0)
            if head == "scad":
                return cls.scad(float(param) if param else 3.7)
        except ValueError as exc:
            raise ValueError(f"bad threshold rule {text!r}: {exc}") from None
        raise ValueError(f"bad threshold rule {text!r}; expected soft, alasso:<eta> or scad:<a>")

    def spec(self) -> str:
        """Inverse of :meth:`parse`."""
        if self.kind == "soft":
            return "soft"
        if self.kind == "alasso":
            return f"alasso:{_float_text(self.eta)}"
        return f"scad:{_float_text(self.a)}"


def _float_text(x: float) -> str:
    """``f"{x:g}"`` when that parses back to ``x``, else the exact ``repr``."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


def apply_rule(rule: ThresholdRule, z, lam) -> np.ndarray:
    """Apply a thresholding rule entrywise.

    ``z`` and ``lam`` broadcast against each other; ``lam`` must be
    nonnegative.  Exact zeros stay zero under every rule.
    """
    lam = np.asarray(lam, dtype=np.float64)
    if not np.all(lam >= 0):
        raise ValueError("thresholds must be nonnegative")
    z, lam = np.broadcast_arrays(np.asarray(z, dtype=np.float64), lam)
    return _apply(rule, z, np.abs(z), lam)


def _apply(rule: ThresholdRule, z: np.ndarray, absz: np.ndarray, t) -> np.ndarray:
    """``rule`` applied to ``z`` at thresholds ``t`` that broadcast to it,
    given ``absz = |z|``, in a new array of ``z``'s shape.

    Branches are selected with ``np.putmask``: it copies entries bit for
    bit, signed zeros included, and ran faster than ``np.copyto(...,
    where=)`` on the scattered masks a covariance gives.
    """
    out = np.empty(z.shape)
    if rule.kind == "alasso":
        # z * max(1 - (t / |z|) ** eta, 0), and 0 where |z| <= t.  t / |z|
        # can overflow to inf for subnormal z; those entries sit in the
        # |z| <= t branch, so the intermediate is discarded.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.divide(t, absz, out=out)
            out **= rule.eta  # the operator keeps numpy's exponent fast paths
            np.subtract(1.0, out, out=out)
        np.maximum(out, 0.0, out=out)
        np.multiply(z, out, out=out)
        np.putmask(out, np.less_equal(absz, t), 0.0)
        return out
    # sign(z) * max(|z| - t, 0)
    sign = np.sign(z)
    np.subtract(absz, t, out=out)
    np.maximum(out, 0.0, out=out)
    np.multiply(sign, out, out=out)
    if rule.kind == "scad":
        # Soft where |z| <= 2t, else ((a - 1) z - a sign(z) t) / (a - 2)
        # where |z| <= a t, else z.  The masks negate "<=" so that a NaN
        # threshold still selects z; they mark the few large entries, so
        # the masked copies touch little on most of a grid.
        a = rule.a
        beyond_2t = np.logical_not(np.less_equal(absz, 2.0 * t))
        beyond_at = np.logical_not(np.less_equal(absz, a * t))
        work = np.empty(z.shape)
        np.multiply(sign * a, t, out=work)
        np.subtract((a - 1.0) * z, work, out=work)
        np.divide(work, a - 2.0, out=work)
        np.putmask(work, beyond_at, z)
        np.putmask(out, beyond_2t, work)
    return out


def _clamp_notes(arr: np.ndarray) -> list:
    # The EstimateResult note for a diagonal that _entry_scale floors.
    low = float(np.diag(arr).min())
    if low >= DIAG_FLOOR:
        return []
    return [
        f"covariance diagonal entries as low as {low:.3g} were clamped "
        f"to {DIAG_FLOOR:g} for threshold computation"
    ]


def _entry_scale(arr: np.ndarray, n: int) -> np.ndarray:
    # The lam-free scale sqrt(d_i d_j log(p) / n) of a validated covariance,
    # d its diagonal floored at DIAG_FLOOR; thresholding at lam uses
    # lam * scale, so a whole grid shares one scale.  The fit reports the
    # floor once, through _clamp_notes.
    _check_count(n, "n", 1)
    d = np.maximum(np.diag(arr), DIAG_FLOOR)
    return np.sqrt(np.outer(d, d) * (math.log(arr.shape[0]) / n))


def threshold_matrix(
    gamma,
    lam: float,
    n: int,
    rule: ThresholdRule,
    *,
    threshold_diagonal: bool = False,
) -> np.ndarray:
    """Threshold a covariance estimate entrywise.

    Off-diagonal entries pass through ``apply_rule`` at the entry-dependent
    thresholds, which use the diagonal floored at ``DIAG_FLOOR``; the
    diagonal is kept untouched unless ``threshold_diagonal`` is set.
    Shrinking variances buys nothing for support recovery and can only push
    the estimate further from positive definiteness, hence the default.
    """
    arr = _as_matrix(gamma, "covariance", square=True)
    if not (lam >= 0):
        raise ValueError(f"lam must be nonnegative, got {lam!r}")
    threshold_diagonal = _check_flag(threshold_diagonal, "threshold_diagonal")
    out = _apply(rule, arr, np.abs(arr), lam * _entry_scale(arr, n))
    if not threshold_diagonal:
        np.fill_diagonal(out, np.diag(arr))
    return out
