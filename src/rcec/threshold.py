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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .compdata import _as_matrix

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
        ``"scad"`` (clipped interpolation with knee ``a > 2``).
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
        if not (self.a > 2.0):
            raise ValueError(f"scad parameter a must be > 2, got {self.a!r}")

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
    if np.any(lam < 0):
        raise ValueError("thresholds must be nonnegative")
    return _apply_rule(rule, np.asarray(z, dtype=np.float64), lam)


def _apply_rule(rule: ThresholdRule, z: np.ndarray, lam: np.ndarray) -> np.ndarray:
    absz = np.abs(z)
    soft = np.sign(z) * np.maximum(absz - lam, 0.0)
    if rule.kind == "soft":
        return soft
    if rule.kind == "alasso":
        # lam / absz can overflow to inf for subnormal z; those entries sit
        # in the |z| <= lam branch, so the intermediate is discarded.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            fade = 1.0 - (lam / absz) ** rule.eta
        return np.where(absz <= lam, 0.0, z * np.maximum(fade, 0.0))
    # scad: soft up to 2*lam, linear interpolation to the identity at a*lam.
    a = rule.a
    mid = ((a - 1.0) * z - np.sign(z) * a * lam) / (a - 2.0)
    return np.where(absz <= 2.0 * lam, soft, np.where(absz <= a * lam, mid, z))


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
    # lam * scale, so a whole grid shares one scale.  The floor warns once,
    # pointing at the caller of the public function that called here.
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    diag = np.diag(arr)
    clamped = int((diag < DIAG_FLOOR).sum())
    if clamped:
        warnings.warn(
            f"{clamped} covariance diagonal entries below {DIAG_FLOOR:g} "
            "were clamped for threshold computation",
            RuntimeWarning,
            stacklevel=3,
        )
    d = np.maximum(diag, DIAG_FLOOR)
    return np.sqrt(np.outer(d, d) * (math.log(arr.shape[0]) / n))


def _threshold_at(rule, arr, thresholds, threshold_diagonal) -> np.ndarray:
    # Kernel behind threshold_matrix and the tuning grid loop.
    out = _apply_rule(rule, arr, thresholds)
    if not threshold_diagonal:
        np.fill_diagonal(out, np.diag(arr))
    return out


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
    thresholds; the diagonal is kept untouched unless ``threshold_diagonal``
    is set.  Shrinking variances buys nothing for support recovery and can
    only push the estimate further from positive definiteness, hence the
    default.
    """
    arr = _as_matrix(gamma, "covariance", square=True)
    if not (lam >= 0):
        raise ValueError(f"lam must be nonnegative, got {lam!r}")
    return _threshold_at(rule, arr, lam * _entry_scale(arr, n), threshold_diagonal)
