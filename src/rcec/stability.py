"""Bootstrap stability of estimated covariance supports.

A single run of the pipeline yields an edge set (the nonzero off-diagonal
pairs).  Resampling rows with replacement and re-estimating shows which of
those edges survive sampling noise: each baseline edge gets an occurrence
count across bootstrap replicates, and edges that recur in at least
``retain_threshold`` replicates form the stable set.  Edge identity is the
index pair alone; a sign flip still counts as an occurrence, with sign
agreement tracked separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compdata import _as_matrix, _check_count, _check_flag, _check_seed, clr_transform
from .mom import _median_moments
from .parallel import ordered_map
from .threshold import threshold_matrix
from .tuning import EstimatorConfig, estimate_from_latent, _effective_block_count

DEFAULT_REPLICATES = 100
DEFAULT_RETAIN = 50


@dataclass(frozen=True)
class Edge:
    """Off-diagonal support entry (i < j) with its sign and weight."""

    i: int
    j: int
    sign: int
    weight: float


@dataclass
class SupportSet:
    """Collection of support edges, optionally with occurrence counts."""

    edges: tuple
    occurrences: dict = field(default_factory=dict)

    def pairs(self) -> set:
        return {(e.i, e.j) for e in self.edges}

    def __iter__(self):
        return iter(self.edges)

    def __len__(self) -> int:
        return len(self.edges)


def extract_edges(omega) -> SupportSet:
    """Edges of a symmetric estimate: pairs i < j with ``omega_ij != 0``."""
    arr = _as_matrix(omega, "estimate", square=True)
    iu, ju = np.triu_indices(arr.shape[0], k=1)
    weights = arr[iu, ju]
    keep = weights != 0.0
    weights = weights[keep]
    edges = zip(
        iu[keep].tolist(),
        ju[keep].tolist(),
        np.sign(weights).astype(np.int64).tolist(),
        weights.tolist(),
    )
    return SupportSet(edges=tuple(Edge(*edge) for edge in edges))


@dataclass
class StabilityResult:
    """Bootstrap stability summary.

    baseline
        Baseline edges with occurrence counts filled in.
    stable
        Baseline edges occurring in at least ``retain_threshold`` replicates.
    stability
        Mean over replicates of the fraction of baseline edges recovered
        (1.0 when the baseline has no edges).
    sign_agreement
        Fraction of recovered occurrences whose sign matched the baseline
        (1.0 when nothing was recovered).
    """

    baseline: SupportSet
    stable: SupportSet
    stability: float
    positives: int
    negatives: int
    sign_agreement: float
    replicates: int
    retain_threshold: int
    seed: int
    lambda_star: float
    reuse_lambda: bool
    baseline_omega: np.ndarray = None


def filter_stable(baseline: SupportSet, retain_threshold: int) -> SupportSet:
    """Baseline edges whose occurrence count reaches ``retain_threshold``."""
    kept = tuple(
        e for e in baseline.edges if baseline.occurrences.get((e.i, e.j), 0) >= retain_threshold
    )
    occ = {(e.i, e.j): baseline.occurrences.get((e.i, e.j), 0) for e in kept}
    return SupportSet(edges=kept, occurrences=occ)


def _tally(baseline: SupportSet, values: np.ndarray):
    """Occurrence counts, stability and sign agreement of the baseline edges.

    ``values`` holds each replicate's estimate at the baseline pairs, one
    row per replicate; an entry counts as recovered under the support rule
    of :func:`extract_edges`.
    """
    hits = values != 0.0
    signs = np.array([e.sign for e in baseline.edges])
    total_hits = int(hits.sum())
    sign_hits = int((hits & (np.sign(values) == signs)).sum())
    if baseline.edges:
        recovered_fractions = hits.sum(axis=1) / len(baseline.edges)
    else:
        recovered_fractions = np.ones(values.shape[0])
    occurrences = dict(zip(((e.i, e.j) for e in baseline.edges), hits.sum(axis=0).tolist()))
    return (
        occurrences,
        float(np.mean(recovered_fractions)),
        (sign_hits / total_hits) if total_hits else 1.0,
    )


def bootstrap_stability(
    X,
    config: EstimatorConfig | None = None,
    replicates: int = DEFAULT_REPLICATES,
    retain_threshold: int = DEFAULT_RETAIN,
    seed: int = 0,
    *,
    reuse_lambda: bool = False,
    index_sampler=None,
) -> StabilityResult:
    """Re-estimate on bootstrap resamples and count edge recurrence.

    Parameters
    ----------
    X : CompositionMatrix or array_like
        Compositional data, one sample per row.
    config : EstimatorConfig
        Pipeline configuration for the baseline and every replicate.
    replicates : int
        Number of bootstrap resamples B.
    retain_threshold : int
        Minimum occurrence count for an edge to be called stable.
    seed : int
        Master seed; replicate b draws its row indices from the b-th
        spawned child stream.  Re-estimation itself runs under ``config``
        unchanged (including its fold seed), so a replicate handed the
        original rows reproduces the baseline exactly.
    reuse_lambda : bool
        Skip per-replicate cross-validation and threshold each resampled
        covariance at the baseline tuning value.  Faster, slightly
        optimistic about stability.  A replicate then forms its covariance
        only at the baseline edges and the diagonal (which sets the entry
        thresholds), with the same values as the full matrix.
    index_sampler : callable, optional
        ``f(rng, n) -> indices`` producing each replicate's row indices;
        defaults to iid uniform resampling with replacement.  A sampler
        returning ``arange(n)`` makes every replicate the original data,
        which is useful for self-consistency checks.

    Returns
    -------
    StabilityResult
    """
    seed = _check_seed(seed)
    replicates = _check_count(replicates, "replicates", 1)
    retain_threshold = _check_count(retain_threshold, "retain_threshold", 0)
    reuse_lambda = _check_flag(reuse_lambda, "reuse_lambda")
    if config is None:
        config = EstimatorConfig()
    # clr works row by row, so the clr rows of a resample are the resampled
    # clr rows: transform once, resample W.
    W = clr_transform(X).values

    baseline_fit = estimate_from_latent(W, config)
    baseline = extract_edges(baseline_fit.omega)
    rows = np.array([e.i for e in baseline.edges], dtype=np.intp)
    cols = np.array([e.j for e in baseline.edges], dtype=np.intp)
    n, p = W.shape
    children = np.random.SeedSequence(seed).spawn(replicates)
    # A reuse-lambda replicate reads its estimate at the baseline edges, and
    # their thresholds read the diagonal; the covariance is formed there only.
    mask = np.eye(p, dtype=bool)
    mask[rows, cols] = True
    mask_rows, mask_cols = np.nonzero(mask)

    def one_replicate(child):
        # The replicate's estimate at the baseline edges, one value per edge.
        rng = np.random.default_rng(child)
        idx = index_sampler(rng, n) if index_sampler is not None else rng.integers(0, n, n)
        w = W[np.asarray(idx, dtype=np.intp)]
        if reuse_lambda:
            w = _as_matrix(w, "data matrix", min_rows=2)
            m = _effective_block_count(config, p, w.shape[0])
            med_mean, med_second = _median_moments(w, m, mask)
            gamma = np.zeros((p, p))
            gamma[mask] = med_second - med_mean[mask_rows] * med_mean[mask_cols]
            omega = threshold_matrix(
                gamma,
                baseline_fit.lambda_star,
                w.shape[0],
                config.rule,
                threshold_diagonal=config.threshold_diagonal,
            )
        else:
            omega = estimate_from_latent(w, config).omega
        return omega[rows, cols]

    values = np.stack(ordered_map(one_replicate, children))
    occurrences, stability, sign_agreement = _tally(baseline, values)
    baseline_counted = SupportSet(edges=baseline.edges, occurrences=occurrences)
    stable = filter_stable(baseline_counted, retain_threshold)
    return StabilityResult(
        baseline=baseline_counted,
        stable=stable,
        stability=stability,
        positives=sum(1 for e in stable.edges if e.sign > 0),
        negatives=sum(1 for e in stable.edges if e.sign < 0),
        sign_agreement=sign_agreement,
        replicates=replicates,
        retain_threshold=retain_threshold,
        seed=seed,
        lambda_star=baseline_fit.lambda_star,
        reuse_lambda=reuse_lambda,
        baseline_omega=baseline_fit.omega,
    )
