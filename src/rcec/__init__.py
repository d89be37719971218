"""Robust sparse covariance estimation for compositional data.

The pipeline: centered log-ratio coordinates, a median-of-means covariance
that tolerates heavy tails and gross outliers, entry-adaptive thresholding
for sparsity, cross-validated tuning with a positive-definiteness floor,
plus synthetic benchmarks and bootstrap edge-stability analysis.
"""

from .compdata import (
    ClrMatrix,
    CompositionMatrix,
    CountMatrix,
    clr_transform,
    close_counts,
)
from .mom import (
    default_block_count,
    mom_covariance,
    sample_covariance,
)
from .threshold import ThresholdRule, apply_rule, entry_thresholds, threshold_matrix
from .tuning import (
    EstimateResult,
    EstimatorConfig,
    cv_select,
    estimate,
    estimate_from_latent,
    lambda_grid,
    make_folds,
)
from .metrics import (
    SupportMetrics,
    clr_proxy_gap,
    frobenius_loss,
    matrix_l1_loss,
    min_eigenvalue,
    spectral_loss,
    support_metrics,
)
from .simgen import (
    CASES,
    SimulationCase,
    basis_to_composition,
    build_omega0,
    sample_case,
)
from .stability import (
    Edge,
    StabilityResult,
    SupportSet,
    bootstrap_stability,
    extract_edges,
    filter_stable,
)
from .bench import BenchmarkSpec, run_benchmark, summarize

__version__ = "0.1.0"

__all__ = [
    "ClrMatrix",
    "CompositionMatrix",
    "CountMatrix",
    "clr_transform",
    "close_counts",
    "default_block_count",
    "mom_covariance",
    "sample_covariance",
    "ThresholdRule",
    "apply_rule",
    "entry_thresholds",
    "threshold_matrix",
    "EstimateResult",
    "EstimatorConfig",
    "cv_select",
    "estimate",
    "estimate_from_latent",
    "lambda_grid",
    "make_folds",
    "SupportMetrics",
    "clr_proxy_gap",
    "frobenius_loss",
    "matrix_l1_loss",
    "min_eigenvalue",
    "spectral_loss",
    "support_metrics",
    "CASES",
    "SimulationCase",
    "basis_to_composition",
    "build_omega0",
    "sample_case",
    "Edge",
    "StabilityResult",
    "SupportSet",
    "bootstrap_stability",
    "extract_edges",
    "filter_stable",
    "BenchmarkSpec",
    "run_benchmark",
    "summarize",
    "__version__",
]
