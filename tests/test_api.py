"""The public surface of the package, pinned name by name.

A helper that only the tests use does not belong in ``rcec.__all__``; adding
or removing a public name means editing this list on purpose.
"""

import rcec

PUBLIC = [
    "BenchmarkSpec",
    "CASES",
    "ClrMatrix",
    "CompositionMatrix",
    "CountMatrix",
    "Edge",
    "EstimateResult",
    "EstimatorConfig",
    "SimulationCase",
    "StabilityResult",
    "SupportMetrics",
    "SupportSet",
    "ThresholdRule",
    "__version__",
    "apply_rule",
    "basis_to_composition",
    "bootstrap_stability",
    "build_omega0",
    "close_counts",
    "clr_proxy_gap",
    "clr_transform",
    "cv_select",
    "default_block_count",
    "entry_thresholds",
    "estimate",
    "estimate_from_latent",
    "extract_edges",
    "filter_stable",
    "frobenius_loss",
    "lambda_grid",
    "make_folds",
    "matrix_l1_loss",
    "min_eigenvalue",
    "mom_covariance",
    "run_benchmark",
    "sample_case",
    "sample_covariance",
    "spectral_loss",
    "summarize",
    "support_metrics",
    "threshold_matrix",
]


def test_all_is_the_pinned_list():
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(rcec.__all__) == PUBLIC
    assert len(set(rcec.__all__)) == len(rcec.__all__)


def test_every_public_name_imports():
    namespace = {}
    exec("from rcec import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(rcec, name)
