"""The public surface of the package, pinned name by name.

A helper that only the tests use does not belong in ``rcec.__all__``; adding
or removing a public name means editing this list on purpose.  The same
holds for parameters: each public callable's parameter names are pinned in
``SIGNATURES``, so a knob no caller sets cannot come back unnoticed.
"""

import inspect

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

# Parameter names of every public callable; dataclasses list their fields.
SIGNATURES = {
    "BenchmarkSpec": ("cases", "p_values", "n", "replications", "estimators", "seed"),
    "ClrMatrix": ("values",),
    "CompositionMatrix": ("values",),
    "CountMatrix": ("values",),
    "Edge": ("i", "j", "sign", "weight"),
    "EstimateResult": (
        "omega", "gamma", "lambda_star", "cv_curve", "min_eig", "block_count", "warnings",
    ),
    "EstimatorConfig": (
        "estimator", "rule", "folds", "grid_size", "L", "enforce_pd",
        "threshold_diagonal", "seed", "block_count",
    ),
    "SimulationCase": ("kind", "df", "alpha", "contamination", "shift"),
    "StabilityResult": (
        "baseline", "stable", "stability", "positives", "negatives", "sign_agreement",
        "replicates", "retain_threshold", "seed", "lambda_star", "reuse_lambda",
        "baseline_omega",
    ),
    "SupportMetrics": (
        "tpr", "fpr", "sign_consistent", "true_edges", "estimated_edges",
        "tpr_degenerate", "fpr_degenerate",
    ),
    "SupportSet": ("edges", "occurrences"),
    "ThresholdRule": ("kind", "eta", "a"),
    "apply_rule": ("rule", "z", "lam"),
    "basis_to_composition": ("y",),
    "bootstrap_stability": (
        "X", "config", "replicates", "retain_threshold", "seed", "reuse_lambda",
        "index_sampler",
    ),
    "build_omega0": ("p",),
    "close_counts": ("counts", "zero_replacement"),
    "clr_proxy_gap": ("omega0",),
    "clr_transform": ("composition",),
    "cv_select": ("W", "config", "grid"),
    "default_block_count": ("p", "L", "n_cap"),
    "estimate": ("X", "config"),
    "estimate_from_latent": ("Y", "config"),
    "extract_edges": ("omega",),
    "filter_stable": ("baseline", "retain_threshold"),
    "frobenius_loss": ("a", "b"),
    "lambda_grid": ("gamma", "n", "grid_size"),
    "make_folds": ("n", "folds", "seed"),
    "matrix_l1_loss": ("a", "b"),
    "min_eigenvalue": ("a",),
    "mom_covariance": ("W", "block_count"),
    "run_benchmark": ("spec", "config"),
    "sample_case": ("case", "n", "p", "seed"),
    "sample_covariance": ("W",),
    "spectral_loss": ("a", "b"),
    "summarize": ("records", "spec"),
    "support_metrics": ("estimate", "truth"),
    "threshold_matrix": ("gamma", "lam", "n", "rule", "threshold_diagonal"),
}


def test_all_is_the_pinned_list():
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(rcec.__all__) == PUBLIC
    assert len(set(rcec.__all__)) == len(rcec.__all__)


def test_every_public_name_imports():
    namespace = {}
    exec("from rcec import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(rcec, name)


def test_every_public_signature_is_pinned():
    callables = sorted(name for name in PUBLIC if callable(getattr(rcec, name)))
    assert sorted(SIGNATURES) == callables
    for name in callables:
        params = tuple(inspect.signature(getattr(rcec, name)).parameters)
        assert params == SIGNATURES[name], name
