"""Exact work counts of three fixed fits, which no host speed can move.

Spies on the names the library looks up count, per fit:

- ``apply.*``: calls of the thresholding rule ``threshold._apply`` and the
  entry-values it computes (the sum of its threshold sizes);
- ``pd.*``: the PD scan's ``_is_pd`` decisions by kind: settled by the
  Gershgorin bound, by one Cholesky factorization that passes or by two
  that fail, or by the eigenvalues (``eigvalsh``);
- ``factors`` and ``min_eigenvalue``: factorizations and spectra;
- ``mom.*``: median-of-means kernel calls and the buffer entries they
  sort, block count times mask entries;
- ``block_product``: block second-moment products.

The counts are written as lines to a file opened for appending, so the
calls of a forked bootstrap worker count too.  A change that alters a
count updates the table here.  The PD scan's sweeps split over threads at
p = 200, so the ``apply`` counts are pinned under one thread; the rest are
totals that no split changes, checked under two threads as well.  Which
entries die at which grid value depends on the last bits of the fits, so
the table holds only where the byte contract does: under any other
environment key the test skips.
"""

import contextlib
import functools
import importlib
import json
import os
import threading

import numpy as np
import pytest
from test_contract import DIGESTS, environment_key

from rcec import EstimatorConfig, ThresholdRule, bootstrap_stability, estimate, parallel
from rcec.simgen import basis_to_composition, sample_case


@functools.cache
def _composition(case, n, p, seed):
    return basis_to_composition(sample_case(case, n, p, seed))


FITS = {
    "estimate": lambda: estimate(_composition(2, 100, 200, 1)),
    "stability": lambda: bootstrap_stability(
        _composition(2, 100, 200, 1), replicates=8, reuse_lambda=True
    ),
    "coat-scad": lambda: estimate(
        _composition(1, 100, 100, 0),
        EstimatorConfig(estimator="coat", rule=ThresholdRule.scad(3.7)),
    ),
}

# _is_pd's decision kind from (the results of its factorizations, its answer).
PD_KINDS = {
    ((), True): "pd.gershgorin",
    ((), False): "pd.not_finite",
    ((True,), True): "pd.cholesky_pass",
    ((False, False), False): "pd.cholesky_fail",
    ((False, True), True): "pd.eigvalsh",
    ((False, True), False): "pd.eigvalsh",
}

KEYS = (
    "apply.calls",
    "apply.entries",
    *sorted(set(PD_KINDS.values())),
    "factors",
    "min_eigenvalue",
    "mom.calls",
    "mom.sorted",
    "block_product",
)

# The counts that depend on how the PD scan splits its grid.
SPLIT = {"apply.calls", "apply.entries"}


def _apply(original, write, local):
    def spy(rule, z, absz, t):
        write("apply.calls", 1)
        write("apply.entries", np.size(t))
        return original(rule, z, absz, t)

    return spy


def _is_pd(original, write, local):
    def spy(omega, work):
        local.factored = []
        decided = original(omega, work)
        write(PD_KINDS[tuple(local.factored), decided], 1)
        return decided

    return spy


def _factors(original, write, local):
    def spy(*args):
        passed = original(*args)
        local.factored.append(passed)
        write("factors", 1)
        return passed

    return spy


def _min_eigenvalue(original, write, local):
    def spy(*args):
        write("min_eigenvalue", 1)
        return original(*args)

    return spy


def _median_covariance(original, write, local):
    def spy(arr, block_count, mask):
        write("mom.calls", 1)
        write("mom.sorted", block_count * int(np.count_nonzero(mask)))
        return original(arr, block_count, mask)

    return spy


def _block_product(original, write, local):
    def spy(*args):
        write("block_product", 1)
        return original(*args)

    return spy


# (module, name, spy maker) for each name where the library looks it up.
SPIES = [
    ("rcec.threshold", "_apply", _apply),
    ("rcec.tuning", "_is_pd", _is_pd),
    ("rcec.tuning", "_factors", _factors),
    ("rcec.tuning", "min_eigenvalue", _min_eigenvalue),
    ("rcec.mom", "_median_covariance", _median_covariance),
    ("rcec.stability", "_median_covariance", _median_covariance),
    ("rcec.mom", "_block_product", _block_product),
]


def count_work(fit, path) -> dict:
    """The counts of ``fit()``, with every spy in ``SPIES`` in place."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND)
    local = threading.local()

    def write(key, value):
        os.write(fd, f"{key} {value}\n".encode())

    try:
        with contextlib.ExitStack() as stack:
            for module_name, name, make in SPIES:
                module = importlib.import_module(module_name)
                original = getattr(module, name)
                setattr(module, name, make(original, write, local))
                stack.callback(setattr, module, name, original)
            fit()
    finally:
        os.close(fd)
    counts = dict.fromkeys(KEYS, 0)
    with open(path) as lines:
        for line in lines:
            key, value = line.split()
            counts[key] += int(value)
    return counts


COUNTS = {
    "estimate": {
        "apply.calls": 83,
        "apply.entries": 636218,
        "pd.cholesky_fail": 15,
        "pd.cholesky_pass": 17,
        "pd.eigvalsh": 0,
        "pd.gershgorin": 18,
        "pd.not_finite": 0,
        "factors": 47,
        "min_eigenvalue": 1,
        "mom.calls": 11,
        "mom.sorted": 3537600,
        "block_product": 176,
    },
    "stability": {
        "apply.calls": 91,
        "apply.entries": 956218,
        "pd.cholesky_fail": 15,
        "pd.cholesky_pass": 17,
        "pd.eigvalsh": 0,
        "pd.gershgorin": 18,
        "pd.not_finite": 0,
        "factors": 47,
        "min_eigenvalue": 1,
        "mom.calls": 19,
        "mom.sorted": 3624256,
        "block_product": 304,
    },
    "coat-scad": {
        "apply.calls": 36,
        "apply.entries": 221026,
        "pd.cholesky_fail": 14,
        "pd.cholesky_pass": 21,
        "pd.eigvalsh": 0,
        "pd.gershgorin": 15,
        "pd.not_finite": 0,
        "factors": 49,
        "min_eigenvalue": 1,
        "mom.calls": 0,
        "mom.sorted": 0,
        "block_product": 11,
    },
}


@pytest.fixture(scope="module", autouse=True)
def same_environment():
    key = environment_key()
    recorded = json.loads(DIGESTS.read_text())["key"]
    if recorded != key:
        pytest.skip(f"counts recorded under {recorded}; this environment is {key}")


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("fit", list(FITS))
def test_work_counts(monkeypatch, tmp_path, fit, threads):
    monkeypatch.setenv(parallel.THREADS_ENV, threads)
    counts = count_work(FITS[fit], tmp_path / "counts")
    want = COUNTS[fit]
    if threads != "1":
        counts = {key: value for key, value in counts.items() if key not in SPLIT}
        want = {key: value for key, value in want.items() if key not in SPLIT}
    assert counts == want
