"""Compositional data containers, closure, and the clr transform."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rcec import (
    BenchmarkSpec,
    ClrMatrix,
    CompositionMatrix,
    CountMatrix,
    EstimatorConfig,
    ThresholdRule,
    basis_to_composition,
    bootstrap_stability,
    close_counts,
    clr_transform,
    default_block_count,
    lambda_grid,
    make_folds,
    mom_covariance,
    sample_case,
    threshold_matrix,
)
from rcec.metrics import centering_matrix

positive_rows = hnp.arrays(
    np.float64,
    st.tuples(st.integers(2, 8), st.integers(2, 8)),
    elements=st.floats(0.01, 100.0),
)


class TestContainers:
    def test_count_matrix_accepts_nonnegative(self):
        m = CountMatrix([[0, 1, 2], [3, 0, 4]])
        assert m.n == 2 and m.p == 3

    def test_count_matrix_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            CountMatrix([[1, -1], [2, 3]])

    def test_count_matrix_rejects_all_zero_row(self):
        with pytest.raises(ValueError, match="zero"):
            CountMatrix([[0, 0], [1, 2]])

    def test_composition_rejects_zero_entry(self):
        with pytest.raises(ValueError, match="positive"):
            CompositionMatrix([[0.0, 1.0], [0.5, 0.5]])

    def test_composition_rejects_bad_row_sum(self):
        # Rows off the simplex are rejected, never silently renormalized.
        with pytest.raises(ValueError, match="sum"):
            CompositionMatrix([[0.5, 0.6], [0.5, 0.5]])

    def test_composition_row_sum_tolerance(self):
        x = np.array([[0.5, 0.5 + 5e-11], [0.25, 0.75]])
        assert CompositionMatrix(x).p == 2

    def test_minimum_shape(self):
        with pytest.raises(ValueError, match="at least 2 samples"):
            CompositionMatrix([[0.5, 0.5]])
        with pytest.raises(ValueError, match="at least 2 components"):
            CompositionMatrix([[1.0], [1.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            CompositionMatrix([[np.nan, 1.0], [0.5, 0.5]])

    def test_values_are_c_ordered_whatever_the_input_layout(self):
        x = basis_to_composition(sample_case(1, 60, 20, 0)).values
        f_order = CompositionMatrix(np.asfortranarray(x))
        assert f_order.values.flags.c_contiguous
        np.testing.assert_array_equal(clr_transform(f_order).values, clr_transform(x).values)

    def test_clr_matrix_rejects_noncentered_rows(self):
        # The row sum is printed as a plain float, not a numpy repr.
        with pytest.raises(ValueError, match=r"sum.*; row 0 sums to 2\.0$"):
            ClrMatrix([[1.0, 1.0], [0.5, -0.5]])


class TestCloseCounts:
    def test_plain_closure(self):
        x = close_counts(CountMatrix([[1, 1, 2], [1, 1, 2]]))
        np.testing.assert_allclose(x.values[0], [0.25, 0.25, 0.5])

    def test_zero_replacement(self):
        x = close_counts(CountMatrix([[0, 1, 1], [1, 1, 1]]), zero_replacement=0.5)
        np.testing.assert_allclose(x.values[0], [0.2, 0.4, 0.4])

    def test_accepts_plain_array(self):
        x = close_counts([[0, 1, 1], [1, 1, 1]])
        np.testing.assert_allclose(x.values[0], [0.2, 0.4, 0.4])

    def test_rejects_nonpositive_replacement(self):
        with pytest.raises(ValueError, match="zero_replacement"):
            close_counts(CountMatrix([[1, 2], [3, 4]]), zero_replacement=0.0)

    def test_all_zero_row_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            close_counts([[0, 0], [1, 2]])

    @pytest.mark.parametrize("value", [np.inf, np.nan, -1.0])
    def test_rejects_nonfinite_replacement_up_front(self, value):
        # An infinite pseudo-count used to fill a zero and fail later, after
        # a numpy RuntimeWarning, as "non-finite entries".
        message = f"zero_replacement must be strictly positive and finite, got {value!r}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                close_counts([[0, 1, 1], [1, 1, 1]], zero_replacement=value)


# Every public entry point that takes a seed applies the one check in
# compdata, with the same messages.
SEED_ENTRY_POINTS = {
    "EstimatorConfig": lambda seed: EstimatorConfig(seed=seed),
    "sample_case": lambda seed: sample_case(1, 5, 4, seed),
    "BenchmarkSpec": lambda seed: BenchmarkSpec(seed=seed),
    "bootstrap_stability": lambda seed: bootstrap_stability(
        basis_to_composition(sample_case(1, 30, 6, 0)),
        EstimatorConfig(grid_size=6),
        replicates=1,
        seed=seed,
    ),
}


@pytest.mark.parametrize("entry", sorted(SEED_ENTRY_POINTS))
@pytest.mark.parametrize(
    "seed, message",
    [
        (1.5, "seed must be an integer, got 1.5"),
        (True, "seed must be an integer, got True"),
        (-1, "seed must be nonnegative, got -1"),
    ],
    ids=["float", "bool", "negative"],
)
def test_every_entry_point_rejects_a_bad_seed(entry, seed, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SEED_ENTRY_POINTS[entry](seed)


def _stability(**counts):
    x = basis_to_composition(sample_case(1, 30, 6, 0))
    return bootstrap_stability(x, EstimatorConfig(grid_size=6), **counts)


# Every public count parameter goes through the one count check in compdata:
# entry -> (call taking the count, a valid value).  The parameter's name is
# the part after the dot.
COUNT_ENTRY_POINTS = {
    "EstimatorConfig.folds": (lambda k: EstimatorConfig(folds=k), 5),
    "EstimatorConfig.grid_size": (lambda k: EstimatorConfig(grid_size=k), 10),
    "EstimatorConfig.block_count": (lambda k: EstimatorConfig(block_count=k), 3),
    "lambda_grid.grid_size": (lambda k: lambda_grid(np.eye(3), 10, grid_size=k), 10),
    "lambda_grid.n": (lambda k: lambda_grid(np.eye(3), k), 10),
    "threshold_matrix.n": (
        lambda k: threshold_matrix(np.eye(3), 0.5, k, ThresholdRule.soft()), 10
    ),
    "make_folds.folds": (lambda k: make_folds(40, k, 0), 5),
    "default_block_count.p": (lambda k: default_block_count(k), 10),
    "default_block_count.n_cap": (lambda k: default_block_count(10, n_cap=k), 3),
    "mom_covariance.block_count": (lambda k: mom_covariance(np.eye(6), k), 3),
    "BenchmarkSpec.n": (lambda k: BenchmarkSpec(n=k), 10),
    "BenchmarkSpec.replications": (lambda k: BenchmarkSpec(replications=k), 2),
    "sample_case.n": (lambda k: sample_case(1, k, 4, 0), 10),
    "bootstrap_stability.replicates": (lambda k: _stability(replicates=k), 1),
    "bootstrap_stability.retain_threshold": (
        lambda k: _stability(replicates=1, retain_threshold=k), 1
    ),
    "centering_matrix.p": (lambda k: centering_matrix(k), 4),
}


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
@pytest.mark.parametrize("value", [10.9, True], ids=["float", "bool"])
def test_every_count_rejects_a_non_integer(entry, value):
    call, _ = COUNT_ENTRY_POINTS[entry]
    name = entry.split(".")[1]
    message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_every_count_accepts_a_numpy_integer(entry):
    call, valid = COUNT_ENTRY_POINTS[entry]
    call(np.int64(valid))


class TestClrTransform:
    def test_uniform_row_maps_to_zero(self):
        w = clr_transform(CompositionMatrix([[1 / 3] * 3, [1 / 3] * 3]))
        np.testing.assert_allclose(w.values, 0.0, atol=1e-12)

    def test_hand_value(self):
        w = clr_transform(CompositionMatrix([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25]]))
        np.testing.assert_allclose(
            w.values[0], [0.462098, -0.231049, -0.231049], atol=1e-5
        )

    @given(positive_rows)
    def test_rows_sum_to_zero(self, raw):
        x = close_counts(CountMatrix(raw))
        w = clr_transform(x)
        np.testing.assert_allclose(w.values.sum(axis=1), 0.0, atol=1e-8)

    @given(positive_rows, st.floats(1e-3, 1e3))
    def test_scale_invariance(self, raw, c):
        # clr depends on within-row ratios only, so a global rescale of the
        # pre-closure counts leaves it unchanged.
        base = clr_transform(close_counts(CountMatrix(raw))).values
        scaled = clr_transform(close_counts(CountMatrix(raw * c))).values
        np.testing.assert_allclose(scaled, base, atol=1e-10)

    def test_row_centering_identity(self):
        rng = np.random.default_rng(11)
        y = rng.uniform(-5, 5, size=(6, 4))
        w = clr_transform(basis_to_composition(y))
        centered = y - y.mean(axis=1, keepdims=True)
        np.testing.assert_allclose(w.values, centered, atol=1e-10)
