"""Synthetic data: ground-truth covariance and the four case samplers."""

import numpy as np
import pytest

from rcec import (
    CASES,
    SimulationCase,
    basis_to_composition,
    build_omega0,
    clr_transform,
    sample_case,
)
from rcec.simgen import get_case


def _skewness(x):
    c = x - x.mean()
    return float(np.mean(c**3) / np.mean(c**2) ** 1.5)


class TestBuildOmega0:
    def test_hand_entries_p24(self):
        omega = build_omega0(24)
        assert omega[0, 0] == 1.0
        assert omega[0, 1] == pytest.approx(0.9)
        assert omega[0, 10] == 0.0
        assert omega[0, 12] == 0.0  # cross-block
        assert omega[12, 12] == 4.0

    def test_band_truncation(self):
        omega = build_omega0(40)
        i, j = np.meshgrid(np.arange(20), np.arange(20), indexing="ij")
        assert np.all(omega[:20, :20][np.abs(i - j) >= 10] == 0.0)

    @pytest.mark.parametrize("p", [50, 100, 200])
    def test_positive_definite(self, p):
        eigenvalues = np.linalg.eigvalsh(build_omega0(p))
        assert eigenvalues[0] > 0

    def test_rejects_odd_or_small_p(self):
        for bad in (7, 2, 0, -4):
            with pytest.raises(ValueError, match="even integer"):
                build_omega0(bad)

    @pytest.mark.parametrize("bad", [10.9, 12.0, True, "12"])
    def test_rejects_non_integer_p(self, bad):
        with pytest.raises(ValueError, match=f"p must be an even integer >= 4, got {bad}$"):
            build_omega0(bad)


class TestCaseTable:
    def test_case_parameters(self):
        assert CASES[1].kind == "gaussian"
        assert CASES[2] == SimulationCase(kind="student_t", df=3.5)
        assert CASES[3].alpha == 20.0 and CASES[3].df == 4.0
        assert CASES[4].contamination == 0.05 and CASES[4].shift == -8.0

    def test_get_case_passthrough_and_errors(self):
        case = SimulationCase(kind="gaussian")
        assert get_case(case) is case
        assert get_case(2) is CASES[2]
        with pytest.raises(ValueError, match="unknown simulation case"):
            get_case(5)

    @pytest.mark.parametrize("case", [2.5, 2.7, 2.0, True, "2", None], ids=repr)
    def test_get_case_takes_only_integer_keys(self, case):
        # No truncation: 2.7 is not case 2, and True is not case 1.
        with pytest.raises(ValueError, match="unknown simulation case"):
            get_case(case)

    def test_get_case_takes_numpy_integer_keys(self):
        assert get_case(np.int64(3)) is CASES[3]

    def test_case_validation(self):
        with pytest.raises(ValueError, match="unknown case kind"):
            SimulationCase(kind="cauchy")
        with pytest.raises(ValueError, match="df must be"):
            SimulationCase(kind="student_t", df=0.0)
        with pytest.raises(ValueError, match="contamination"):
            SimulationCase(kind="gaussian", contamination=1.5)


class TestSampleCase:
    def test_deterministic(self):
        for case in (1, 2, 3, 4):
            a = sample_case(case, 25, 8, seed=13)
            b = sample_case(case, 25, 8, seed=13)
            np.testing.assert_array_equal(a, b)
            assert not np.array_equal(a, sample_case(case, 25, 8, seed=14))

    def test_shape_and_finiteness(self):
        for case in (1, 2, 3, 4):
            y = sample_case(case, 30, 10, seed=0)
            assert y.shape == (30, 10)
            assert np.all(np.isfinite(y))

    def test_seed_validation(self):
        with pytest.raises(ValueError, match="seed must be an integer"):
            sample_case(1, 5, 4, seed=1.5)
        with pytest.raises(ValueError, match="seed must be an integer"):
            sample_case(1, 5, 4, seed=True)
        with pytest.raises(ValueError, match="nonnegative"):
            sample_case(1, 5, 4, seed=-1)

    @pytest.mark.parametrize("p", [10.9, 12.0, True, np.float64(8.0)])
    def test_rejects_non_integer_dimension(self, p):
        with pytest.raises(ValueError, match="p must be an even integer >= 4"):
            sample_case(1, 5, p, seed=0)

    def test_accepts_numpy_integer_dimension(self):
        np.testing.assert_array_equal(
            sample_case(2, 5, np.int64(8), seed=0), sample_case(2, 5, 8, seed=0)
        )

    def test_gaussian_moments(self):
        omega0 = build_omega0(10)
        y = sample_case(1, 20_000, 10, seed=0)
        s = np.cov(y, rowvar=False, bias=True)
        assert np.max(np.abs(s - omega0)) <= 0.15

    def test_student_t_second_moment_scaling(self):
        # The heavy-tailed rows have covariance (df / (df - 2)) * omega0.
        omega0 = build_omega0(10)
        target = (3.5 / 1.5) * omega0
        y = sample_case(2, 50_000, 10, seed=0)
        s = np.cov(y, rowvar=False, bias=True)
        assert s[0, 0] / target[0, 0] == pytest.approx(1.0, abs=0.1)
        assert s[0, 1] / target[0, 1] == pytest.approx(1.0, abs=0.1)
        assert np.mean(np.diag(s) / np.diag(target)) == pytest.approx(1.0, abs=0.1)

    def test_skewness_grows_with_shape(self):
        draws = {
            alpha: sample_case(
                SimulationCase(kind="skew_t", df=4.0, alpha=alpha), 100_000, 10, seed=7
            )
            for alpha in (0.0, 5.0, 20.0)
        }
        skews = {alpha: _skewness(y.sum(axis=1)) for alpha, y in draws.items()}
        assert abs(skews[0.0]) < 1.0
        assert skews[5.0] > 2.0
        assert skews[20.0] > 2.0
        assert skews[20.0] > skews[0.0]

    def test_contamination_rate(self):
        # Contaminated rows center at the shift; a midpoint cut on the row
        # mean classifies them essentially perfectly.
        y = sample_case(4, 100_000, 10, seed=3)
        rate = float(np.mean(y.mean(axis=1) < -4.0))
        assert 0.045 <= rate <= 0.055

    def test_contaminated_rows_match_clean_draw_elsewhere(self):
        case = CASES[4]
        clean_case = SimulationCase(kind="skew_t", df=case.df, alpha=case.alpha)
        y = sample_case(case, 200, 6, seed=9)
        clean = sample_case(clean_case, 200, 6, seed=9)
        contaminated = np.abs(y.mean(axis=1) + 8.0) < 3.0
        assert contaminated.any()
        np.testing.assert_array_equal(y[~contaminated], clean[~contaminated])


class TestBasisToComposition:
    def test_uniform_row(self):
        x = basis_to_composition(np.zeros((2, 3)))
        np.testing.assert_allclose(x.values, 1.0 / 3.0)

    def test_hand_value(self):
        x = basis_to_composition(np.array([[np.log(2.0), 0.0, 0.0], [0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(x.values[0], [0.5, 0.25, 0.25])

    def test_extreme_entries_safe(self):
        rng = np.random.default_rng(5)
        y = rng.uniform(-30, 30, size=(50, 6))
        x = basis_to_composition(y)
        np.testing.assert_allclose(x.values.sum(axis=1), 1.0, atol=1e-12)
        w = clr_transform(x)
        centered = y - y.mean(axis=1, keepdims=True)
        np.testing.assert_allclose(w.values, centered, atol=1e-10)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            basis_to_composition(np.array([[np.inf, 0.0], [0.0, 0.0]]))
