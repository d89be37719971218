"""Grid construction, cross-validation, PD floor, and the full pipeline."""

import json
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import assert_same_bits
from hypothesis import given, settings
from hypothesis import strategies as st

from rcec import (
    CompositionMatrix,
    EstimatorConfig,
    ThresholdRule,
    basis_to_composition,
    clr_transform,
    cv_select,
    estimate,
    estimate_from_latent,
    lambda_grid,
    make_folds,
    min_eigenvalue,
    sample_case,
    spectral_loss,
    threshold_matrix,
)
from rcec import mom, parallel, tuning
from rcec.tuning import PD_TOL, _is_pd, _parse_kv, _subset_covariance, pd_floor_scan


def _kv_text(cfg):
    # A config file setting every field of cfg: str() of a float is its
    # shortest round-tripping text, and the rule is written as its spec.
    return "".join(
        f"{key} = {value}\n" for key, value in cfg.to_dict().items() if value is not None
    )


def _composition(case=1, n=60, p=10, seed=0):
    return basis_to_composition(sample_case(case, n, p, seed=seed))


class TestEstimatorConfig:
    def test_defaults(self):
        cfg = EstimatorConfig()
        assert cfg.estimator == "rcec"
        assert cfg.rule == ThresholdRule.soft()
        assert (cfg.folds, cfg.grid_size, cfg.L) == (5, 50, 1.0)
        assert cfg.enforce_pd and not cfg.threshold_diagonal
        assert cfg.block_count is None

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            EstimatorConfig(estimator="sparcc")
        with pytest.raises(ValueError, match="folds"):
            EstimatorConfig(folds=1)
        with pytest.raises(ValueError, match="grid_size"):
            EstimatorConfig(grid_size=1)
        with pytest.raises(ValueError, match="L must be"):
            EstimatorConfig(L=0.0)
        with pytest.raises(ValueError, match="seed"):
            EstimatorConfig(seed=-3)
        with pytest.raises(ValueError, match="block_count"):
            EstimatorConfig(block_count=0)
        with pytest.raises(ValueError, match="rule"):
            EstimatorConfig(rule="soft")

    @pytest.mark.parametrize(
        "L",
        [True, "2", None, float("inf"), -float("inf"), float("nan"), 0, -1.5,
         pytest.param(10**400, id="int-too-large-for-a-float")],
    )
    def test_rejects_L_that_is_not_a_finite_positive_real(self, L):
        with pytest.raises(ValueError, match="L must be"):
            EstimatorConfig(L=L)

    @pytest.mark.parametrize("L", [2, np.int64(2), np.float32(2.0), 2.0])
    def test_L_is_stored_as_a_python_float(self, L):
        cfg = EstimatorConfig(L=L)
        assert type(cfg.L) is float and cfg.L == 2.0
        assert json.loads(json.dumps(cfg.to_dict()))["L"] == 2.0

    def test_numpy_integers_are_stored_as_python_ints(self):
        cfg = EstimatorConfig(
            folds=np.int64(5), grid_size=np.int32(12), seed=np.int64(3), block_count=np.int64(2)
        )
        for name in ("folds", "grid_size", "seed", "block_count"):
            assert type(getattr(cfg, name)) is int, name
        assert json.loads(json.dumps(cfg.to_dict()))["folds"] == 5

    @pytest.mark.parametrize("name", ["enforce_pd", "threshold_diagonal"])
    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None, np.array([True])])
    def test_flags_must_be_bools(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a bool"):
            EstimatorConfig(**{name: value})

    def test_numpy_bools_are_stored_as_python_bools(self):
        cfg = EstimatorConfig(enforce_pd=np.True_, threshold_diagonal=np.False_)
        assert cfg.enforce_pd is True and cfg.threshold_diagonal is False
        assert json.loads(json.dumps(cfg.to_dict()))["enforce_pd"] is True

    @pytest.mark.parametrize(
        "cfg",
        [
            EstimatorConfig(),
            EstimatorConfig(
                estimator="coat",
                rule=ThresholdRule.scad(4.1),
                folds=3,
                grid_size=17,
                L=2.5,
                enforce_pd=False,
                threshold_diagonal=True,
                seed=99,
                block_count=6,
            ),
        ],
    )
    def test_kv_round_trip(self, cfg):
        assert EstimatorConfig(**_parse_kv(_kv_text(cfg))) == cfg

    @given(
        L=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        eta=st.floats(min_value=1.0),
        a=st.floats(min_value=2.0, exclude_min=True, allow_infinity=False),
    )
    def test_kv_round_trip_keeps_every_float_bit(self, L, eta, a):
        for rule in (ThresholdRule.adaptive_lasso(eta), ThresholdRule.scad(a)):
            cfg = EstimatorConfig(L=L, rule=rule)
            assert EstimatorConfig(**_parse_kv(_kv_text(cfg))) == cfg
            assert ThresholdRule.parse(rule.spec()) == rule

    def test_kv_text_of_short_floats_is_unchanged(self):
        assert ThresholdRule.scad(3.7).spec() == "scad:3.7"
        assert ThresholdRule.adaptive_lasso(2.0).spec() == "alasso:2"
        assert ThresholdRule.scad(3.123456789).spec() == "scad:3.123456789"
        for spec in ("scad:3.7", "alasso:2", "scad:3.123456789"):
            assert ThresholdRule.parse(spec).spec() == spec

    def test_to_dict_is_the_report_schema(self):
        cfg = EstimatorConfig(rule=ThresholdRule.adaptive_lasso(2.0), block_count=3)
        assert cfg.to_dict() == {
            "estimator": "rcec",
            "rule": "alasso:2",
            "folds": 5,
            "grid_size": 50,
            "L": 1.0,
            "enforce_pd": True,
            "threshold_diagonal": False,
            "seed": 0,
            "block_count": 3,
        }
        assert list(cfg.to_dict()) == [
            "estimator", "rule", "folds", "grid_size", "L",
            "enforce_pd", "threshold_diagonal", "seed", "block_count",
        ]

    def test_kv_accepts_comments_and_blanks(self):
        text = "# pipeline settings\n\nfolds = 3\nrule = alasso:2\n"
        assert _parse_kv(text) == {"folds": 3, "rule": ThresholdRule.adaptive_lasso(2.0)}

    def test_kv_rejects_bad_input(self):
        with pytest.raises(ValueError, match="unknown config key"):
            _parse_kv("lambda = 3\n")
        with pytest.raises(ValueError, match="duplicate"):
            _parse_kv("folds = 3\nfolds = 4\n")
        with pytest.raises(ValueError, match="expected 'key = value'"):
            _parse_kv("folds: 3\n")
        with pytest.raises(ValueError, match="boolean"):
            _parse_kv("enforce_pd = maybe\n")


class TestLambdaGrid:
    def test_hand_value(self):
        gamma = np.array([[1.0, 0.5], [0.5, 1.0]])
        # Upper end: |gamma_01| / sqrt(gamma_00 gamma_11 log(p) / n).
        grid = lambda_grid(gamma, n=25, grid_size=2)
        assert grid == pytest.approx([0.0, 0.5 / np.sqrt(np.log(2) / 25)])

    def test_linear_with_endpoints(self):
        gamma = np.array([[1.0, 0.5], [0.5, 1.0]])
        grid = lambda_grid(gamma, n=100, grid_size=7)
        assert grid[0] == 0.0
        assert len(grid) == 7
        np.testing.assert_allclose(np.diff(grid), grid[1], rtol=1e-12)

    def test_degenerate_for_diagonal_input(self):
        grid = lambda_grid(np.diag([1.0, 2.0]), n=10, grid_size=5)
        assert grid[0] == 0.0 and grid[-1] == 1e-12

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError, match="grid_size"):
            lambda_grid(np.eye(2), n=10, grid_size=1)

    def test_largest_value_zeroes_all_entries(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(30, 6))
        gamma = a.T @ a / 30
        grid = lambda_grid(gamma, n=30, grid_size=9)
        out = threshold_matrix(gamma, grid[-1], 30, ThresholdRule.soft())
        off = ~np.eye(6, dtype=bool)
        assert np.all(out[off] == 0.0)
        almost = threshold_matrix(gamma, grid[-2], 30, ThresholdRule.soft())
        assert np.any(almost[off] != 0.0)


class TestMakeFolds:
    def test_partition_properties(self):
        folds = make_folds(23, 5, seed=3)
        joined = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(joined, np.arange(23))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        for fold in folds:
            assert np.all(np.diff(fold) > 0)

    def test_deterministic_in_seed(self):
        a = make_folds(20, 4, seed=1)
        b = make_folds(20, 4, seed=1)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        c = make_folds(20, 4, seed=2)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="n >= 2"):
            make_folds(9, 5, seed=0)

    @pytest.mark.parametrize(
        "n, seed, message",
        [
            (10.0, 0, "n must be an integer"),
            (True, 0, "n must be an integer"),
            (0, 0, "n must be >= 1"),
            (10, 1.5, "seed must be an integer"),
            (10, True, "seed must be an integer"),
            (10, -1, "seed must be nonnegative"),
        ],
    )
    def test_n_and_seed_are_checked(self, n, seed, message):
        with pytest.raises(ValueError, match=message):
            make_folds(n, 2, seed)


class TestCvSelect:
    def test_winner_is_grid_member_and_deterministic(self):
        x = _composition(n=40, p=6, seed=2)
        w = clr_transform(x)
        cfg = EstimatorConfig(seed=4, grid_size=20)
        lam1, curve1 = cv_select(w, cfg)
        lam2, curve2 = cv_select(w, cfg)
        assert lam1 == lam2
        np.testing.assert_array_equal(curve1, curve2)
        assert lam1 in curve1[:, 0]

    def test_ties_resolve_to_largest(self):
        # Candidates far beyond the all-zeroing value give identical
        # (diagonal) estimates on every fold, so the curve is flat and the
        # winner must be the largest candidate.
        x = _composition(n=40, p=6, seed=2)
        w = clr_transform(x)
        cfg = EstimatorConfig(seed=4)
        gamma = _subset_covariance(w.values, cfg)
        lam_max = lambda_grid(gamma, 40, 2)[-1]
        grid = lam_max * np.array([3.0, 4.0, 5.0])
        lam, curve = cv_select(w, cfg, grid=grid)
        assert np.all(curve[:, 1] == curve[0, 1])
        assert lam == grid[-1]

    def test_brute_force_oracle_agreement(self):
        # Straight-line recomputation of the CV objective: explicit fold
        # loops, scalar soft thresholding, full-matrix squared error.
        x = _composition(n=24, p=4, seed=5)
        w = clr_transform(x).values
        cfg = EstimatorConfig(seed=11, grid_size=15)
        gamma = _subset_covariance(w, cfg)
        grid = lambda_grid(gamma, w.shape[0], cfg.grid_size)
        lam, curve = cv_select(w, cfg, grid=grid)

        folds = make_folds(w.shape[0], cfg.folds, cfg.seed)
        totals = np.zeros(len(grid))
        for fold in folds:
            mask = np.ones(w.shape[0], dtype=bool)
            mask[fold] = False
            train, test = w[mask], w[fold]
            g_tr = _subset_covariance(train, cfg)
            g_te = _subset_covariance(test, cfg)
            rate = np.sqrt(np.log(4) / train.shape[0])
            for gi, candidate in enumerate(grid):
                err = 0.0
                for i in range(4):
                    for j in range(4):
                        if i == j:
                            om = g_tr[i, i]
                        else:
                            t = candidate * np.sqrt(g_tr[i, i] * g_tr[j, j]) * rate
                            om = np.sign(g_tr[i, j]) * max(abs(g_tr[i, j]) - t, 0.0)
                        err += (om - g_te[i, j]) ** 2
                totals[gi] += err
        mean_errors = totals / len(folds)
        best = np.flatnonzero(mean_errors == mean_errors.min())[-1]
        assert lam == grid[best]
        np.testing.assert_allclose(curve[:, 1], mean_errors, rtol=1e-12, atol=1e-12)

    def test_requires_enough_samples(self):
        w = np.random.default_rng(0).normal(size=(8, 3))
        with pytest.raises(ValueError, match="n >= 2"):
            cv_select(w, EstimatorConfig(folds=5))

    @pytest.mark.parametrize("grid", [[], [[0.0, 1.0]]], ids=["empty", "2-d"])
    def test_grid_must_be_a_nonempty_vector(self, grid):
        w = np.random.default_rng(0).normal(size=(20, 3))
        with pytest.raises(ValueError, match="grid must be a nonempty 1-d array"):
            cv_select(w, EstimatorConfig(folds=2), grid=grid)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("estimator", ["rcec", "coat"])
    def test_overflowing_fold_covariance_is_a_value_error(self, estimator):
        w = np.random.default_rng(0).normal(size=(20, 4)) * 1e160
        cfg = EstimatorConfig(estimator=estimator, grid_size=4, folds=2)
        with pytest.raises(ValueError, match="cross-validation error is not finite"):
            cv_select(w, cfg, grid=[0.0, 0.5])

    @pytest.mark.parametrize(
        "rule", [ThresholdRule.soft(), ThresholdRule.scad(3.7)], ids=ThresholdRule.spec
    )
    def test_folds_do_not_outlive_their_scores(self, rule):
        # With many blocks the median-of-means buffer sets the peak.  A fold's
        # p x p arrays (its covariances, entry scale and errors) must be freed
        # before the next fold's covariance is formed, so the whole selection
        # peaks at most two p x p arrays above one training covariance.
        n, p, m = 80, 100, 60
        w = np.random.default_rng(7).normal(size=(n, p))
        cfg = EstimatorConfig(block_count=m, rule=rule)
        grid = np.linspace(0.0, 3.0, 10)
        train = w[: n - n // cfg.folds]
        cv_select(w, cfg, grid=grid)  # warm-up: first-call allocations are not the loop's
        peaks = []
        for call in (lambda: _subset_covariance(train, cfg), lambda: cv_select(w, cfg, grid=grid)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        one_covariance, selection = peaks
        assert selection < one_covariance + 2 * p * p * 8


class TestPdFloor:
    def test_pd_input_keeps_full_grid(self):
        x = _composition(n=80, p=4, seed=6)
        w = clr_transform(x)
        cfg = EstimatorConfig(seed=0)
        gamma = _subset_covariance(w.values, cfg)
        grid = lambda_grid(gamma, 80, 10)
        restricted, notes = pd_floor_scan(gamma, grid, 80, cfg)
        if np.linalg.eigvalsh(gamma)[0] > PD_TOL:
            np.testing.assert_array_equal(restricted, grid)
            assert notes == []

    def test_indefinite_input_warns_and_keeps_grid(self):
        # Hand-built indefinite covariance: a -5 variance cannot be fixed by
        # off-diagonal thresholding, so no grid value qualifies.
        gamma = np.array([[1.0, 0.2, 0.1], [0.2, -5.0, 0.3], [0.1, 0.3, 1.0]])
        grid = np.linspace(0.0, 2.0, 6)
        restricted, notes = pd_floor_scan(gamma, grid, 50, EstimatorConfig())
        np.testing.assert_array_equal(restricted, grid)
        assert any("full grid" in note for note in notes)

    def test_restriction_is_suffix(self):
        # An oversized off-diagonal entry makes the estimate indefinite at
        # small tuning values; shrinking it restores definiteness, so the
        # qualifying candidates form a suffix.
        gamma = np.eye(3)
        gamma[0, 1] = gamma[1, 0] = 2.0
        grid = np.linspace(0.0, 16.0, 30)
        restricted, notes = pd_floor_scan(gamma, grid, 40, EstimatorConfig())
        assert 0 < restricted.size < grid.size
        np.testing.assert_array_equal(restricted, grid[grid.size - restricted.size :])
        assert notes == []
        ok = restricted[0]
        scale = np.sqrt(np.log(3) / 40)
        assert 1.0 - (2.0 - ok * scale) > PD_TOL  # smallest kept value works


def _with_smallest_eigenvalue(p, lam_min, spread, seed):
    # Q diag(lam) Q^T with lam_min the smallest of lam, exactly symmetric.
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    lam = np.concatenate([[lam_min], max(lam_min, 0.0) + rng.uniform(0.0, spread, p - 1)])
    omega = (q * lam) @ q.T
    return (omega + omega.T) / 2.0


def _diagonally_dominant(p, margin, spread, seed):
    # Symmetric off-diagonal part plus a diagonal that exceeds each row's
    # off-diagonal absolute sum by margin.
    rng = np.random.default_rng(seed)
    a = rng.uniform(-spread, spread, size=(p, p))
    omega = (a + a.T) / 2.0
    np.fill_diagonal(omega, 0.0)
    np.fill_diagonal(omega, np.abs(omega).sum(axis=1) + margin)
    return omega


def is_pd(omega):
    # The PD floor's decision on one matrix, with a fresh workspace.
    return _is_pd(omega, np.empty_like(omega))


class TestPdDecision:
    """The PD floor's Cholesky test gives the eigenvalue's answer."""

    @given(
        p=st.integers(2, 40),
        lam_min=st.one_of(
            st.floats(10.0, 1e6).map(lambda f: f * PD_TOL),  # well above
            st.floats(-10.0, 0.5 * PD_TOL),  # well below
            st.integers(-10, 10).map(lambda k: PD_TOL * (1 + k * 1e-4)),  # at
        ),
        spread=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_min_eigenvalue(self, p, lam_min, spread, seed):
        omega = _with_smallest_eigenvalue(p, lam_min, spread, seed)
        assert is_pd(omega) == (min_eigenvalue(omega) > PD_TOL)

    def test_eigenvalues_decide_only_near_the_floor(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            tuning, "min_eigenvalue", lambda a: calls.append(1) or min_eigenvalue(a)
        )
        assert is_pd(_with_smallest_eigenvalue(20, 1e-3, 1.0, 0))
        assert not is_pd(_with_smallest_eigenvalue(20, -1e-3, 1.0, 0))
        assert calls == []
        is_pd(_with_smallest_eigenvalue(20, PD_TOL, 1.0, 0))
        assert calls == [1]

    @given(
        p=st.integers(2, 40),
        margin=st.one_of(
            st.floats(10.0, 1e6).map(lambda f: f * PD_TOL),
            st.floats(-10.0, 0.5 * PD_TOL),
            st.integers(-10, 10).map(lambda k: PD_TOL * (1 + k * 1e-4)),
        ),
        spread=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_min_eigenvalue_when_diagonally_dominant(self, p, margin, spread, seed):
        # Each diagonal entry exceeds its row's off-diagonal mass by margin,
        # so the Gershgorin bound sits near the floor from either side.
        omega = _diagonally_dominant(p, margin, spread, seed)
        assert is_pd(omega) == (min_eigenvalue(omega) > PD_TOL)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nan_entries_do_not_qualify(self):
        # Cholesky factors a NaN matrix into NaN without raising, and
        # min_eigenvalue refuses the matrix as non-finite.
        assert not is_pd(np.full((2, 2), np.nan))
        # The large pair's entry scale overflows, so under soft thresholding
        # its lam = 0 estimate holds NaN; only the larger values qualify.
        gamma = np.array([[1e200, 0.5e200, 0.0], [0.5e200, 2e200, 0.1], [0.0, 0.1, 1.0]])
        restricted, notes = pd_floor_scan(gamma, np.array([0.0, 0.5, 1.0]), 50, EstimatorConfig())
        np.testing.assert_array_equal(restricted, [0.5, 1.0])
        assert notes == []

    def test_diagonally_dominant_needs_no_factorization(self, monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
        monkeypatch.setattr(
            tuning, "min_eigenvalue", lambda a: calls.append(2) or min_eigenvalue(a)
        )
        assert is_pd(_diagonally_dominant(30, 1e-3, 1.0, 0))
        assert calls == []
        assert is_pd(_with_smallest_eigenvalue(20, 1e-3, 1.0, 0))
        assert calls == [1]


# Reference for the grid loop: one threshold_matrix call per tuning value.
def _reference_pd_floor_scan(gamma, grid, n, config):
    qualifies = np.array(
        [
            min_eigenvalue(
                threshold_matrix(
                    gamma, float(lam), n, config.rule,
                    threshold_diagonal=config.threshold_diagonal,
                )
            )
            > PD_TOL
            for lam in grid
        ]
    )
    if not qualifies.any():
        return grid, [
            "no grid value produced a positive definite estimate; using the full grid"
        ]
    first = int(np.flatnonzero(qualifies)[0])
    notes = []
    if not qualifies[first:].all():
        notes.append(
            "positive definiteness is not monotone over the grid; "
            "the restricted grid contains non-definite candidates"
        )
    return grid[first:], notes


def _reference_cv_curve(values, config, grid):
    n = values.shape[0]
    errors = np.zeros((config.folds, grid.size))
    for v, fold in enumerate(make_folds(n, config.folds, config.seed)):
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        g_tr = _subset_covariance(values[mask], config)
        g_te = _subset_covariance(values[fold], config)
        for g, lam in enumerate(grid):
            omega = threshold_matrix(
                g_tr, float(lam), int(mask.sum()), config.rule,
                threshold_diagonal=config.threshold_diagonal,
            )
            errors[v, g] = float(((omega - g_te) ** 2).sum())
    return np.column_stack([grid, errors.mean(axis=0)])


RULES = [ThresholdRule.soft(), ThresholdRule.adaptive_lasso(2.0), ThresholdRule.scad(3.7)]


def _bits(x):
    return np.float64(x).view(np.int64)


class TestFinalEstimateSymmetry:
    """The final estimate is bitwise symmetric, signed zeros included, so
    the eigen helpers, which read one triangle, give what eigvalsh of the
    symmetrized copy (x + x.T) / 2 gives."""

    @pytest.mark.parametrize("enforce_pd", [True, False])
    @pytest.mark.parametrize("threshold_diagonal", [False, True])
    @pytest.mark.parametrize("estimator", ["rcec", "coat"])
    @pytest.mark.parametrize("rule", RULES, ids=ThresholdRule.spec)
    @settings(max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 30), p=st.integers(2, 8))
    def test_bitwise_symmetric(self, rule, estimator, threshold_diagonal, enforce_pd, seed, n, p):
        rng = np.random.default_rng(seed)
        x = basis_to_composition(rng.standard_t(3, size=(n, p)) @ rng.normal(size=(p, p)))
        config = EstimatorConfig(
            estimator=estimator, rule=rule, threshold_diagonal=threshold_diagonal,
            enforce_pd=enforce_pd, seed=seed % 1000, grid_size=10,
        )
        omega = estimate(x, config).omega
        assert np.array_equal(omega.view(np.int64), omega.T.view(np.int64))

        gamma = _subset_covariance(clr_transform(x).values, config)
        assert _bits(min_eigenvalue(omega)) == _bits(np.linalg.eigvalsh((omega + omega.T) / 2)[0])
        d = omega - gamma
        eigs = np.linalg.eigvalsh((d + d.T) / 2)
        assert _bits(spectral_loss(omega, gamma)) == _bits(max(abs(eigs[0]), abs(eigs[-1])))


class TestGridLoop:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(10, 30),
        p=st.integers(2, 6),
        folds=st.integers(2, 5),
        rule=st.sampled_from(RULES),
        threshold_diagonal=st.booleans(),
        estimator=st.sampled_from(["rcec", "coat"]),
        grid_size=st.integers(2, 12),
        stretch=st.floats(0.5, 3.0),
        order=st.sampled_from(["sorted", "shuffled", "repeated"]),
    )
    def test_matches_one_threshold_matrix_call_per_value(
        self, seed, n, p, folds, rule, threshold_diagonal, estimator, grid_size, stretch, order
    ):
        # Heavy-tailed, correlated data; the grid is stretched past the
        # all-zeroing value or shrunk below it, and may come unsorted or
        # with repeated values.
        rng = np.random.default_rng(seed)
        values = rng.standard_t(3, size=(n, p)) @ rng.normal(size=(p, p))
        config = EstimatorConfig(
            estimator=estimator, rule=rule, folds=folds,
            threshold_diagonal=threshold_diagonal, seed=seed % 1000,
        )
        gamma = _subset_covariance(values, config)
        grid = lambda_grid(gamma, n, grid_size) * stretch
        if order == "shuffled":
            grid = rng.permutation(grid)
        elif order == "repeated":
            grid = grid[rng.integers(0, grid_size, grid_size + 3)]

        restricted, notes = pd_floor_scan(gamma, grid, n, config)
        ref_restricted, ref_notes = _reference_pd_floor_scan(gamma, grid, n, config)
        assert np.array_equal(restricted, ref_restricted)
        assert notes == ref_notes

        lam, curve = cv_select(values, config, grid=grid)
        ref_curve = _reference_cv_curve(values, config, grid)
        assert np.array_equal(curve, ref_curve)
        best = np.flatnonzero(ref_curve[:, 1] == ref_curve[:, 1].min())[-1]
        assert lam == grid[best]

    @pytest.mark.parametrize("estimator", ["rcec", "coat"])
    @pytest.mark.parametrize("rule", RULES, ids=ThresholdRule.spec)
    def test_curve_matches_the_loop_at_pairwise_sum_sizes(self, rule, estimator):
        # p = 40 gives 1600 entries per squared distance, enough for numpy's
        # pairwise summation to split blocks: the in-place fold score must
        # sum in the same order as the fresh array of the loop.
        x = _composition(case=4, n=80, p=40, seed=6)
        w = clr_transform(x).values
        config = EstimatorConfig(estimator=estimator, rule=rule, seed=3)
        grid = lambda_grid(_subset_covariance(w, config), 80, 30)
        lam, curve = cv_select(w, config, grid=grid)
        assert np.array_equal(curve, _reference_cv_curve(w, config, grid))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("threshold_diagonal", [False, True])
    def test_overflowing_entry_scale_matches_the_loop(self, threshold_diagonal):
        # Variances near 1e200 overflow the entry scale of their pair, so at
        # lam = 0 the threshold is 0 * inf = NaN, which the clipped rule maps
        # to the entry itself; past 0 it is inf and the entry is zero.  The
        # oversized pair makes the estimate indefinite until it is zeroed, so
        # an entry dropped on its NaN threshold would change the restriction.
        gamma = np.diag([1e200, 1e200, 1.0, 2.0])
        gamma[0, 1] = gamma[1, 0] = 2e200
        gamma[2, 3] = gamma[3, 2] = 0.5
        config = EstimatorConfig(
            rule=ThresholdRule.scad(3.7), threshold_diagonal=threshold_diagonal
        )
        grid = np.array([0.5, 0.0, 2.0, 0.0])
        restricted, notes = pd_floor_scan(gamma, grid, 40, config)
        ref_restricted, ref_notes = _reference_pd_floor_scan(gamma, grid, 40, config)
        assert np.array_equal(restricted, ref_restricted)
        assert notes == ref_notes

    def test_non_monotone_restriction_matches_the_loop(self):
        # Under the clipped rule the 0.75 entries pass unchanged while the
        # 0.19 entry is zeroed, which leaves the estimate indefinite; the
        # estimate is definite below that value and once every entry is
        # zeroed.  The grid is unsorted and repeats its values.
        gamma = np.array([[1.0, 0.75, 0.19], [0.75, 1.0, 0.75], [0.19, 0.75, 1.0]])
        config = EstimatorConfig(rule=ThresholdRule.scad(3.7))
        grid = np.array([1.18, 0.0, 10.0, 1.18, 0.0, 10.0])
        restricted, notes = pd_floor_scan(gamma, grid, 40, config)
        ref_restricted, ref_notes = _reference_pd_floor_scan(gamma, grid, 40, config)
        assert np.array_equal(restricted, ref_restricted)
        assert notes == ref_notes
        np.testing.assert_array_equal(restricted, grid[1:])
        assert len(notes) == 1 and "not monotone" in notes[0]

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nan_estimates_do_not_qualify_in_any_order(self):
        # The large pair's entry scale overflows, so at lam = 0 the soft
        # estimate holds NaN and does not qualify; every larger value does.
        gamma = np.array([[1e200, 0.5e200, 0.0], [0.5e200, 2e200, 0.1], [0.0, 0.1, 1.0]])
        grid = np.array([1.0, 0.0, 0.5, 0.0])
        restricted, notes = pd_floor_scan(gamma, grid, 50, EstimatorConfig())
        np.testing.assert_array_equal(restricted, grid)
        assert notes == [
            "positive definiteness is not monotone over the grid; "
            "the restricted grid contains non-definite candidates"
        ]

    @pytest.mark.parametrize("bad", [-0.5, float("nan")])
    def test_negative_or_nan_grid_value_rejected(self, bad):
        x = _composition(n=40, p=6, seed=2)
        w = clr_transform(x).values
        cfg = EstimatorConfig(seed=4)
        gamma = _subset_covariance(w, cfg)
        grid = np.array([0.0, 1.0, bad, 2.0])
        with pytest.raises(ValueError, match="nonnegative"):
            cv_select(w, cfg, grid=grid)
        with pytest.raises(ValueError, match="nonnegative"):
            pd_floor_scan(gamma, grid, 40, cfg)

    @pytest.mark.parametrize("estimator", ["rcec", "coat"])
    def test_clamp_is_noted_once_per_fit(self, estimator):
        # All-equal rows have zero clr variance, so every covariance the fit
        # thresholds needs the diagonal floor: the full-data one in the grid,
        # the PD scan and the final fit, and one per CV fold.  The fit
        # reports the floor once, as a note, and issues no Python warning.
        x = CompositionMatrix(np.tile([0.1, 0.2, 0.3, 0.15, 0.05, 0.2], (40, 1)))
        config = EstimatorConfig(estimator=estimator, grid_size=50, folds=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = estimate(x, config)
        assert caught == []
        clamps = [note for note in result.warnings if "clamped" in note]
        assert len(clamps) == 1
        gamma = _subset_covariance(clr_transform(x).values, config)
        low = float(np.diag(gamma).min())
        assert result.warnings[0] == (
            f"covariance diagonal entries as low as {low:.3g} were clamped "
            "to 1e-12 for threshold computation"
        )


# Without numpy's bundled OpenBLAS, work that calls BLAS does not split.
needs_split = pytest.mark.skipif(parallel._openblas() is None, reason="OpenBLAS not found")


@needs_split
class TestGridLoopSplit(TestGridLoop):
    """The grid-loop comparisons with the PD scan and the median-of-means
    kernel split over threads at any size (the scan on at most p threads)."""

    @pytest.fixture(autouse=True, scope="class", params=[2, 3], ids=lambda t: f"threads={t}")
    def split(self, request):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tuning, "_SCAN_THREAD_P", 1)
            patch.setattr(mom, "_THREAD_SHARE", 1)
            patch.setenv(parallel.THREADS_ENV, str(request.param))
            yield


class Boom(Exception):
    """Raised inside a split thread."""


@needs_split
class TestPdScanSplit:
    @pytest.mark.parametrize("p, helpers", [(100, 0), (136, 0), (150, 1), (400, 1)])
    def test_entry_count_gates_the_split(self, monkeypatch, p, helpers):
        # Each thread gets at least _SCAN_THREAD_P of p, so p = 100 and
        # p = 136 stay on one thread, where two were slower or broke even,
        # and p = 150 and p = 400 split.
        monkeypatch.setenv(parallel.THREADS_ENV, "2")
        started = []
        thread = threading.Thread

        class Recording(thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Recording)
        gamma = _with_smallest_eigenvalue(p, 1e-3, 1.0, 0)
        grid = np.array([0.0, 0.5, 1.0, 2.0])
        config = EstimatorConfig()
        restricted, notes = pd_floor_scan(gamma, grid, 100, config)
        assert len(started) == helpers
        ref_restricted, ref_notes = _reference_pd_floor_scan(gamma, grid, 100, config)
        assert np.array_equal(restricted, ref_restricted)
        assert notes == ref_notes

    @pytest.mark.parametrize("p, bound", [(400, 5), (1000, 13), (2000, 26)])
    def test_thread_bound_grows_with_p(self, monkeypatch, p, bound):
        # The bound the scan asks split_work for, read without starting a
        # thread.  From p = 1000 it is no more than the former gate on the
        # entry count, p * p // 75,000, so a large scan holds no more p x p
        # spaces than it did under that gate.
        monkeypatch.setenv(parallel.THREADS_ENV, "64")
        bounds = []

        def spy(plan, threads, blas=False):
            bounds.append(parallel.worker_count(threads))
            plan(1)(0)

        monkeypatch.setattr(tuning, "split_work", spy)
        grid = np.linspace(0.0, 1.0, 32)
        restricted, notes = pd_floor_scan(np.eye(p), grid, 100, EstimatorConfig())
        assert bounds == [bound]
        assert np.array_equal(restricted, grid) and notes == []
        if p >= 1000:
            assert bound <= min(grid.size, p * p // 75_000)

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch):
        # Five threads writing decisions next to each other: a lost or
        # misplaced decision would change the restriction or the notes.
        # p = 5 lets the scan take five threads at one column a thread.
        monkeypatch.setattr(tuning, "_SCAN_THREAD_P", 1)
        gamma = np.eye(5)
        gamma[0, 1] = gamma[1, 0] = 2.0
        grid = np.random.default_rng(0).permutation(np.linspace(0.0, 16.0, 30))
        config = EstimatorConfig()
        want = _reference_pd_floor_scan(gamma, grid, 40, config)
        monkeypatch.setenv(parallel.THREADS_ENV, "5")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                restricted, notes = pd_floor_scan(gamma, grid, 40, config)
                assert np.array_equal(restricted, want[0]) and notes == want[1]
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_helper_error_reaches_the_caller_with_its_type(self, monkeypatch, threads):
        # Only the LinAlgError of a failed factorization is a decision; any
        # other error raised in a helper thread ends the scan.
        monkeypatch.setattr(tuning, "_SCAN_THREAD_P", 1)
        monkeypatch.setenv(parallel.THREADS_ENV, str(threads))
        caller = threading.get_ident()
        cholesky = np.linalg.cholesky

        def failing(a):
            if threading.get_ident() != caller:
                raise Boom("in a helper")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        gamma = _with_smallest_eigenvalue(20, 1e-3, 1.0, 0)  # needs a factorization
        with pytest.raises(Boom, match="in a helper"):
            pd_floor_scan(gamma, np.zeros(4), 50, EstimatorConfig())
        assert not parallel._busy.locked()


class TestEstimatePipeline:
    def test_contracts_on_case1(self):
        x = _composition(case=1, n=60, p=10, seed=1)
        result = estimate(x, EstimatorConfig(seed=7, grid_size=25))
        np.testing.assert_array_equal(result.omega, result.omega.T)
        assert result.min_eig > PD_TOL
        assert result.lambda_star in result.cv_curve[:, 0]
        assert result.cv_curve.shape[1] == 2

    def test_block_count_reporting(self):
        x = _composition(case=1, n=60, p=10, seed=1)
        rcec_fit = estimate(x, EstimatorConfig(seed=7))
        coat_fit = estimate(x, EstimatorConfig(estimator="coat", seed=7))
        from rcec import default_block_count

        assert rcec_fit.block_count == default_block_count(10, n_cap=60)
        assert coat_fit.block_count == 1

    def test_deterministic(self):
        x = _composition(case=2, n=50, p=8, seed=3)
        cfg = EstimatorConfig(seed=21, grid_size=15)
        a = estimate(x, cfg)
        b = estimate(x, cfg)
        np.testing.assert_array_equal(a.omega, b.omega)
        assert a.lambda_star == b.lambda_star
        np.testing.assert_array_equal(a.cv_curve, b.cv_curve)

    def test_single_block_equals_coat_bitwise(self):
        x = _composition(case=2, n=50, p=8, seed=3)
        rcec_cfg = EstimatorConfig(block_count=1, seed=21, grid_size=15)
        coat_cfg = EstimatorConfig(estimator="coat", seed=21, grid_size=15)
        rcec_m1, coat = estimate(x, rcec_cfg), estimate(x, coat_cfg)
        np.testing.assert_array_equal(rcec_m1.omega, coat.omega)
        w = clr_transform(x).values
        np.testing.assert_array_equal(_subset_covariance(w, rcec_cfg), _subset_covariance(w, coat_cfg))
        assert rcec_m1.lambda_star == coat.lambda_star

    def test_memory_layout_does_not_change_bits(self):
        x = _composition(case=1, n=60, p=20, seed=0).values
        cfg = EstimatorConfig(seed=0)
        c_order = estimate(x, cfg)
        f_order = estimate(np.asfortranarray(x), cfg)
        np.testing.assert_array_equal(
            _subset_covariance(clr_transform(np.asfortranarray(x)).values, cfg),
            _subset_covariance(clr_transform(x).values, cfg),
        )
        np.testing.assert_array_equal(f_order.omega, c_order.omega)
        np.testing.assert_array_equal(f_order.cv_curve, c_order.cv_curve)
        assert f_order.lambda_star == c_order.lambda_star

    def test_column_permutation_equivariance(self):
        x = _composition(case=1, n=60, p=6, seed=9)
        cfg = EstimatorConfig(seed=2, grid_size=15)
        base = estimate(x, cfg)
        perm = np.array([3, 0, 5, 1, 4, 2])
        from rcec import CompositionMatrix

        permuted = estimate(CompositionMatrix(x.values[:, perm]), cfg)
        # Exact equality is out of reach: BLAS products round differently
        # under permuted memory layouts, so compare up to float noise.
        np.testing.assert_allclose(permuted.lambda_star, base.lambda_star, rtol=1e-9)
        np.testing.assert_allclose(
            permuted.omega, base.omega[np.ix_(perm, perm)], rtol=1e-8, atol=1e-10
        )

    def test_latent_entry_point(self):
        y = sample_case(1, 50, 8, seed=4)
        result = estimate_from_latent(y, EstimatorConfig(seed=5, grid_size=10))
        np.testing.assert_array_equal(result.omega, result.omega.T)
        assert result.lambda_star in result.cv_curve[:, 0]

    @pytest.mark.parametrize(
        "entry, data",
        [
            (estimate, _composition(n=40, p=6, seed=3)),
            (estimate_from_latent, sample_case(1, 40, 6, seed=3)),
        ],
        ids=["estimate", "estimate_from_latent"],
    )
    def test_default_config_is_estimator_config(self, entry, data):
        assert_same_bits(entry(data), entry(data, EstimatorConfig()))

    def test_warnings_on_unfixable_indefiniteness(self):
        # With PD enforcement off, min_eig may be negative and no note is
        # added; with it on and an unfixable input the note appears.
        x = _composition(case=1, n=60, p=10, seed=1)
        result = estimate(x, EstimatorConfig(seed=7, enforce_pd=False, grid_size=10))
        assert isinstance(result.warnings, list)

    def test_too_few_samples(self):
        x = _composition(case=1, n=8, p=6, seed=0)
        with pytest.raises(ValueError, match="n >= 2"):
            estimate(x, EstimatorConfig(folds=5))
